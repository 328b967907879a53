"""Benchmark of the ``decoyroute`` command line, end to end and layer by layer.

Run from the repository root::

    python3 benchmarks/run.py                      # every workload, 10 s each
    python3 benchmarks/run.py --workload payload_attack --seed 7 --seconds 30 --trace 0

Each op is one fresh interpreter (``op.py``) that imports ``decoyroute.cli``
(timed as ``setup_s``), calls ``decoyroute.cli.main`` with the workload's
arguments and an in-memory stdout (timed as ``wall_s``), and reports its own
peak RSS.  The load is a closed loop with one client: ops run one after the
other until ``--seconds`` have passed; an op that would not end in time is
not started.  Every op of a run gets the same ``--seed``, so their CSV
outputs must match byte for byte; each output is also checked against
closed forms (``checks.py``).

The host is a few shared cores whose speed drifts by up to 2x over seconds
to minutes, so the reported times are scaled to a fixed host speed: each op
process times the workload's reference work (``reference.py``) before,
every 50 ms during and after ``cli.main``, and its times are multiplied by
``reference.NOMINAL_S`` over the typical timing (``reference.typical``).
``wall_s`` and ``setup_s`` are the medians of these scaled times.  The
unscaled medians are in the report and the record as ``raw_wall_s`` and
``raw_setup_s``.

With ``--trace 1`` the run alternates untraced and traced ops; the traced
ones install the hooks of ``hooks.py`` and give the per-layer metrics, and
the ratio of the two kinds' median ``wall_s`` is ``trace.overhead_ratio``.

The last line of stdout is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units come
from ``BENCHMARK.json``.  A full record of the run, spans included, is
written to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import reference
from hooks import HOOKS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OP_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    """One op: a sequence of CLI invocations, each in its own process."""

    name: str
    invocations: tuple[tuple[str, ...], ...]
    checks: tuple[Callable[[str], list[str]], ...]
    cycles: int  # simulated cycles per op, summed over node pairs
    reference: str  # the function of reference.py that tracks the host's speed


def _argv(**flags) -> tuple[str, ...]:
    out: list[str] = []
    for key, value in flags.items():
        out += [f"--{key.replace('_', '-')}", str(value)]
    return tuple(out)


def _payload_attack() -> Workload:
    K, H, loss_db = 400_000, 20_000, 1.0
    return Workload(
        name="payload_attack",
        invocations=(
            ("simulate",)
            + _argv(K=K, H2=H, H3=H, loss_db=loss_db, gamma=0.01, mu=0.01, attack="both",
                    eta_path=0.5, eta_msg=0.5),
        ),
        checks=(
            partial(checks.check_simulate, K=K, H2=H, H3=H, T=10 ** (-loss_db / 10),
                    gamma=0.01, mu=0.01, eta_path=0.5, eta_msg=0.5, pairs=1, traffic="full"),
        ),
        cycles=K,
        reference="scalar",
    )


def _decoy_multipair() -> Workload:
    K, H, pairs = 50_000, 6_000, 16
    return Workload(
        name="decoy_multipair",
        invocations=(
            ("simulate",)
            + _argv(num_nodes=pairs + 1, pairs=",".join(f"0-{i}" for i in range(1, pairs + 1)),
                    K=K, H2=H, H3=H, T=0.8, gamma=0.01, mu=0.01, traffic="silent"),
        ),
        checks=(
            partial(checks.check_simulate, K=K, H2=H, H3=H, T=0.8, gamma=0.01, mu=0.01,
                    eta_path=0.0, eta_msg=0.0, pairs=pairs, traffic="silent"),
        ),
        cycles=K * pairs,
        reference="scalar",
    )


def _theory_cli() -> Workload:
    overhead = partial(checks.check_overhead, epsilon=0.01, eta_max=0.1)
    return Workload(
        name="theory_cli",
        invocations=(
            ("figure2",),
            ("overhead",) + _argv(K=100, H3=20, m=20, trials=1_000_000),
            ("overhead",) + _argv(K=10_000_000, H3=93, m=1_000_000, trials=1),
            ("verify",) + _argv(dim=8, samples=100, scatter_samples=1000),
        ),
        checks=(
            partial(checks.check_figure2, gamma=0.01, mu=0.01, lo=0.0, hi=3.0, steps=61),
            partial(overhead, K=100, H3=20, m=20, trials=1_000_000),
            partial(overhead, K=10_000_000, H3=93, m=1_000_000, trials=1),
            partial(checks.check_verify, scatter_samples=1000),
        ),
        cycles=0,
        reference="array",
    )


WORKLOADS = {w.name: w for w in (_payload_attack(), _decoy_multipair(), _theory_cli())}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    # Ops import from the bytecode cache the warm-up writes, as an installed
    # package would, whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    # subprocess.run waits for the child, and kills and reaps it on timeout.
    return subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S
    )


def pin_to_one_cpu() -> None:
    """Keep this process and the ops it starts on one CPU, so that all ops see the same core."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_op(workload: Workload, seed: int, traced: bool, op_id: int = 0) -> dict:
    """Run one op; returns its timings, outputs, problems and (if traced) hook data."""
    env = _env()
    op = {"traced": traced, "wall_s": 0.0, "setup_s": [], "raw_wall_s": 0.0,
          "raw_setup_s": [], "ref_s": [], "rss_mb": [], "outputs": [], "problems": [],
          "traces": []}
    for process, (argv, check) in enumerate(zip(workload.invocations, workload.checks)):
        spec = {"argv": list(argv) + ["--seed", str(seed)], "trace": traced, "op_id": op_id,
                "process": process, "reference": workload.reference,
                "t0": time.clock_gettime(time.CLOCK_MONOTONIC)}
        try:
            proc = _spawn([sys.executable, str(HERE / "op.py"), json.dumps(spec)], env)
            result = json.loads(proc.stdout.splitlines()[-1])
        except subprocess.TimeoutExpired:
            op["problems"].append(f"{argv[0]}: no result within {OP_TIMEOUT_S} s")
            continue
        except (IndexError, json.JSONDecodeError):
            op["problems"].append(f"{argv[0]}: op process failed: {proc.stderr[-2000:]}")
            continue
        ref_s = reference.typical(result["ref_s"])
        scale = reference.NOMINAL_S / ref_s
        op["wall_s"] += result["wall_s"] * scale
        op["setup_s"].append(result["setup_s"] * scale)
        op["raw_wall_s"] += result["wall_s"]
        op["raw_setup_s"].append(result["setup_s"])
        op["ref_s"].append(ref_s)
        op["rss_mb"].append(result["maxrss_kb"] / 1024)
        op["outputs"].append(result["csv"])
        op["versions"] = {"python": result["python"], "numpy": result["numpy"]}
        if result["trace"] is not None:
            op["traces"].append(result["trace"])
        if result["error"] is not None or result["exit"] != 0:
            op["problems"].append(f"{argv[0]}: exit {result['exit']} {result['error'] or ''}")
            continue
        try:
            op["problems"] += check(result["csv"])
        except (ValueError, IndexError, KeyError) as exc:
            op["problems"].append(f"{argv[0]}: unparseable output ({exc!r})")
    op["peak_rss_mb"] = max(op["rss_mb"], default=0.0)
    op["digest"] = hashlib.sha256("\0".join(op["outputs"]).encode()).hexdigest()
    return op


def layer_metrics(traces: list[dict], output_bytes: int) -> dict[str, float | None]:
    """Per-layer metrics of one traced op, merged over its processes; None marks absent."""
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    errors = 0
    counts: dict[str, dict[str, int]] = {}
    absent_counts: set[tuple[str, str]] = set()
    absent = set()
    table_bytes: list[int | None] = []
    for trace in traces:
        absent.update(trace["absent"])
        table_bytes.append(trace["log_factorial_bytes"])
        for name, hook in trace["hooks"].items():
            calls[name] = calls.get(name, 0) + hook["calls"]
            self_s[name] = self_s.get(name, 0.0) + hook["self_s"]
            errors += hook["errors"]
            merged = counts.setdefault(name, {})
            for key, value in hook["counts"].items():
                merged[key] = merged.get(key, 0) + value
            absent_counts.update((name, key) for key in hook["absent_counts"])

    # A hook no process reported (its op process failed) counts as absent.
    absent |= {hook.name for hook in HOOKS} - set(calls)
    metrics: dict[str, float | None] = {}
    for hook in HOOKS:
        present = hook.name not in absent
        metrics[f"{hook.name}.calls"] = calls[hook.name] if present else None
        metrics[f"{hook.name}.self_s"] = self_s[hook.name] if present else None

    def count(hook: str, key: str) -> int | None:
        if hook in absent or (hook, key) in absent_counts:
            return None
        return counts[hook].get(key, 0)

    def ratio(num, den) -> float | None:
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    cycles = count("protocol.run_simulation", "cycles")
    metrics.update({
        "protocol.generate_schedule.decoys": count("protocol.generate_schedule", "decoys"),
        "protocol.Schedule.for_pair.scan_ratio": ratio(
            count("protocol.Schedule.for_pair", "scanned"),
            count("protocol.Schedule.for_pair", "returned"),
        ),
        "protocol.run_simulation.cycles": cycles,
        "protocol.payload_ratio": ratio(metrics["protocol.run_type1_slot.calls"], cycles),
        "adversary.ledger_entries": count("protocol.run_simulation", "ledger_entries"),
        "overhead.montecarlo_escape.draws": count("overhead.montecarlo_escape", "draws"),
        "overhead.exact_escape_prob.terms": count("overhead.exact_escape_prob", "terms"),
        "overhead.log_factorial_bytes": (
            None if None in table_bytes or not table_bytes else max(table_bytes)
        ),
        "cli.output_bytes": output_bytes,
        "trace.hook_errors": errors,
        "trace.hooks_absent": len(absent),
    })
    return metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _commit() -> str:
    # Only look at this checkout's own .git, never a repository above it.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def measure(workload: Workload, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One run: ops in a closed loop for ``seconds``; returns the result and its record."""
    load_before = os.getloadavg()
    start = time.monotonic()
    ops: list[dict] = []
    durations: list[float] = []
    # A traced run needs at least one untraced and one traced op.  Another op
    # starts only if one of the typical length would end within the run.
    while len(ops) < (2 if trace else 1) or (
        time.monotonic() - start + statistics.median(durations) < seconds
    ):
        began = time.monotonic()
        ops.append(run_op(workload, seed, traced=trace and len(ops) % 2 == 1, op_id=len(ops)))
        durations.append(time.monotonic() - began)
    load_after = os.getloadavg()

    first_digest = ops[0]["digest"]
    for op in ops[1:]:
        if op["digest"] != first_digest:
            op["problems"].append("output differs from the run's first op at the same seed")
    failed = sum(1 for op in ops if op["problems"])
    # Timings come from the ops that passed, or from all of them if none did.
    plain, traced = (
        [op for op in kind if not op["problems"]] or kind
        for kind in ([op for op in ops if op["traced"] == t] for t in (False, True))
    )

    wall = [op["wall_s"] for op in plain]
    setups = [s for op in plain for s in op["setup_s"]]
    end_to_end = {
        "wall_s": (_median(wall), len(wall)),
        "setup_s": (_median(setups), len(setups)),
        "peak_rss_mb": (_median([op["peak_rss_mb"] for op in plain]), len(plain)),
        "failed_frac": (failed / len(ops), len(ops)),
        "raw_wall_s": (_median([op["raw_wall_s"] for op in plain]), len(wall)),
        "raw_setup_s": (_median([s for op in plain for s in op["raw_setup_s"]]), len(setups)),
        "ref_s": (_median([r for op in plain for r in op["ref_s"]]), len(setups)),
    }
    if workload.cycles and end_to_end["raw_wall_s"][0] > 0:
        end_to_end["sim_cycles_per_s"] = (
            workload.cycles / end_to_end["raw_wall_s"][0], len(wall)
        )

    per_layer: dict[str, float | None] = {}
    if traced:
        per_op = [
            layer_metrics(op["traces"], sum(len(o.encode()) for o in op["outputs"]))
            for op in traced
        ]
        for name in per_op[0]:
            values = [m[name] for m in per_op]
            per_layer[name] = None if None in values else _median(values)
        per_layer["trace.overhead_ratio"] = _median([op["wall_s"] for op in traced]) / (
            end_to_end["wall_s"][0] or 1.0
        )

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        value = (per_layer if trace else {k: v for k, (v, _) in end_to_end.items()})[entry["name"]]
        metrics[entry["name"]] = (
            {"value": 0, "unit": entry["unit"], "absent": True}
            if value is None
            else {"value": value, "unit": entry["unit"]}
        )
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _commit(),
        "versions": ops[0].get("versions", {}),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "reference": {"work": workload.reference, "nominal_s": reference.NOMINAL_S,
                      "period_s": reference.PERIOD_S},
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "load": "closed loop, one client, one op at a time",
        "end_to_end": {k: {"value": v, "samples": n} for k, (v, n) in end_to_end.items()},
        "per_layer": per_layer,
        "ops": [
            {k: op[k] for k in ("traced", "wall_s", "setup_s", "raw_wall_s", "raw_setup_s",
                                "ref_s", "rss_mb", "digest", "problems")}
            for op in ops
        ],
        "spans": [span for op in traced for t in op["traces"] for span in t["spans"]],
    }
    return {"result": result, "record": record}


def report(record: dict, spec: dict) -> None:
    """Human-readable summary of one run (everything but the last stdout line)."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(failed_frac="ratio", sim_cycles_per_s="cycles/s", raw_wall_s="s",
                 raw_setup_s="s", ref_s="s")
    print(f"== {record['workload']} (seed {record['seed']}, {record['seconds']} s, "
          f"trace {int(record['trace'])})")
    print(f"why: {record['why']}")
    print(f"commit {record['commit']}; python {record['versions'].get('python')}, "
          f"numpy {record['versions'].get('numpy')}; nproc {record['nproc']}, "
          f"ops on CPUs {record['cpu_affinity']}; {record['load']}")
    print(f"loadavg before {record['loadavg_before']}, after {record['loadavg_after']}; "
          f"times scaled to reference.{record['reference']['work']} taking "
          f"{record['reference']['nominal_s']} s")
    for name, entry in record["end_to_end"].items():
        print(f"  {name:<20} {entry['value']:>14.6g} {units[name]:<9} n={entry['samples']}")
    for name, value in record["per_layer"].items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {units.get(name, '')}")
    for i, op in enumerate(record["ops"]):
        for problem in op["problems"]:
            print(f"  op {i} failed: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "decoyroute" / "cli.py").is_file():
        print(f"error: no decoyroute sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin_to_one_cpu()
    # Untimed warm-up: writes the bytecode cache and faults in the imports.
    warm = _spawn([sys.executable, "-c", "import decoyroute.cli"], _env())
    if warm.returncode != 0:
        print(f"error: cannot import decoyroute.cli:\n{warm.stderr}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    for name in names:
        outcome = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), spec)
        report(outcome["record"], spec)
        path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(outcome["record"], indent=1) + "\n")
        results[name] = outcome["result"]

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
