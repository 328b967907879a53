"""Self-test of the benchmark: hook coverage, repeatable counts, no failed ops.

Run from the repository root with ``python3 -m pytest benchmarks`` or
``python3 benchmarks/test_benchmark.py``.  It makes two short traced runs
of every workload (one untraced and one traced op each), one to two minutes
in all.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
from hooks import HOOKS  # noqa: E402

SEED = 12345

SIMULATE = {
    "cli.cmd_simulate",
    "config.RunConfig.build",
    "seeding.stream_rng",
    "protocol.run_simulation",
    "protocol.generate_schedule",
    "protocol.Schedule.for_pair",
    "protocol.run_type2_slot",
    "protocol.run_type3_slot",
    "quantum.prepare_path_packet",
    "quantum.measure_qubit",
    "quantum.interfere_path_packet",
    "channel.transmit",
    "adversary.decide_intercept",
}
# Hooks predicted to fire on each workload; every other hook must read 0 calls.
FIRES = {
    "payload_attack": SIMULATE
    | {
        "protocol.run_type1_slot",
        "adversary.intercept_path",
        "adversary.intercept_message",
        "adversary.learned_traffic_fraction",
    },
    "decoy_multipair": SIMULATE,
    "theory_cli": {
        "cli.cmd_figure2",
        "cli.cmd_overhead",
        "cli.cmd_verify",
        "analysis.security_curve",
        "overhead.montecarlo_escape",
        "overhead.exact_escape_prob",
        "constraints.run_verification",
        "constraints.tradeoff_scatter",
        "constraints.random_unitary",
    },
}
MIN_CALLS = {("payload_attack", "protocol.run_type1_slot"): 100_000}
# Counts predicted to be non-zero on each workload; the others read 0.
NONZERO_COUNTS = {
    "payload_attack": {
        "protocol.generate_schedule.decoys",
        "protocol.Schedule.for_pair.scan_ratio",
        "protocol.run_simulation.cycles",
        "protocol.payload_ratio",
        "adversary.ledger_entries",
    },
    "decoy_multipair": {
        "protocol.generate_schedule.decoys",
        "protocol.Schedule.for_pair.scan_ratio",
        "protocol.run_simulation.cycles",
    },
    "theory_cli": {
        "overhead.montecarlo_escape.draws",
        "overhead.exact_escape_prob.terms",
    },
}
REPEATABLE = (
    "protocol.generate_schedule.decoys",
    "protocol.Schedule.for_pair.scan_ratio",
    "protocol.run_simulation.cycles",
    "protocol.payload_ratio",
    "adversary.ledger_entries",
    "overhead.montecarlo_escape.draws",
    "overhead.exact_escape_prob.terms",
    "overhead.log_factorial_bytes",
    "cli.output_bytes",
)


@functools.lru_cache(maxsize=None)
def _spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def _runs(workload: str) -> tuple[dict, dict]:
    """Two traced runs of the smallest size: one untraced and one traced op each."""
    return tuple(
        run.measure(run.WORKLOADS[workload], SEED, seconds=0, trace=True, spec=_spec())
        for _ in range(2)
    )


def test_hooks_fire_where_predicted():
    for workload, fires in FIRES.items():
        layer = _runs(workload)[0]["record"]["per_layer"]
        for hook in HOOKS:
            calls = layer[f"{hook.name}.calls"]
            assert calls is not None, f"{hook.name} is absent"
            if hook.name in fires:
                floor = MIN_CALLS.get((workload, hook.name), 1)
                assert calls >= floor, f"{hook.name} fired {calls} times on {workload}"
            else:
                assert calls == 0, f"{hook.name} fired {calls} times on {workload}"
        for name in {n for names in NONZERO_COUNTS.values() for n in names}:
            value = layer[name]
            assert value is not None, f"{name} is absent"
            assert (value > 0) == (name in NONZERO_COUNTS[workload]), (workload, name, value)
        assert layer["trace.hook_errors"] == 0
        assert layer["trace.hooks_absent"] == 0
        assert layer["trace.overhead_ratio"] > 0


def test_counts_repeat_at_the_same_seed():
    for workload in FIRES:
        first, second = (r["record"]["per_layer"] for r in _runs(workload))
        names = REPEATABLE + tuple(f"{hook.name}.calls" for hook in HOOKS)
        assert {n: first[n] for n in names} == {n: second[n] for n in names}, workload


def test_no_op_fails_on_correct_code():
    for workload in FIRES:
        for result in _runs(workload):
            assert result["result"]["failed"] == 0, result["record"]["ops"]
            assert result["result"]["correct"] is True
            assert result["record"]["end_to_end"]["failed_frac"]["value"] == 0


def test_reported_metrics_match_benchmark_json():
    spec = _spec()
    result = _runs("payload_attack")[0]["result"]
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    units = [m["unit"] for m in result["metrics"].values()]
    assert units == [m["unit"] for m in spec["per_layer"]]
    assert not any(m.get("absent") for m in result["metrics"].values())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_checks_reject_a_wrong_output():
    (check,) = run.WORKLOADS["payload_attack"].checks
    csv = run.run_op(run.WORKLOADS["payload_attack"], SEED, traced=False)["outputs"][0]
    assert check(csv) == []
    # A path decoy that never errs is what a broken type-3 kernel would report.
    lines = csv.splitlines()
    cells = lines[1].split(",")
    cells[5], cells[6] = "0", "0"
    assert check("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")


def test_typical_reference_timing():
    # The mean follows a mix of fast and slow spells; an interrupted run is dropped.
    assert reference.typical([1.0, 1.0, 2.0, 2.0]) == 1.5
    assert reference.typical([1.0, 1.0, 1.0, 1.0, 30.0]) == 1.0


def test_scaled_times_follow_the_reference():
    record = _runs("payload_attack")[0]["record"]
    (op,) = [op for op in record["ops"] if not op["traced"]]
    (ref_s,) = op["ref_s"]
    assert math.isclose(op["wall_s"], op["raw_wall_s"] * reference.NOMINAL_S / ref_s)
    assert record["end_to_end"]["wall_s"]["value"] == op["wall_s"]


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name} passed")
