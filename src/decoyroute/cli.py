"""Experiment runner: figure2, simulate, overhead and verify subcommands.

Every subcommand is a deterministic function of its arguments and the
seed; running twice with the same inputs produces byte-identical output.
Floats are emitted with 9 significant digits so golden files are portable.

Exit status: 0 on success, 1 when `verify` finds a failing check, 2 for
configuration or usage errors, including a `--config` file that cannot be
read and an `--out` path that cannot be written, and 3 for an internal
error: any other exception, reported as `internal error` with its
traceback on stderr.  Output is buffered and `--out` is written beside
the target, then moved over it, so a run that exits 2 or 3, or a write
that fails part-way, leaves an existing `--out` file as it was.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import tempfile
import traceback
from pathlib import Path
from typing import IO

from . import analysis, constraints, overhead
from .config import DEFAULTS, ConfigError, RunConfig, layer, library_checks
from .errors import check_in
from .protocol import run_simulation

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_INTERNAL_ERROR = 3

def fmt(value) -> str:
    """CSV cell formatting: 9 significant digits, lowercase booleans, nan for undefined."""
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _row(*cells) -> str:
    return ",".join(fmt(cell) for cell in cells)


def cmd_figure2(args: argparse.Namespace, out: IO[str]) -> int:
    values = layer("figure2", args.config, vars(args))
    curve = tuple(values[key] for key in ("gamma", "mu", "loss_min", "loss_max", "steps"))
    with library_checks():
        analysis.check_curve(*curve)
    points = analysis.security_curve(*curve)
    lines = ["loss_db,T,D,e,h_e,g"]
    for p in points:
        lines.append(_row(p.loss_db, p.T, p.D, p.e, p.h_e, p.g))
    out.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace, out: IO[str]) -> int:
    config = RunConfig.build(args.config, vars(args))

    result = run_simulation(
        K=config.K,
        node_pairs=config.pairs,
        h2_per_pair=config.H2,
        h3_per_pair=config.H3,
        channel=config.channel(),
        attack=config.attack_config(),
        seed=config.seed,
        traffic=config.traffic,
        threshold2=config.threshold2,
        threshold3=config.threshold3,
    )

    lines = [
        "pair,type2_trials,type2_errors,D2_hat,type3_trials,type3_errors,D3_hat,"
        "eve_learned_fraction,detected"
    ]
    for pair in result.pairs:
        stats = pair.stats
        type2 = (stats.type2_trials, stats.type2_errors, stats.d2_hat)
        type3 = (stats.type3_trials, stats.type3_errors, stats.d3_hat)
        pair_label = f"{pair.sender}-{pair.receiver}"
        lines.append(_row(pair_label, *type2, *type3, pair.eve_learned_fraction, pair.detected))
    summary = ("detected", "inferred_eta", "leaked_fraction_bound", "actual_learned_fraction")
    lines += ["", ",".join(summary), _row(*(getattr(result, name) for name in summary))]
    out.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_overhead(args: argparse.Namespace, out: IO[str]) -> int:
    values = layer("overhead", args.config, vars(args))
    K, H3, m, eta, trials = (values[key] for key in ("K", "H3", "m", "eta", "trials"))
    epsilon, eta_max = values["epsilon"], values["eta_max"]
    if m is not None and eta is not None:
        raise ConfigError("m", "give either --m or --eta, not both")
    with library_checks():
        if eta is not None:
            check_in("eta", eta, 0, 1)
        overhead.check_overhead(K, epsilon, eta_max)
        if m is None:  # binary64 eta * K, kept in [0, K] above 2**53; every slot at eta = 1
            eta = 0.2 if eta is None else eta
            m = K if eta == 1 else min(round(eta * K), K)
        overhead.check_escape(K, H3, m, trials)

    exact = overhead.exact_escape_prob(K, H3, m)
    rate = m / K
    bound = overhead.bound_escape_prob(K, H3, rate) if 0.0 < rate < 1.0 else None
    mc_estimate, mc_stderr = overhead.montecarlo_escape(K, H3, m, trials, values["seed"])

    report = overhead.required_overhead(K, epsilon, eta_max)

    lines = [
        "K,H3,m,exact,bound_S8,mc_estimate,mc_stderr",
        _row(K, H3, m, exact, bound, mc_estimate, mc_stderr),
        "",
        "epsilon,eta_max,alpha,beta,g1,H_sum,H_paper_constant",
        _row(
            report.epsilon, report.eta_max, report.alpha, report.beta, report.g1,
            report.h_total, report.g0_affine,
        ),
    ]
    out.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, out: IO[str]) -> int:
    values = layer("verify", args.config, vars(args))
    sizes = {key: values[key] for key in ("dim", "samples", "scatter_samples")}
    with library_checks():
        constraints.check_verification(**sizes)
    checks, scatter = constraints.run_verification(
        **sizes, seed=values["seed"], enforce_return_constraint=not args.violate_constraints
    )
    lines = ["check,result"]
    for check in checks:
        lines.append(f"{check.name},{'pass' if check.passed else 'fail'}")
    lines.append("")
    lines.append("disturbance,indistinguishability")
    for disturbance, distance in scatter:
        lines.append(_row(disturbance, distance))
    out.write("\n".join(lines) + "\n")
    return EXIT_OK if all(check.passed for check in checks) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoyroute",
        description="Decoy-slot quantum routing: simulator and security analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "figure2": ("leak-vs-loss curve as CSV", cmd_figure2),
        "simulate": ("run the clocked protocol once", cmd_simulate),
        "overhead": ("escape probabilities and decoy sizing", cmd_overhead),
        "verify": ("attack-unitary constraint checks", cmd_verify),
    }
    for name, (summary, func) in commands.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--config", help="key = value config file")
        # Config keys arrive as raw text and are parsed by config.layer.
        for key, default in DEFAULTS[name].items():
            p.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                help=None if default is None else f"default {default}",
            )
        p.set_defaults(func=func)
        if name == "verify":
            p.add_argument(
                "--violate-constraints",
                action="store_true",
                help="negative-control hook: skip the return-leg constraint",
            )
    return parser


def write_replacing(target: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``target``, then move it over ``target``."""
    fd, name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    os.fchmod(fd, 0o666 & ~umask)  # the mode a plain open would create, not mkstemp's 0600
    os.close(fd)
    try:
        Path(name).write_text(text)
        os.replace(name, target)
    except BaseException:
        os.unlink(name)
        raise


def main(argv: list[str] | None = None, stdout: IO[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    buffer = io.StringIO()
    try:
        code = args.func(args, buffer)
        if args.out is None:
            (stdout if stdout is not None else sys.stdout).write(buffer.getvalue())
        else:
            try:
                write_replacing(Path(args.out), buffer.getvalue())
            except OSError as exc:
                raise ConfigError("out", f"cannot write {args.out}: {exc.strerror}") from None
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception:
        print("internal error", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
