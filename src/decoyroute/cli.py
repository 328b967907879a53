"""Experiment runner: figure2, simulate, overhead and verify subcommands.

Every subcommand is a deterministic function of its arguments and the
seed; running twice with the same inputs produces byte-identical output.
Floats are emitted with 9 significant digits so golden files are portable.

Exit status: 0 on success, 1 when `verify` finds a failing check, 2 for
configuration or usage errors, including a `--config` file that cannot be
read and an `--out` path that cannot be written, and 3 for an internal
error: any other exception, reported as `internal error` with its
traceback on stderr.  Output is buffered, so a run that exits 2 or 3
leaves an existing `--out` file as it was.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
import traceback
from pathlib import Path
from typing import IO

from . import analysis, constraints, overhead
from .config import DEFAULT_SEED, KEYS, ConfigError, RunConfig, layer
from .protocol import run_simulation

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_INTERNAL_ERROR = 3

# The config keys each subcommand reads, with their defaults; simulate reads
# the fields of RunConfig.
DEFAULTS = {
    "figure2": {"gamma": 0.01, "mu": 0.01},
    "overhead": {"K": 100, "H3": 20, "trials": 100_000, "seed": DEFAULT_SEED},
    "verify": {"seed": DEFAULT_SEED},
}


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
    if not 0 <= args.loss_min < math.inf:
        raise ConfigError("loss_min", f"must be finite and >= 0, got {args.loss_min}")
    if not args.loss_min <= args.loss_max < math.inf:
        raise ConfigError(
            "loss_max", f"must be finite and >= loss-min {args.loss_min}, got {args.loss_max}"
        )
    if args.steps < 2:
        raise ConfigError("steps", f"must be >= 2, got {args.steps}")
    values = layer("figure2", DEFAULTS["figure2"], args.config, vars(args))
    points = analysis.security_curve(
        values["gamma"], values["mu"], args.loss_min, args.loss_max, args.steps
    )
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
        lines.append(
            _row(
                f"{pair.sender}-{pair.receiver}",
                pair.stats.type2_trials,
                pair.stats.type2_errors,
                pair.stats.d2_hat,
                pair.stats.type3_trials,
                pair.stats.type3_errors,
                pair.stats.d3_hat,
                pair.eve_learned_fraction,
                pair.detected,
            )
        )
    lines.append("")
    lines.append("detected,inferred_eta,leaked_fraction_bound,actual_learned_fraction")
    lines.append(
        _row(
            result.detected,
            result.inferred_eta,
            result.leaked_fraction_bound,
            result.actual_learned_fraction,
        )
    )
    out.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_overhead(args: argparse.Namespace, out: IO[str]) -> int:
    values = layer("overhead", DEFAULTS["overhead"], args.config, vars(args))
    K, H3, trials, seed = values["K"], values["H3"], values["trials"], values["seed"]
    if K < 2:
        raise ConfigError("K", f"must be >= 2, got {K}")

    if args.m is not None and args.eta is not None:
        raise ConfigError("m", "give either --m or --eta, not both")
    if args.eta is not None:
        if not 0.0 <= args.eta <= 1.0:
            raise ConfigError("eta", f"must be in [0, 1], got {args.eta}")
        m = round(args.eta * K)
    else:
        m = args.m if args.m is not None else round(0.2 * K)
    if not 0 <= m <= K:
        raise ConfigError("m", f"must be in [0, K], got {m}")
    if H3 > K:
        raise ConfigError("H3", f"must be in [0, K], got {H3}")
    if H3 and m and max(H3, K - H3) >= overhead.MC_POPULATION_LIMIT:
        raise ConfigError("K", f"must keep H3 and K - H3 below 1e9, got {K}")
    for name in ("epsilon", "eta_max"):
        if not 0.0 < getattr(args, name) < 1.0:
            raise ConfigError(name, f"must be in (0, 1), got {getattr(args, name)}")
    # The decoy counts round (2 / eta_max) ln(1 / epsilon) up to an int.
    log_term = math.log(1.0 / args.epsilon)
    for name, scale in (("epsilon", log_term), ("eta_max", 2.0 / args.eta_max * log_term)):
        if not math.isfinite(scale):
            value = getattr(args, name)
            raise ConfigError(name, f"too small: the decoy count overflows, got {value}")

    exact = overhead.exact_escape_prob(K, H3, m)
    eta = m / K
    bound = overhead.bound_escape_prob(K, H3, eta) if 0.0 < eta < 1.0 else None
    mc_estimate, mc_stderr = overhead.montecarlo_escape(K, H3, m, trials, seed)

    report = overhead.required_overhead(K, args.epsilon, args.eta_max)

    lines = [
        "K,H3,m,exact,bound_S8,mc_estimate,mc_stderr",
        _row(K, H3, m, exact, bound, mc_estimate, mc_stderr),
        "",
        "epsilon,eta_max,alpha,beta,g1,H_sum,H_paper_constant",
        _row(
            report.epsilon,
            report.eta_max,
            report.alpha,
            report.beta,
            report.g1,
            report.h_total,
            report.g0_affine,
        ),
    ]
    out.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, out: IO[str]) -> int:
    seed = layer("verify", DEFAULTS["verify"], args.config, vars(args))["seed"]
    if args.dim < 2:
        raise ConfigError("dim", f"must be >= 2, got {args.dim}")
    for name in ("samples", "scatter_samples"):
        if getattr(args, name) < 1:
            raise ConfigError(name, f"must be >= 1, got {getattr(args, name)}")
    checks, scatter = constraints.run_verification(
        dim=args.dim,
        samples=args.samples,
        scatter_samples=args.scatter_samples,
        seed=seed,
        enforce_return_constraint=not args.violate_constraints,
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

    def add_command(name: str, summary: str, defaults: dict, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        p.add_argument("--config", type=str, default=None, help="key = value config file")
        # Config keys arrive as raw text and are parsed and checked by config.layer.
        for key, default in defaults.items():
            p.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                choices=KEYS[key].choices or None,
                help=None if default is None else f"default {default}",
            )
        p.set_defaults(func=func)
        return p

    p = add_command("figure2", "leak-vs-loss curve as CSV", DEFAULTS["figure2"], cmd_figure2)
    p.add_argument("--seed", type=int, default=None, help="unused: the curve is closed-form")
    p.add_argument("--loss-min", dest="loss_min", type=float, default=0.0)
    p.add_argument("--loss-max", dest="loss_max", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=61)

    add_command("simulate", "run the clocked protocol once", vars(RunConfig()), cmd_simulate)

    p = add_command(
        "overhead", "escape probabilities and decoy sizing", DEFAULTS["overhead"], cmd_overhead
    )
    p.add_argument("--m", type=int, default=None, help="intercepted slot count")
    p.add_argument("--eta", type=float, default=None, help="intercepted fraction (sets m)")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--eta-max", dest="eta_max", type=float, default=0.1)

    p = add_command("verify", "attack-unitary constraint checks", DEFAULTS["verify"], cmd_verify)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--scatter-samples", dest="scatter_samples", type=int, default=1000)
    p.add_argument(
        "--violate-constraints",
        action="store_true",
        help="negative-control hook: skip the return-leg constraint",
    )

    return parser


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
                Path(args.out).write_text(buffer.getvalue())
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
