"""Every input check runs before any kernel, and only check errors are user errors.

Each subcommand calls the library's check for its inputs before the
kernels run, inside a scope that reports the check's ``InputError`` as a
``ConfigError`` naming the key.  So a bad input exits 2 without reaching
a kernel, and an ``InputError`` raised by a kernel itself is a bug: exit 3.
"""

from __future__ import annotations

import io

import pytest

from decoyroute import analysis, cli, constraints, overhead
from decoyroute.cli import EXIT_CONFIG_ERROR, EXIT_INTERNAL_ERROR, EXIT_OK, main
from decoyroute.errors import InputError


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    return main(list(argv), stdout=out), out.getvalue()


@pytest.fixture
def no_kernel(monkeypatch):
    """Make every kernel a subcommand reaches fail the test if it runs."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("a kernel ran before the input checks")

    monkeypatch.setattr(cli, "run_simulation", must_not_run)
    monkeypatch.setattr(analysis, "security_curve", must_not_run)
    monkeypatch.setattr(constraints, "run_verification", must_not_run)
    monkeypatch.setattr(overhead, "exact_escape_prob", must_not_run)
    monkeypatch.setattr(overhead, "montecarlo_escape", must_not_run)


def exit_2_cases(tmp_path) -> list[tuple[tuple[str, ...], str]]:
    """The exit-2 cases of ``test_cli.py``'s config error test, and those of its
    oversubscription, population and overflow tests, then the slot-count and
    dimension bounds, with the name each must give."""
    def config(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return [
        (("simulate", "--config", config("gamma.cfg", "gamma = 2.0\n")), "config key 'gamma'"),
        (("simulate", "--config", config("unknown.cfg", "no_such_key = 1\n")), "option '--config'"),
        (("simulate", "--config", config("trials.cfg", "trials = 5\n")), "config key 'trials'"),
        (("simulate", "--K", "20", "--H2", "2", "--H3", "2", "--pairs", "0-1,0-1"),
         "config key 'pairs'"),
        (("overhead", "--K", "0", "--H3", "0"), "config key 'K'"),
        (("overhead", "--K", "0"), "config key 'K'"),
        (("overhead", "--K", "1"), "config key 'K'"),
        (("simulate", "--K", str(10**20)), "config key 'K'"),
        (("overhead", "--trials", "0"), "config key 'trials'"),
        (("verify", "--seed", "-1"), "config key 'seed'"),
        (("figure2", "--gamma", "2"), "config key 'gamma'"),
        (("overhead", "--config", config("overhead.cfg", "gamma = 0.1\n")), "config key 'gamma'"),
        (("figure2", "--config", config("figure2.cfg", "K = 5\n")), "config key 'K'"),
        (("verify", "--scatter-samples", "0"), "config key 'scatter_samples'"),
        (("figure2", "--steps", "1"), "config key 'steps'"),
        (("figure2", "--loss-min", "2", "--loss-max", "1"), "config key 'loss_max'"),
        (("figure2", "--loss-min", "-1"), "config key 'loss_min'"),
        (("figure2", "--loss-max", "inf"), "config key 'loss_max'"),
        (("figure2", "--loss-min", "inf", "--loss-max", "inf"), "config key 'loss_min'"),
        (("figure2", "--loss-min", "nan"), "config key 'loss_min'"),
        (("overhead", "--m", "5", "--eta", "0.1"), "config key 'm'"),
        (("overhead", "--eta", "2"), "config key 'eta'"),
        (("simulate", "--config", str(tmp_path / "missing.cfg")), "option '--config'"),
        (("overhead", "--config", str(tmp_path)), "option '--config'"),
        (("verify", "--dim", "0"), "config key 'dim'"),
        (("verify", "--samples", "0"), "config key 'samples'"),
        (("overhead", "--epsilon", "0"), "config key 'epsilon'"),
        (("overhead", "--eta-max", "1"), "config key 'eta_max'"),
        (("simulate", "--K", "4", "--H2", "3", "--H3", "2"), "config key 'K'"),
        (("simulate", "--K", "20", "--H2", "6", "--H3", "6"), "config key 'K'"),
        (("overhead", "--K", "1000000020", "--H3", "20"), "config key 'K'"),
        (("overhead", "--K", "30", "--eta-max", "1e-308"), "config key 'eta_max'"),
        (("overhead", "--K", "30", "--epsilon", "5e-324"), "config key 'epsilon'"),
        # K must convert to a float before m = round(eta K) is derived from it.
        (("overhead", "--K", str(2**63), "--H3", "0"), "config key 'K'"),
        (("overhead", "--K", "1" + "0" * 400, "--H3", "0", "--eta", "0.5"), "config key 'K'"),
        (("overhead", "--config", config("big.cfg", "K = 1" + "0" * 400 + "\n")),
         "config key 'K'"),
        (("verify", "--dim", "33"), "config key 'dim'"),
        (("verify", "--config", config("dim.cfg", "dim = 10000\n")), "config key 'dim'"),
    ]


def test_every_check_runs_before_any_kernel(tmp_path, no_kernel, capsys):
    for argv, prefix in exit_2_cases(tmp_path):
        code, text = run_cli(*argv)
        err = capsys.readouterr().err
        assert (code, text) == (EXIT_CONFIG_ERROR, ""), (argv, err)
        assert err.startswith(f"error: {prefix}: "), (argv, err)


def test_checks_rename_only_the_library_names_the_cli_spells_otherwise(no_kernel, capsys):
    # The library names these m_intercepted, h2_per_pair, h3_per_pair and node_pairs.
    for argv, prefix in (
        (("overhead", "--K", "30", "--m", "31"), "config key 'm'"),
        (("simulate", "--H2", "-1"), "config key 'H2'"),
        (("simulate", "--H3", "-1"), "config key 'H3'"),
        (("simulate", "--num-nodes", "3", "--pairs", "0-1,2-2"), "config key 'pairs'"),
        (("simulate", "--loss-db", "nan"), "config key 'loss_db'"),
        (("simulate", "--traffic", "some"), "config key 'traffic'"),
        (("simulate", "--threshold3", "0.6"), "config key 'threshold3'"),
        (("simulate", "--attack", "path", "--eta-path", "-0.5"), "config key 'eta_path'"),
    ):
        code, _ = run_cli(*argv)
        assert code == EXIT_CONFIG_ERROR, argv
        assert capsys.readouterr().err.startswith(f"error: {prefix}: "), argv


@pytest.mark.parametrize(
    "module, name, argv",
    [
        (cli, "run_simulation", ("simulate",)),
        (analysis, "security_curve", ("figure2",)),
        (constraints, "run_verification", ("verify", "--samples", "2", "--scatter-samples", "2")),
        (overhead, "exact_escape_prob", ("overhead",)),
        (overhead, "montecarlo_escape", ("overhead", "--trials", "10")),
    ],
)
def test_named_errors_from_inside_a_kernel_exit_3(module, name, argv, monkeypatch, capsys):
    # The same error a check raises is a bug when a kernel raises it.
    def broken_kernel(*args, **kwargs):
        raise InputError("K", "must be at least 1, got 0")

    monkeypatch.setattr(module, name, broken_kernel)
    code, text = run_cli(*argv)
    assert (code, text) == (EXIT_INTERNAL_ERROR, "")
    err = capsys.readouterr().err
    assert err.startswith("internal error\nTraceback (most recent call last):")
    assert err.rstrip().endswith("InputError: K must be at least 1, got 0")


def test_library_callers_get_a_value_error_naming_the_argument():
    with pytest.raises(ValueError, match="^m_intercepted must be in"):
        overhead.exact_escape_prob(10, 2, 11)
    with pytest.raises(InputError) as excinfo:
        analysis.security_curve(0.01, 0.01, -1.0, 3.0, 5)
    assert (excinfo.value.name, excinfo.value.detail) == (
        "loss_min_db", "must be finite and >= 0, got -1.0"
    )


def test_a_vacuous_bound_that_overflows_prints_inf():
    code, text = run_cli("overhead", "--K", "1000000", "--H3", "100000", "--eta", "0.9",
                         "--trials", "1")
    assert code == EXIT_OK
    assert text.splitlines()[1].split(",")[:5] == ["1000000", "100000", "900000", "0", "inf"]
