import errno
import hashlib
import io
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoyroute import cli, overhead
from decoyroute.analysis import leaked_fraction
from decoyroute.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    fmt,
    main,
)
from decoyroute.config import DEFAULTS, KEYS


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), stdout=out)
    return code, out.getvalue()


def test_fmt_nine_significant_digits():
    assert fmt(0.021615862717) == "0.0216158627"
    assert fmt(1.0) == "1"
    assert fmt(True) == "true"
    assert fmt(None) == "nan"
    assert fmt(123) == "123"


def test_figure2_defaults():
    code, text = run_cli("figure2")
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert lines[0] == "loss_db,T,D,e,h_e,g"
    assert len(lines) == 62
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[5]) == pytest.approx(0.021619, abs=1e-3)
    assert float(lines[-1].split(",")[5]) == 1.0


def test_figure2_below_threshold_never_saturates():
    code, text = run_cli("figure2", "--loss-max", "0.5")
    assert code == EXIT_OK
    for line in text.strip().splitlines()[1:]:
        assert float(line.split(",")[5]) < 1.0


def test_figure2_rejects_bad_grid():
    code, _ = run_cli("figure2", "--loss-min", "2", "--loss-max", "1")
    assert code == EXIT_CONFIG_ERROR


def test_simulate_clean_run():
    code, text = run_cli(
        "simulate", "--K", "400", "--H2", "40", "--H3", "40",
        "--T", "1", "--gamma", "0", "--mu", "0", "--attack", "none",
    )
    assert code == EXIT_OK
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 2
    header, row = blocks[0].splitlines()
    assert header.startswith("pair,type2_trials,type2_errors,D2_hat")
    cells = row.split(",")
    assert cells[0] == "0-1"
    assert cells[3] == "0" and cells[6] == "0"
    assert cells[8] == "false"
    summary_header, summary_row = blocks[1].splitlines()
    assert summary_header == "detected,inferred_eta,leaked_fraction_bound,actual_learned_fraction"
    assert summary_row.split(",")[0] == "false"


def test_simulate_detects_attack_under_default_thresholds():
    code, text = run_cli(
        "simulate", "--K", "8000", "--H2", "100", "--H3", "1000",
        "--T", "1", "--gamma", "0", "--mu", "0",
        "--attack", "path", "--eta-path", "0.5",
    )
    assert code == EXIT_OK
    row = text.strip().split("\n\n")[0].splitlines()[1].split(",")
    d3_hat = float(row[6])
    assert d3_hat == pytest.approx(0.25, abs=0.05)
    assert row[8] == "true"


def test_simulate_byte_identical_for_same_seed():
    args = (
        "simulate", "--K", "2000", "--H2", "50", "--H3", "50",
        "--loss-db", "1.0", "--gamma", "0.01", "--mu", "0.01",
        "--attack", "both", "--eta-path", "0.3", "--eta-msg", "0.3",
        "--seed", "77",
    )
    assert run_cli(*args) == run_cli(*args)


def test_simulate_rejects_conflicting_transmissivity():
    code, _ = run_cli("simulate", "--T", "0.9", "--loss-db", "1.0")
    assert code == EXIT_CONFIG_ERROR


def test_simulate_out_file(tmp_path):
    target = tmp_path / "run.csv"
    code, text = run_cli("simulate", "--K", "200", "--H2", "10", "--H3", "10",
                         "--T", "1", "--out", str(target))
    assert code == EXIT_OK
    assert text == ""
    assert target.read_text().startswith("pair,")


def test_simulate_reads_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# example run\n"
        "K = 400\n"
        "H2 = 20\n"
        "H3 = 20\n"
        "T = 1.0\n"
        "attack = path\n"
        "eta_path = 1.0\n"
    )
    code, text = run_cli("simulate", "--config", str(config), "--eta-path", "0.0")
    assert code == EXIT_OK
    # Flag wins: no interception despite the file's eta_path = 1.
    row = text.strip().split("\n\n")[0].splitlines()[1].split(",")
    assert float(row[7]) == 0.0


# Small flags for each command, so every run is quick and every key shows.
TABLE_BASE = {
    "figure2": {"steps": "5"},
    "simulate": {"K": "200", "H2": "20", "H3": "20", "gamma": "0.05", "mu": "0.05",
                 "attack": "both", "eta_path": "0.3", "eta_msg": "0.3",
                 "threshold2": "0.5", "threshold3": "0.5", "num_nodes": "3", "pairs": "1-2"},
    "overhead": {"K": "40", "H3": "8", "trials": "40"},
    "verify": {"dim": "2", "samples": "2", "scatter_samples": "3"},
}
# Two values of each key, one for the file and one for the flag.  Where no
# output shows a key, the file's value fails a check and the flag's passes.
TABLE_VALUES = {
    "figure2": {"gamma": ("0.01", "0.02"), "mu": ("0.01", "0.03"), "seed": ("1", "2"),
                "loss_min": ("0", "1"), "loss_max": ("2", "3"), "steps": ("3", "4")},
    "simulate": {
        "seed": ("1", "2"), "K": ("200", "300"), "num_nodes": ("2", "3"),
        "pairs": ("0-1", "1-0"), "H2": ("10", "20"), "H3": ("10", "20"),
        "gamma": ("0.1", "0.3"), "mu": ("0", "0.5"), "T": ("0.5", "0.9"),
        "loss_db": ("0", "10"), "attack": ("none", "both"), "eta_path": ("0.2", "0.9"),
        "eta_msg": ("0.2", "0.9"), "threshold2": ("0", "0.5"), "threshold3": ("0", "0.5"),
        "traffic": ("full", "silent"),
    },
    "overhead": {"K": ("40", "50"), "H3": ("4", "8"), "trials": ("20", "40"),
                 "seed": ("1", "2"), "m": ("5", "10"), "eta": ("0.1", "0.2"),
                 "epsilon": ("0.01", "0.05"), "eta_max": ("0.1", "0.2")},
    "verify": {"seed": ("1", "2"), "dim": ("2", "3"), "samples": ("0", "2"),
               "scatter_samples": ("2", "3")},
}
# The one input no run shows: figure2 accepts a seed but draws nothing.
UNSEEN = ("figure2", "seed")


@pytest.mark.parametrize(
    "command, key", [(command, key) for command, keys in DEFAULTS.items() for key in keys]
)
def test_every_input_may_come_from_a_file_and_the_flag_wins(command, key, tmp_path):
    file_value, flag_value = TABLE_VALUES[command][key]
    base = [f"--{k.replace('_', '-')}={v}" for k, v in TABLE_BASE[command].items() if k != key]
    flag = f"--{key.replace('_', '-')}"
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {file_value}\n")
    from_file = run_cli(command, *base, "--config", str(config))
    from_both = run_cli(command, *base, "--config", str(config), flag, flag_value)
    assert from_file == run_cli(command, *base, flag, file_value)
    assert from_both == run_cli(command, *base, flag, flag_value)
    assert from_both[0] == EXIT_OK
    assert (from_file == from_both) == ((command, key) == UNSEEN)


def test_config_errors_name_the_offending_key(tmp_path, capsys):
    # Keys of config.KEYS are named "config key '<key>'"; --config and --out,
    # the only valued flags outside it, "option '--<flag>'".
    config = tmp_path / "bad.cfg"
    config.write_text("gamma = 2.0\n")
    code, _ = run_cli("simulate", "--config", str(config))
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("error: config key 'gamma': ")

    config.write_text("no_such_key = 1\n")
    code, _ = run_cli("simulate", "--config", str(config))
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: option '--config': ") and "'no_such_key'" in err

    # The overhead command reads trials; simulate must not ignore it silently.
    config.write_text("trials = 5\n")
    code, _ = run_cli("simulate", "--config", str(config))
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("error: config key 'trials': ")
    code, _ = run_cli("overhead", "--config", str(config), "--K", "50", "--H3", "5")
    assert code == EXIT_OK

    code, _ = run_cli("simulate", "--K", "20", "--H2", "2", "--H3", "2", "--pairs", "0-1,0-1")
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("error: config key 'pairs': ")

    # Every command checks its keys' ranges, and rejects file keys it does not read.
    overhead_file = tmp_path / "overhead.cfg"
    overhead_file.write_text("gamma = 0.1\n")
    figure2_file = tmp_path / "figure2.cfg"
    figure2_file.write_text("K = 5\n")
    for argv, prefix in (
        (("overhead", "--K", "0", "--H3", "0"), "config key 'K'"),
        (("overhead", "--K", "0"), "config key 'K'"),
        (("overhead", "--K", "1"), "config key 'K'"),
        (("simulate", "--K", str(10**20)), "config key 'K'"),
        (("overhead", "--trials", "0"), "config key 'trials'"),
        (("verify", "--seed", "-1"), "config key 'seed'"),
        (("figure2", "--gamma", "2"), "config key 'gamma'"),
        (("overhead", "--config", str(overhead_file)), "config key 'gamma'"),
        (("figure2", "--config", str(figure2_file)), "config key 'K'"),
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
        (("simulate", "--out", str(tmp_path / "missing" / "x.csv")), "option '--out'"),
        (("verify", "--dim", "0"), "config key 'dim'"),
        (("verify", "--samples", "0"), "config key 'samples'"),
        (("overhead", "--epsilon", "0"), "config key 'epsilon'"),
        (("overhead", "--eta-max", "1"), "config key 'eta_max'"),
    ):
        code, _ = run_cli(*argv)
        assert code == EXIT_CONFIG_ERROR, argv
        assert capsys.readouterr().err.startswith(f"error: {prefix}: "), argv


def test_internal_errors_exit_3_with_a_traceback(tmp_path, monkeypatch, capsys):
    # A ValueError that is not a ConfigError is an engine bug, not a user error.
    def broken_kernel(**kwargs):
        raise ValueError("engine bug")

    monkeypatch.setattr(cli, "run_simulation", broken_kernel)
    prior = tmp_path / "prior.csv"
    prior.write_text("keep")
    code, text = run_cli("simulate", "--out", str(prior))
    assert (code, text) == (EXIT_INTERNAL_ERROR, "")
    assert prior.read_text() == "keep"
    err = capsys.readouterr().err
    assert err.startswith("internal error\nTraceback (most recent call last):")
    assert err.rstrip().endswith("ValueError: engine bug")


def test_failed_run_leaves_out_file_untouched(tmp_path):
    prior = tmp_path / "prior.csv"
    prior.write_bytes(b"keep\r\n\x00tail")
    code, text = run_cli("simulate", "--out", str(prior), "--K", "0")
    assert (code, text) == (EXIT_CONFIG_ERROR, "")
    assert prior.read_bytes() == b"keep\r\n\x00tail"
    # A verify run that finds a failing check still writes its CSV.
    code, text = run_cli(
        "verify", "--dim", "2", "--samples", "10", "--scatter-samples", "5",
        "--violate-constraints", "--out", str(prior),
    )
    assert (code, text) == (EXIT_VERIFY_FAILED, "")
    assert prior.read_text().startswith("check,result\n") and ",fail" in prior.read_text()


def test_out_write_that_fails_part_way_leaves_the_file_untouched(tmp_path, monkeypatch, capsys):
    # The CSV once went straight into --out, truncating it before the write.
    prior = tmp_path / "prior.csv"
    prior.write_bytes(b"keep\r\n\x00tail")
    write_text = Path.write_text

    def full_disk(path, data, *args, **kwargs):
        write_text(path, data[: len(data) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(Path, "write_text", full_disk)
    code, text = run_cli("simulate", "--K", "200", "--H2", "10", "--H3", "10", "--out", str(prior))
    monkeypatch.undo()
    assert (code, text) == (EXIT_CONFIG_ERROR, "")
    assert capsys.readouterr().err.startswith("error: option '--out': ")
    assert prior.read_bytes() == b"keep\r\n\x00tail"
    assert list(tmp_path.iterdir()) == [prior]  # no temporary file left behind


def test_out_file_gets_the_mode_of_a_plain_write(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("")
    target = tmp_path / "run.csv"
    assert run_cli("figure2", "--steps", "3", "--out", str(target)) == (EXIT_OK, "")
    assert target.stat().st_mode == plain.stat().st_mode


def test_readme_lists_the_keys_each_command_reads():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Config files", 1)[1]
    listed = {
        command: re.sub(r"\s+", " ", keys).split(", ")
        for command, keys in re.findall(r"^- `(\w+)`: `([^`]*)`", section, re.MULTILINE)
    }
    read = {command: list(defaults) for command, defaults in DEFAULTS.items()}
    assert listed == read
    assert {key for keys in listed.values() for key in keys} == set(KEYS)


def test_readme_names_resolve():
    # Every backticked `decoyroute.`-qualified name in the README imports and resolves, so
    # the docs cannot go on naming a deleted function.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    names = re.findall(r"`(decoyroute(?:\.\w+)+)", readme)
    assert "decoyroute.overhead.beta_for" in names
    for name in names:
        pkgutil.resolve_name(name)


def test_an_attack_checks_the_rate_it_leaves_unused(capsys):
    # The attack name zeroes a rate it does not enable, but only after checking it.
    for argv, key in (
        (("--attack", "none", "--eta-path", "1.5"), "eta_path"),
        (("--attack", "path", "--eta-msg", "nan"), "eta_msg"),
    ):
        code, text = run_cli("simulate", *argv)
        assert (code, text) == (EXIT_CONFIG_ERROR, ""), argv
        assert capsys.readouterr().err.startswith(f"error: config key '{key}': "), argv


def test_an_empty_pair_list_names_pairs(tmp_path, capsys):
    config = tmp_path / "pairs.cfg"
    config.write_text("pairs = ,\n")
    for argv in (("--pairs", ","), ("--config", str(config))):
        code, _ = run_cli("simulate", *argv)
        assert code == EXIT_CONFIG_ERROR, argv
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'pairs': ") and "no pairs given" in err, argv


def test_the_module_entry_point_runs_the_cli():
    # The package's parent directory first, so the child imports this checkout.
    paths = (str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}

    def run(*argv: str) -> subprocess.CompletedProcess:
        command = [sys.executable, "-m", "decoyroute", *argv]
        return subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)

    done = run("figure2", "--steps", "2")
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[0] == "loss_db,T,D,e,h_e,g"
    assert len(done.stdout.splitlines()) == 3
    done = run("simulate", "--K", "0")
    assert (done.returncode, done.stdout) == (EXIT_CONFIG_ERROR, "")
    assert done.stderr.startswith("error: config key 'K': ")


def test_simulate_oversubscription_is_config_error(capsys):
    # More decoys than cycles.
    code, _ = run_cli("simulate", "--K", "4", "--H2", "3", "--H3", "2")
    assert code == EXIT_CONFIG_ERROR
    assert "config key 'K'" in capsys.readouterr().err
    # Fewer decoys than cycles, but their return cycles do not fit.
    code, _ = run_cli("simulate", "--K", "20", "--H2", "6", "--H3", "6")
    assert code == EXIT_CONFIG_ERROR
    assert "config key 'K'" in capsys.readouterr().err
    code, _ = run_cli("simulate", "--K", "21", "--H2", "5", "--H3", "6", "--T", "1")
    assert code == EXIT_OK


def test_simulate_reversed_pairs_are_distinct():
    code, text = run_cli(
        "simulate", "--K", "20", "--H2", "2", "--H3", "2", "--pairs", "0-1,1-0", "--T", "1"
    )
    assert code == EXIT_OK
    rows = [row.split(",") for row in text.strip().split("\n\n")[0].splitlines()[1:]]
    assert [(row[0], row[1], row[4]) for row in rows] == [("0-1", "2", "2"), ("1-0", "2", "2")]


# sha256 of stdout for seeded runs, recorded before the schedule became
# per-pair arrays: the schedule and the simulation must not move a draw.
GOLDEN_SIMULATE_DIGESTS = {
    # The two message-attack runs were re-pinned when a resent decoy's flip
    # moved to the receiver stream; MESSAGE_ATTACK_TRIAL_CELLS holds what stayed put.
    "--K 400000 --H2 20000 --H3 20000 --loss-db 1.0 --gamma 0.01 --mu 0.01 --attack both "
    "--eta-path 0.5 --eta-msg 0.5 --seed 12345":
        "8cc625e512977226bb6dc62b5ac6041ff2eacd7c7ca257cc50b7d5728836763f",
    "--num-nodes 17 --pairs " + ",".join(f"0-{i}" for i in range(1, 17))
    + " --K 50000 --H2 6000 --H3 6000 --T 0.8 --gamma 0.01 --mu 0.01 --traffic silent"
    " --seed 12345":
        "407d51649a1a5b269b157fdb7bfc24f74ee7399bad9c1fcf5f9bdca86cbe70e5",
    "--K 1000 --H2 250 --H3 250 --T 0.9 --attack path --eta-path 0.3 --seed 7":
        "423f1b6cb8713defccbe0ebafdee74532247d624222e285628d604ca56d6d2e2",
    "--K 21 --H2 5 --H3 6 --num-nodes 3 --pairs 0-1,1-0,2-1 --attack message --eta-msg 1 "
    "--seed 1":
        "107f1ef0e5e0b9926ea8e63eddff2ca6d587f83e8eb33198264514e5e3852ef3",
    "--K 1 --H2 0 --H3 1 --seed 2":
        "94652b477019dafe6574d9c1cc3ee478c9c372729383a6ef0f34bcfd927d60c2",
    "--K 1 --H2 0 --H3 0 --seed 2":
        "6bd5ea4971ae14f3bafedcff8575c2dcab28622df54b0061c790a4f7717b8937",
    "--K 2 --H2 0 --H3 0 --seed 2":
        "6bd5ea4971ae14f3bafedcff8575c2dcab28622df54b0061c790a4f7717b8937",
}


def test_simulate_output_matches_golden_digests():
    digests = {}
    for args in GOLDEN_SIMULATE_DIGESTS:
        code, text = run_cli("simulate", *args.split())
        assert code == EXIT_OK, args
        digests[args] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == GOLDEN_SIMULATE_DIGESTS


# The cells of the two message-attack digests that no draw feeds, recorded
# before they were re-pinned for the receiver stream: pair, type2_trials, type3_trials.
MESSAGE_ATTACK_TRIAL_CELLS = {
    "--K 400000 --H2 20000 --H3 20000 --loss-db 1.0 --gamma 0.01 --mu 0.01 --attack both "
    "--eta-path 0.5 --eta-msg 0.5 --seed 12345":
        [("0-1", "20000", "20000")],
    "--K 21 --H2 5 --H3 6 --num-nodes 3 --pairs 0-1,1-0,2-1 --attack message --eta-msg 1 "
    "--seed 1":
        [("0-1", "5", "6"), ("1-0", "5", "6"), ("2-1", "5", "6")],
}


def test_repinned_message_attack_runs_keep_their_trial_cells():
    for args, expected in MESSAGE_ATTACK_TRIAL_CELLS.items():
        assert args in GOLDEN_SIMULATE_DIGESTS
        code, text = run_cli("simulate", *args.split())
        assert code == EXIT_OK, args
        header, *rows = (line.split(",") for line in text.split("\n\n")[0].splitlines())
        columns = [header.index(name) for name in ("pair", "type2_trials", "type3_trials")]
        assert [tuple(row[i] for i in columns) for row in rows] == expected, args


# sha256 of stdout for the other commands, recorded before they shared the
# config-layering path with simulate.
GOLDEN_DIGESTS = {
    "figure2":
        "ddfb548453455b4422d3df404bbf55bb46836178b84e6fce1d4748f02c54bfbd",
    # D > 0.5 here, and the command still succeeds.
    "figure2 --gamma 0.8 --mu 0.3 --steps 7":
        "1f3a1e2fc5e5c9b146c29bb1dd47343819480f0de6fbdbdd723aaa751e2ce9d7",
    # Re-pinned when the Monte-Carlo escape began drawing the overlap by
    # inversion of Generator.random uniforms; OVERHEAD_NON_MC_CELLS holds
    # what stayed put.
    "overhead --K 100 --H3 20 --m 20 --trials 1000 --seed 3":
        "c70dccd64996df802b72614c33283b1f0fa1f1f42c72322cc5b9e9d4b4b6ed4d",
    "overhead --K 1000 --H3 93 --eta 0.1 --trials 1":
        "5e356ac41e5eede15c2ad6a1b0e1a88ca0895e5392c38102b4426ff636864b4c",
    "overhead --K 50 --H3 0":
        "1c1c32a27405a16871184c12fb7544ac197ea53affbfe0dcc3d50e064fde3069",
    "verify --dim 4 --samples 10 --scatter-samples 20 --seed 5":
        "e2b52bfbd2e6642ae8fbb2461be1a7561281f8f8c0ab6071e099f890079dbaa4",
}

# Config file lines, then the flags: pins default < file < flag.
GOLDEN_CONFIG_DIGESTS = {
    # Re-pinned with the two overhead digests above.
    ("overhead", "K = 60\nH3 = 12\ntrials = 500\nseed = 9\n", "--H3 10"):
        "d9e68d52f99f08d489acb20aa05d180fb04ca7709230dca65de5d86a449ed16f",
    ("figure2", "gamma = 0.02\nmu = 0.03\n", "--mu 0.01 --steps 5"):
        "3e0b2bb76ad391d4243eaba181d9db1055f5969eb0d620b6e5281ea176deb1a1",
    ("verify", "seed = 4\n", "--samples 10 --scatter-samples 20"):
        "7e3f8e8fe294ac0a67c72e473bfd7e041de5bd90d115e3a59fb5aaea4fb6901f",
}


def test_other_commands_match_golden_digests(tmp_path):
    digests = {}
    for args in GOLDEN_DIGESTS:
        code, text = run_cli(*args.split())
        assert code == EXIT_OK, args
        digests[args] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == GOLDEN_DIGESTS

    config = tmp_path / "run.cfg"
    config_digests = {}
    for command, lines, flags in GOLDEN_CONFIG_DIGESTS:
        config.write_text(lines)
        code, text = run_cli(command, "--config", str(config), *flags.split())
        assert code == EXIT_OK, command
        config_digests[command, lines, flags] = hashlib.sha256(text.encode()).hexdigest()
    assert config_digests == GOLDEN_CONFIG_DIGESTS


# The cells of the re-pinned overhead runs that no Monte-Carlo draw feeds,
# recorded before the re-pin: K,H3,m,exact,bound_S8 and the sizing row.
OVERHEAD_NON_MC_CELLS = {
    ("overhead", "--K 100 --H3 20 --m 20 --trials 1000 --seed 3"):
        ("100,20,20,0.110036023,0.210297764", "0.01,0.1,93,93,186,1767,279"),
    ("overhead", "--K 1000 --H3 93 --eta 0.1 --trials 1"):
        ("1000,93,100,0.00759623762,0.0146812387", "0.01,0.1,93,93,186,2325,279"),
    ("overhead", "--config {config} --H3 10"):
        ("60,10,12,0.335296605,0.460951589", "0.01,0.1,93,93,186,1581,279"),
}


def test_repinned_overhead_runs_keep_their_non_mc_cells(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("K = 60\nH3 = 12\ntrials = 500\nseed = 9\n")
    for (command, flags), (escape, sizing) in OVERHEAD_NON_MC_CELLS.items():
        code, text = run_cli(command, *flags.format(config=config).split())
        assert code == EXIT_OK, flags
        lines = text.splitlines()
        assert ",".join(lines[1].split(",")[:5]) == escape, flags
        assert lines[4] == sizing, flags


def test_overhead_table_and_sizing():
    code, text = run_cli(
        "overhead", "--K", "100", "--H3", "20", "--eta", "0.2",
        "--trials", "20000", "--epsilon", "0.01", "--eta-max", "0.1",
    )
    assert code == EXIT_OK
    blocks = text.strip().split("\n\n")
    header, row = blocks[0].splitlines()
    assert header == "K,H3,m,exact,bound_S8,mc_estimate,mc_stderr"
    cells = row.split(",")
    exact, bound = float(cells[3]), float(cells[4])
    mc, stderr = float(cells[5]), float(cells[6])
    assert exact <= bound
    assert abs(mc - exact) <= 3 * stderr
    sizing_header, sizing_row = blocks[1].splitlines()
    assert sizing_header == "epsilon,eta_max,alpha,beta,g1,H_sum,H_paper_constant"
    sizing = sizing_row.split(",")
    assert sizing[2] == "93"
    assert sizing[4] == "186"


def test_overhead_no_decoys():
    code, text = run_cli("overhead", "--K", "50", "--H3", "0", "--m", "10", "--trials", "100")
    assert code == EXIT_OK
    row = text.strip().splitlines()[1].split(",")
    assert float(row[3]) == 1.0
    assert float(row[5]) == 1.0


def test_overhead_accepts_k_past_numpys_hypergeometric_limit():
    # numpy's Generator.hypergeometric stops at populations of 1e9, and these
    # runs once exited 2 naming K; the inversion sampler has no such bound.
    z = NormalDist().inv_cdf(1 - 1e-6 / 4)
    for argv in (
        ("--K", "2000000000", "--H3", "93"),
        ("--K", "1500000000", "--H3", "1000000000", "--m", "5"),
    ):
        code, text = run_cli("overhead", *argv)
        assert code == EXIT_OK, argv
        exact, _, estimate, stderr = map(float, text.splitlines()[1].split(",")[3:])
        assert abs(estimate - exact) <= z * stderr, (argv, exact, estimate, stderr)


def test_overhead_rejects_an_overflowing_decoy_count(monkeypatch, capsys):
    # alpha and beta round (2 / eta_max) ln(1 / epsilon) up; an infinite one cannot be.
    def must_not_run(*args):
        raise AssertionError("kernel ran before the sizing check")

    monkeypatch.setattr(overhead, "exact_escape_prob", must_not_run)
    monkeypatch.setattr(overhead, "montecarlo_escape", must_not_run)
    for flags, name in (
        (("--eta-max", "1e-308"), "eta_max"),
        (("--epsilon", "5e-324"), "epsilon"),
        (("--epsilon", "1e-300", "--eta-max", "1e-306"), "eta_max"),
    ):
        code, text = run_cli("overhead", "--K", "30", "--trials", "10", *flags)
        assert (code, text) == (EXIT_CONFIG_ERROR, ""), flags
        assert capsys.readouterr().err.startswith(f"error: config key '{name}': "), flags


def test_simulate_without_message_decoys_clamps_the_modelled_error():
    # With no Type 2 trial the bound prices e = message_error(mu, T), clamped
    # to 0.5 like a measured rate; mu = 0.9 gives 0.9 unclamped.
    for flags in ((), ("--K", "800", "--H3", "100", "--gamma", "0.1")):
        code, text = run_cli(
            "simulate", "--K", "100", "--H2", "0", "--H3", "10", "--mu", "0.9", *flags
        )
        assert code == EXIT_OK, flags
        blocks = text.strip().split("\n\n")
        cells = blocks[0].splitlines()[1].split(",")
        d3 = int(cells[5]) / int(cells[4])
        bound = blocks[1].splitlines()[1].split(",")[2]
        assert bound == fmt(leaked_fraction(min(0.5, d3), 0.5)), flags
        assert d3 > 0 or not flags


def test_overhead_derived_m_stays_in_range_at_eta_one():
    # A binary64 eta * K rounds up to 2**63 at K = 2**63 - 1 and down to K - 1 at 2**53 + 1.
    for K in (2**63 - 1, 2**53 + 1):
        code, text = run_cli("overhead", "--K", str(K), "--H3", "0", "--eta", "1", "--trials", "1")
        assert code == EXIT_OK, K
        assert text.splitlines()[1].split(",")[:3] == [str(K), "0", str(K)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(2, 2**53), st.floats(0.0, 1.0))
def test_overhead_derived_m_is_the_rounded_rate_up_to_2_pow_53(K, eta):
    code, text = run_cli("overhead", "--K", str(K), "--H3", "0", "--eta", repr(eta), "--trials", "1")
    assert code == EXIT_OK
    assert int(text.splitlines()[1].split(",")[2]) == round(eta * K)


def test_overhead_rejects_an_overlap_past_the_cap(monkeypatch, capsys):
    def must_not_run(*args):
        raise AssertionError("kernel ran before the overlap check")

    monkeypatch.setattr(overhead, "exact_escape_prob", must_not_run)
    monkeypatch.setattr(overhead, "montecarlo_escape", must_not_run)
    for argv, name in (
        (("--K", "4000000", "--H3", "1000001", "--m", "3000000"), "H3"),
        (("--K", "4000000", "--H3", "3000000", "--m", "1000001"), "m"),
        (("--K", "4000000", "--H3", "3000000", "--eta", "0.5"), "m"),
    ):
        code, text = run_cli("overhead", *argv, "--trials", "1")
        assert (code, text) == (EXIT_CONFIG_ERROR, ""), argv
        assert capsys.readouterr().err.startswith(f"error: config key '{name}': "), argv


def test_overhead_rejects_m_and_eta_together():
    code, _ = run_cli("overhead", "--m", "5", "--eta", "0.1")
    assert code == EXIT_CONFIG_ERROR


def test_verify_passes_and_is_deterministic():
    args = ("verify", "--dim", "2", "--samples", "30", "--scatter-samples", "40")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second
    code, text = first
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert lines[0] == "check,result"
    check_lines = [line for line in lines[1:] if line.endswith(",pass") or line.endswith(",fail")]
    assert check_lines and all(line.endswith(",pass") for line in check_lines)
    assert "disturbance,indistinguishability" in lines


def test_verify_negative_control_exits_nonzero():
    code, text = run_cli(
        "verify", "--dim", "2", "--samples", "10", "--scatter-samples", "5",
        "--violate-constraints",
    )
    assert code == EXIT_VERIFY_FAILED
    assert ",fail" in text


def test_simulate_multiple_pairs_emit_one_row_each():
    code, text = run_cli(
        "simulate", "--K", "600", "--H2", "20", "--H3", "20",
        "--num-nodes", "3", "--pairs", "0-1,1-2", "--T", "1",
    )
    assert code == EXIT_OK
    rows = text.strip().split("\n\n")[0].splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0-1", "1-2"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_all_floats_have_at_most_nine_significant_digits():
    _, text = run_cli("figure2", "--steps", "5")
    for token in re.findall(r"\d+\.\d+", text):
        digits = token.replace(".", "").lstrip("0")
        assert len(digits) <= 9, token
