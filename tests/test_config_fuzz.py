"""Config-file fuzz: generated ``--config`` files for every subcommand.

A file mixes the command's own keys, the keys of other commands, unknown
keys, out-of-range and unparsable values, and malformed lines.  Whatever
it holds, a run ends with exit 0, 1 or 2, and every exit 2 names the key
at fault or ``--config``.  The flags keep each run small; a file key that
a flag also sets is still parsed, then overridden.  The keys each command
reads, and the kind of value each takes, come from the config tables.
"""

from __future__ import annotations

import contextlib
import io
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from decoyroute.cli import EXIT_CONFIG_ERROR, EXIT_OK, EXIT_VERIFY_FAILED, main
from decoyroute.config import DEFAULTS, KEYS

NAMED = re.compile(r"config key '\w+'|option '--[\w-]+'")

FLAGS = {
    "simulate": [],
    "overhead": ["--epsilon=0.05"],
    "figure2": ["--steps=5"],
    "verify": ["--dim=2", "--samples=2", "--scatter-samples=3"],
}
READS = {command: sorted(defaults) for command, defaults in DEFAULTS.items()}


def parsed_type(key: str) -> type | None:
    """What the key's parser makes of "7": int and float keys fuzz as numbers."""
    try:
        return type(KEYS[key]("7"))
    except ValueError:
        return None

junk = st.sampled_from(
    ["", "nan", "inf", "-inf", "x", "1e-308", "5e-324", "0-1", "none", "1.5", "= 3", "1 2"]
)
small_ints = st.integers(-3, 40).map(str)
floats = st.one_of(st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True)).map(repr)
pairs = st.lists(
    st.tuples(st.integers(-1, 3), st.integers(-1, 3)), min_size=1, max_size=3
).map(lambda items: ",".join(f"{a}-{b}" for a, b in items))
words = st.sampled_from(["none", "path", "message", "both", "full", "silent"])


def value(key: str) -> st.SearchStrategy[str]:
    kind = parsed_type(key)
    if kind is int:
        return st.one_of(small_ints, small_ints, junk)
    if kind is float:
        return st.one_of(floats, floats, small_ints, junk)
    if key == "pairs":
        return st.one_of(pairs, junk)
    return st.one_of(words, junk)  # attack and traffic


malformed = st.sampled_from(
    ["K", "= 5", "K == 5", "# comment only", "   ", "[section]", "no_such_key = 1",
     "gamma = 0.1 # trailing comment", "\tH3\t=\t2", "é = 1", "K = 5 = 6", "mu=0"]
)


@st.composite
def config_runs(draw) -> tuple[str, str]:
    command = draw(st.sampled_from(sorted(FLAGS)))
    own = st.sampled_from(READS[command])
    other = st.sampled_from(sorted(KEYS))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["own", "own", "own", "other", "malformed"]))
        if kind == "malformed":
            lines.append(draw(malformed))
        else:
            key = draw(own if kind == "own" else other)
            lines.append(f"{key} = {draw(value(key))}")
    return command, "\n".join(lines) + "\n"


@settings(
    derandomize=True,
    max_examples=250,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(config_runs())
@example(("simulate", "attack = message\neta_msg = 1\nK = 40\nH2 = 4\nH3 = 4\n"))
@example(("overhead", "K = 1\nH3 = 0\n"))
@example(("figure2", "gamma = 0.9\nmu = nan\n"))
@example(("verify", "seed = -3\n"))
@example(("simulate", "T = 1\nloss_db = 0\n"))
@example(("overhead", "K = 1000000\nH3 = 100000\neta = 0.9\ntrials = 1\n"))
@example(("overhead", "K = 1" + "0" * 400 + "\nH3 = 0\ntrials = 1\n"))
@example(("overhead", "m = 5\neta = 0.1\n"))
@example(("figure2", "seed = -1\n"))
def test_config_files_exit_0_1_or_2_and_name_the_key_at_fault(tmp_path, run):
    command, text = run
    config = tmp_path / "run.cfg"
    config.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(config), *FLAGS[command]], stdout=io.StringIO())
    assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_CONFIG_ERROR), (run, err.getvalue())
    if code == EXIT_CONFIG_ERROR:
        assert NAMED.search(err.getvalue()), (run, err.getvalue())


def test_a_config_file_that_is_not_text_names_config(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"K = 5\n\xff\xfe = 1\n")
    assert main(["simulate", "--config", str(config)], stdout=io.StringIO()) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("error: option '--config': ")
