"""CLI fuzz: generated flag values for every subcommand.

Whatever the flags, a run ends with exit 0, 1 or 2: an internal error
(exit 3) on user input is a bug.  Every exit 2 names the config key or the
option at fault.  Each command starts from small sizes (at most 40 cycles,
trials or steps, dimension 2), which any generated flag may override.  The
flags of each command, and the kind of value each takes, come from the
config tables, so a new key is fuzzed as soon as it exists.
"""

from __future__ import annotations

import contextlib
import io
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from decoyroute.cli import EXIT_CONFIG_ERROR, EXIT_OK, EXIT_VERIFY_FAILED, main
from decoyroute.config import DEFAULTS, KEYS

# A ConfigError names "config key 'K'" or "option '--config'"; argparse
# names "argument --steps".
NAMED = re.compile(r"config key '\w+'|option '--[\w-]+'|argument --[\w-]+")

BASE = {
    "simulate": ["--K=40", "--H2=4", "--H3=4"],
    "overhead": ["--K=40", "--H3=8", "--trials=40"],
    "figure2": ["--steps=40"],
    "verify": ["--dim=2", "--samples=2", "--scatter-samples=3"],
}
OPTIONS = {command: sorted(defaults) for command, defaults in DEFAULTS.items()}


def parsed_type(key: str) -> type | None:
    """What the key's parser makes of "7": int and float keys fuzz as numbers."""
    try:
        return type(KEYS[key]("7"))
    except ValueError:
        return None


junk = st.sampled_from(["", "nan", "inf", "-inf", "x", "1e-308", "5e-324", "0-1", "none"])
ints = st.integers(-3, 40).map(str)
floats = st.one_of(
    st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True)
).map(repr)
pair_lists = st.lists(
    st.tuples(st.integers(-1, 4), st.integers(-1, 4)), min_size=1, max_size=4
).map(lambda pairs: ",".join(f"{a}-{b}" for a, b in pairs))
bad_pair_lists = st.sampled_from(["0-0", "0-1,0-1", "1-", "-", "a-b", "0-1-2", ",", "0-1,,1-0"])
choices = st.sampled_from(["none", "path", "message", "both", "full", "silent"])


def values(option: str) -> st.SearchStrategy[str]:
    kind = parsed_type(option)
    if kind is int:
        return st.one_of(ints, ints, ints, junk)
    if kind is float:
        return st.one_of(floats, floats, ints, junk)
    if option == "pairs":
        return st.one_of(pair_lists, bad_pair_lists, junk)
    return st.one_of(choices, junk)  # attack and traffic


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = draw(st.lists(st.sampled_from(OPTIONS[command]), max_size=5, unique=True))
    flags = [f"--{option.replace('_', '-')}={draw(values(option))}" for option in options]
    return [command, *BASE[command], *flags]


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(command_lines())
@example(["simulate", "--K=100", "--H2=0", "--H3=10", "--mu=0.9"])
@example(["overhead", "--K=30", "--trials=10", "--eta-max=1e-308"])
@example(["overhead", "--K=30", "--trials=10", "--epsilon=5e-324"])
# A vacuous S8 bound (eta >= 1/2) at large K overflows a float.
@example(["overhead", "--K=1000000", "--H3=100000", "--eta=0.9", "--trials=1"])
@example(["overhead", "--K=1000000000", "--H3=0", "--eta=0.5", "--trials=1"])
@example(["overhead", f"--K={2**63}", "--H3=0", "--eta=0.75", "--trials=1"])
@example(["overhead", "--K=1" + "0" * 400, "--H3=0", "--trials=1"])
# A binary64 eta * K past 2**53 lands outside [0, K] unless clamped.
@example(["overhead", f"--K={2**63 - 1}", "--H3=0", "--eta=1", "--trials=1"])
# An overlap min(H3, m) just past its cap of 1e6.
@example(["overhead", "--K=4000000", "--H3=1000001", "--m=1000001", "--trials=1"])
@example(["verify", "--dim=33"])
def test_cli_exits_0_1_or_2_and_names_the_key_at_fault(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv, stdout=io.StringIO())
        except SystemExit as exc:  # argparse rejected the flags
            code = exc.code
    assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_CONFIG_ERROR), (argv, err.getvalue())
    if code == EXIT_CONFIG_ERROR:
        assert NAMED.search(err.getvalue()), (argv, err.getvalue())
