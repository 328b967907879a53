"""Metamorphic laws of ``simulate``: relations between runs that hold without an oracle.

- Appending a node pair leaves the rows of the pairs before it byte-identical:
  each pair's schedule and streams are keyed by its own index.  Checked with
  no attack and a path attack (the chunk engine) and with both attacks (the
  per-slot loop, which a message rate above zero selects).
- ``--attack none`` ignores the rates: any ``--eta-path``/``--eta-msg`` prints
  the same bytes as rates of zero.
"""

from __future__ import annotations

import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from decoyroute.cli import EXIT_OK, main
from decoyroute.protocol import max_decoys_per_pair

SETTINGS = settings(
    derandomize=True,
    max_examples=80,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
NODES = 4
unit = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
node_pairs = st.lists(
    st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)).filter(lambda p: p[0] != p[1]),
    min_size=2,
    max_size=4,
    unique=True,
)


def simulate(*argv: str) -> str:
    out = io.StringIO()
    assert main(["simulate", f"--num-nodes={NODES}", *argv], stdout=out) == EXIT_OK, argv
    return out.getvalue()


@st.composite
def runs(draw) -> list[str]:
    """A run's flags apart from its pairs and its attack."""
    K = draw(st.integers(1, 300))
    cap = max_decoys_per_pair(K)
    H2 = draw(st.integers(0, cap))
    H3 = draw(st.integers(0, cap - H2))
    return [
        f"--K={K}", f"--H2={H2}", f"--H3={H3}", f"--seed={draw(st.integers(0, 2**32))}",
        f"--T={draw(unit)!r}", f"--gamma={draw(unit)!r}", f"--mu={draw(unit)!r}",
        f"--traffic={draw(st.sampled_from(['full', 'silent']))}",
    ]


@SETTINGS
@given(
    runs(),
    node_pairs,
    st.sampled_from(["none", "path", "both"]),
    unit,
    st.floats(0.05, 1.0),
)
def test_appending_a_pair_keeps_the_earlier_rows(flags, pairs, attack, eta_path, eta_msg):
    attack_flags = [f"--attack={attack}", f"--eta-path={eta_path!r}", f"--eta-msg={eta_msg!r}"]

    def rows(count: int) -> list[str]:
        listed = ",".join(f"{a}-{b}" for a, b in pairs[:count])
        text = simulate(*flags, *attack_flags, f"--pairs={listed}")
        return text.split("\n\n")[0].splitlines()[1:]

    shorter, longer = rows(len(pairs) - 1), rows(len(pairs))
    assert len(longer) == len(pairs)
    assert longer[:-1] == shorter


@SETTINGS
@given(runs(), node_pairs, unit, unit)
def test_no_attack_ignores_the_rates(flags, pairs, eta_path, eta_msg):
    listed = f"--pairs={','.join(f'{a}-{b}' for a, b in pairs)}"
    rated = simulate(*flags, listed, "--attack=none", f"--eta-path={eta_path!r}",
                     f"--eta-msg={eta_msg!r}")
    assert rated == simulate(*flags, listed, "--attack=none", "--eta-path=0", "--eta-msg=0")
