"""Metamorphic laws of ``simulate``: relations between runs that hold without an oracle.

- Appending a node pair leaves the rows of the pairs before it byte-identical:
  each pair's schedule and streams are keyed by its own index.  Checked with
  no attack, a path attack and both attacks (the last walks Eve's draws).
- ``--attack none`` ignores the rates: any ``--eta-path``/``--eta-msg`` prints
  the same bytes as rates of zero.
- A lossless, noiseless link without an attack makes no decoy err: every pair
  reports 0 Type 2 and 0 Type 3 errors, whatever the draws.
- Without a message attack, the path rate moves no Type 2 error and no
  delivered payload: a path tap reads no channel or measurement uniform.
- Without a path attack, the message rate moves no Type 3 trial or error and
  no payload count: a message tap reads only Eve's stream, and a resent
  decoy's flip comes from the receiver's own stream.
"""

from __future__ import annotations

import io

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from decoyroute.adversary import AttackConfig
from decoyroute.channel import ChannelModel
from decoyroute.cli import EXIT_OK, main
from decoyroute.protocol import max_decoys_per_pair, run_simulation

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


@SETTINGS
@given(runs(), node_pairs)
def test_a_perfect_link_without_an_attack_makes_no_decoy_err(flags, pairs):
    listed = f"--pairs={','.join(f'{a}-{b}' for a, b in pairs)}"
    text = simulate(*flags, listed, "--T=1", "--gamma=0", "--mu=0", "--attack=none")
    rows = text.split("\n\n")[0].splitlines()
    header = rows[0].split(",")
    errors = [header.index("type2_errors"), header.index("type3_errors")]
    assert len(rows) == len(pairs) + 1
    for row in rows[1:]:
        cells = row.split(",")
        assert [cells[i] for i in errors] == ["0", "0"], row


def library_runs(flags: list[str], pairs, attacks: list[AttackConfig]) -> list[list]:
    """The pairs of the library run of ``flags`` under each attack in turn.

    The CSV has no delivered-payload column, so the laws read the library.
    """
    value = dict(flag[2:].split("=") for flag in flags)
    kwargs = dict(
        K=int(value["K"]), node_pairs=pairs, h2_per_pair=int(value["H2"]),
        h3_per_pair=int(value["H3"]), seed=int(value["seed"]), traffic=value["traffic"],
        channel=ChannelModel(T=float(value["T"]), gamma=float(value["gamma"]),
                             mu=float(value["mu"])),
    )
    return [run_simulation(attack=attack, **kwargs).pairs for attack in attacks]


@SETTINGS
@given(
    runs(),
    node_pairs,
    st.lists(unit, min_size=2, max_size=2),
)
def test_eta_path_moves_no_type2_error_and_no_delivery(flags, pairs, eta_paths):
    outcomes = [
        [(pair.stats.type2_errors, pair.type1_delivered) for pair in run]
        for run in library_runs(flags, pairs, [AttackConfig(eta_path=eta) for eta in eta_paths])
    ]
    assert outcomes[0] == outcomes[1]


@SETTINGS
@given(
    runs(),
    node_pairs,
    st.lists(unit, min_size=2, max_size=2),
)
@example(
    ["--K=4000", "--H2=200", "--H3=200", "--seed=12345", "--T=0.8", "--gamma=0.05",
     "--mu=0.02", "--traffic=full"],
    [(0, 1)],
    [0.0, 0.5],
)
def test_eta_msg_moves_no_type3_outcome_and_no_payload_count(flags, pairs, eta_msgs):
    outcomes = [
        [
            (pair.stats.type3_trials, pair.stats.type3_errors, pair.type1_slots,
             pair.type1_delivered)
            for pair in run
        ]
        for run in library_runs(flags, pairs, [AttackConfig(eta_msg=eta) for eta in eta_msgs])
    ]
    assert outcomes[0] == outcomes[1]
