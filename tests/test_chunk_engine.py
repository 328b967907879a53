"""The chunk engine against the per-slot loop, its memory, and the escape law.

``run_simulation`` runs every pair on the chunk engine.  Patching it to
the scalar per-slot loop of ``oracles`` runs the same config both ways,
and the two must agree exactly: every ``PairResult`` field, Eve's ledger
and the CSV bytes.
"""

from __future__ import annotations

import io
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from decoyroute import cli, protocol
from decoyroute.adversary import AttackConfig
from decoyroute.channel import ChannelModel
from decoyroute.config import ATTACKS
from decoyroute.protocol import max_decoys_per_pair, run_simulation

import oracles

PAIRS = ["0-1", "2-1", "1-0"]


def simulate(argv: list[str], *, per_slot: bool, chunk: int) -> tuple[str, protocol.SimulationResult]:
    """The CSV and the result of one ``simulate`` run on the chosen engine."""
    results = []

    def recorded(**kwargs):
        results.append(run_simulation(**kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_simulation", recorded)
        patch.setattr(protocol, "SLOT_CHUNK", chunk)
        if per_slot:
            patch.setattr(protocol, "_run_pair_by_chunk", oracles.run_pair_by_slot)
        out = io.StringIO()
        assert cli.main(argv, stdout=out) == 0, argv
    (result,) = results
    return out.getvalue(), result


@st.composite
def runs(draw) -> tuple[list[str], int]:
    K = draw(st.integers(1, 300))
    cap = max_decoys_per_pair(K)
    H2 = draw(st.integers(0, cap))
    H3 = draw(st.integers(0, cap - H2))
    unit = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    attack = draw(st.sampled_from(list(ATTACKS)))
    pairs = PAIRS[: draw(st.integers(1, len(PAIRS)))]
    argv = [
        "simulate", f"--K={K}", f"--H2={H2}", f"--H3={H3}",
        f"--T={draw(unit)!r}", f"--gamma={draw(unit)!r}", f"--mu={draw(unit)!r}",
        f"--attack={attack}", f"--eta-path={draw(unit)!r}", f"--eta-msg={draw(unit)!r}",
        f"--traffic={draw(st.sampled_from(['full', 'silent']))}",
        "--num-nodes=3", f"--pairs={','.join(pairs)}",
        f"--seed={draw(st.integers(0, 2**32))}",
    ]
    # Small chunks split payload gaps and runs of decoys.
    chunk = draw(st.sampled_from([1, 2, 3, 5, 8, 64, protocol.SLOT_CHUNK]))
    return argv, chunk


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(runs())
@example((["simulate", "--K=300", "--H2=40", "--H3=40", "--attack=path", "--eta-path=0.5",
           "--T=0.8", "--gamma=0.05", "--mu=0.05", "--seed=3"], 7))
@example((["simulate", "--K=300", "--H2=60", "--H3=60", "--attack=both", "--eta-path=0.5",
           "--eta-msg=1.0", "--T=0.8", "--gamma=0.05", "--mu=0.05", "--seed=3"], 3))
def test_chunk_engine_equals_the_per_slot_loop(case):
    argv, chunk = case
    csv, chunked = simulate(argv, per_slot=False, chunk=chunk)
    csv_by_slot, by_slot = simulate(argv, per_slot=True, chunk=chunk)
    assert csv == csv_by_slot
    assert chunked.pairs == by_slot.pairs
    assert oracles.ledger_rows(chunked.eavesdropper.ledger) == oracles.ledger_rows(
        by_slot.eavesdropper.ledger
    )
    for pair in chunked.pairs:
        fields = (pair.type1_slots, pair.type1_delivered, pair.eve_learned_type1)
        assert all(type(value) is int for value in fields + tuple(vars(pair.stats).values()))
    ledger = chunked.eavesdropper.ledger
    for entry in [*ledger.learned_endpoints, *ledger.learned_bits]:
        assert all(type(value) is int for value in entry)


def test_chunk_engine_equals_the_per_slot_loop_at_scale():
    # Several full chunks, both attacks, loss and noise: every outcome kind occurs.
    argv = ["simulate", "--K=300000", "--H2=20000", "--H3=20000", "--T=0.8", "--gamma=0.05",
            "--mu=0.05", "--attack=both", "--eta-path=0.3", "--eta-msg=0.3", "--seed=11"]
    csv, chunked = simulate(argv, per_slot=False, chunk=protocol.SLOT_CHUNK)
    csv_by_slot, by_slot = simulate(argv, per_slot=True, chunk=protocol.SLOT_CHUNK)
    assert csv == csv_by_slot
    assert chunked.pairs == by_slot.pairs
    assert oracles.ledger_rows(chunked.eavesdropper.ledger) == oracles.ledger_rows(
        by_slot.eavesdropper.ledger
    )
    assert len(chunked.eavesdropper.ledger.learned_endpoints) > 40_000
    assert len(chunked.eavesdropper.ledger.learned_bits) > 40_000


def test_a_message_attack_runs_every_payload_through_the_slot_runner(monkeypatch):
    calls = []
    runner = protocol.run_type1_slot

    def counted(*args):
        calls.append(args)
        return runner(*args)

    monkeypatch.setattr(protocol, "run_type1_slot", counted)
    K = 2000
    kwargs = dict(
        K=K, h2_per_pair=50, h3_per_pair=50, channel=ChannelModel(T=0.9), seed=5,
        node_pairs=[(0, 1), (1, 0)],
    )
    result = run_simulation(attack=AttackConfig(eta_msg=0.2), **kwargs)
    payloads = [p.type1_slots for p in result.pairs]
    assert len(calls) == sum(payloads) > 0
    # Every tap sits on a slot's forward cycle, and some on payloads of no pair's decoy cycle.
    decoy_cycles = [decoys.cycle.tolist() for decoys in result.schedule.assignments.values()]
    payload_cycles = [oracles.greedy_payload_cycles(K, cycles) for cycles in decoy_cycles]
    assert [len(cycles) for cycles in payload_cycles] == payloads
    tapped = {cycle for cycle, _, _ in result.eavesdropper.ledger.learned_bits}
    any_decoy, any_payload = set().union(*decoy_cycles), set().union(*payload_cycles)
    assert tapped <= any_decoy | any_payload
    assert tapped & (any_payload - any_decoy)
    calls.clear()
    # The same run without a message attack takes the chunk engine: no slot runner call.
    quiet = run_simulation(attack=AttackConfig(eta_msg=0.0), **kwargs)
    assert calls == []
    assert [p.type1_slots for p in quiet.pairs] == payloads


def _peak_bytes(K: int, attack: AttackConfig) -> tuple[int, int]:
    """The tracemalloc peak of one run, and the rows of its ledger."""
    tracemalloc.start()
    try:
        result = run_simulation(
            K=K, h2_per_pair=1000, h3_per_pair=1000, channel=ChannelModel(T=0.9, gamma=0.01),
            attack=attack, seed=8, traffic="full",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ledger = result.eavesdropper.ledger
    return peak, len(ledger.learned_endpoints) + len(ledger.learned_bits)


def test_run_simulation_memory_does_not_grow_with_K():
    # Ten times the cycles, the same chunk-sized working set (about 1 MB
    # without an attack), Eve's blocks and their carry-over included under
    # both attacks; only the ledger grows, by 24 bytes a packed row.  A
    # first run takes the one-time set-up out of the comparison.
    for attack in (AttackConfig(), AttackConfig(eta_path=0.5, eta_msg=0.5)):
        _peak_bytes(20_000, attack)
        (small, small_rows), (large, large_rows) = (
            _peak_bytes(K, attack) for K in (200_000, 2_000_000)
        )
        allowed = 24 * (large_rows - small_rows) + (1 << 20)
        assert large - small <= allowed, (attack, small, large, allowed)


# Family-wise false-failure probability of the two escape-law checks.
ESCAPE_FALSE_FAILURE = 1e-6


@pytest.mark.parametrize("eta", [0.1, 0.3])
def test_undetected_fraction_follows_the_bernoulli_escape_law(eta):
    # Noiseless links, no Type 2, H3 path decoys and zero thresholds: a run
    # goes undetected exactly when no tapped decoy errs.
    seeds, H3 = 3000, 20
    undetected = sum(
        not run_simulation(
            K=400, h2_per_pair=0, h3_per_pair=H3, channel=ChannelModel(),
            attack=AttackConfig(eta_path=eta), seed=seed,
            traffic="silent", threshold2=0.0, threshold3=0.0,
        ).detected
        for seed in range(seeds)
    )
    p = oracles.bernoulli_escape(H3, eta)
    tol = oracles.bernstein_halfwidth(seeds, p, ESCAPE_FALSE_FAILURE / 2)
    assert abs(undetected / seeds - p) <= tol, (undetected / seeds, p, tol)
