"""Numerical verification of the attacker-unitary constraints.

The general attack entangles a transiting qubit or path mode with an
environment (the attacker's probe plus everything else), modeled here as a
d-dimensional space.  Two families of checks:

* Message slots.  The attack unitary on qubit (x) environment decomposes
  into four d x d blocks U^ab.  Avoiding errors in the computational basis
  forces the off-diagonal blocks to zero; avoiding errors in the conjugate
  basis additionally forces U^00 = U^11.  The surviving form acts on the
  environment alone, so the probe state cannot depend on the qubit: zero
  disturbance implies zero leakage, verified here by exact matrix algebra.

* Path slots.  While a path packet is out, the environment evolves under
  the transit interactions on the travelling branch and under idle
  evolution on the retained branch.  The interference error probability is
  (1 - Re<R| idle' . transit |R>)/2 for the product mismatch between the
  two branches, and the attacker's ability to tell transmission from
  silence is the trace distance between the two branch states.  Equal
  branch products give zero on both counts; any distinguishability forces
  disturbance through the overlap identity
  disturbance >= (1 - sqrt(1 - distance^2)) / 2.

Inputs are plain arrays: a probe (the environment's initial state) is a
unit complex vector of length d, a message-slot attack a 2d x 2d unitary,
and a path round trip its four d x d unitaries ``(leg_out, leg_back,
idle_first, idle_second)``, the legs acting on the travelling branch and
the idles on the retained one over the same two cycles, with d from 2 to
32: the identities are dimension-independent, so desk-scale instances
verify them exactly.  The kernels score stacks of these on a leading
sample axis, each sample alone and bitwise the same whatever the stack
size; ``message_figures`` and ``round_trip_figures`` check one sample and
score it as a one-sample stack.  One sampler, ``haar_chunks``, draws
every random sample, a chunk at a time with one QR and one stacked
unitarity check per chunk.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_at_least

MAX_DIM = 32  # run_verification's largest dimension: memory grows as dim^2 per sample
UNITARITY_TOL = 1e-10
NORM_TOL = 1e-12
_CHUNK_ENTRIES = 1 << 16  # unitary entries per sampled chunk: 256 samples of 4 at d = 8

# The four message preparations; a same-basis measurement of _PREPARED[i] must not see _WRONG[i].
_PREPARED = np.array([[1, 0], [0, 1], [1, 1], [1, -1]]) / np.sqrt([1, 1, 2, 2])[:, np.newaxis]
_WRONG = _PREPARED[[1, 0, 3, 2]]


def _unitary(name: str, matrix: np.ndarray, ndim: int = 2) -> np.ndarray:
    """``matrix`` (a stack if ``ndim`` > 2) as a complex array, checked square and unitary."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != ndim or matrix.shape[-2] != matrix.shape[-1]:
        raise ValueError(f"{name} must be a square matrix, got shape {matrix.shape}")
    adjoint = np.swapaxes(matrix.conj(), -1, -2)
    deviation = np.abs(adjoint @ matrix - np.eye(matrix.shape[-1])).max()
    if deviation > UNITARITY_TOL:
        raise ValueError(f"{name} is not unitary (max deviation {deviation:.3e})")
    return matrix


def _probe(probe: np.ndarray, dim: int) -> np.ndarray:
    """``probe`` as a complex array, once it is checked to be a unit ``dim``-vector."""
    probe = np.asarray(probe, dtype=complex)
    if probe.shape != (dim,):
        raise ValueError(f"probe shape {probe.shape} does not match operator dimension {dim}")
    if abs(np.linalg.norm(probe) - 1.0) > NORM_TOL:
        raise ValueError("probe must have unit norm")
    return probe


def _dots(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-sample inner products of two vector stacks, each one BLAS dot as ``np.dot`` takes it."""
    return (left[..., np.newaxis, :] @ right[..., :, np.newaxis])[..., 0, 0]


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Norms of a stack of complex vectors, each summed as ``np.linalg.norm`` sums one vector."""
    return np.sqrt(_dots(vectors.real, vectors.real) + _dots(vectors.imag, vectors.imag))


def random_unitary(normals: np.ndarray) -> np.ndarray:
    """The Haar map: unitaries from normals of shape (..., 2, d, d), real then imaginary,
    as Q of one stacked QR of (real + i imag)/sqrt(2) with R's diagonal phases moved
    into Q (Mezzadri, Notices AMS 54(5), 2007)."""
    q, r = np.linalg.qr((normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / np.sqrt(2.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., np.newaxis, :]


def haar_chunks(
    rng: np.random.Generator, samples: int, k: int, dim: int, held: int | None = None
):
    """``samples`` draws in unchecked chunks ``(unitaries, probes)``, (n, k, dim, dim) and
    (n, dim): per sample k Haar unitaries, then a unit probe, each real parts first.  A
    chunk is one normal block of samples that hold about ``_CHUNK_ENTRIES`` matrix entries
    in all, ``held`` per sample in the caller's check or else its k dim^2 unitary entries.
    Its normals are read in that order, so the draws do not depend on the chunk size."""
    size = 2 * k * dim * dim
    per_chunk = max(1, _CHUNK_ENTRIES // (held or k * dim * dim))
    for done in range(0, samples, per_chunk):
        normals = rng.normal(size=(min(per_chunk, samples - done), size + 2 * dim))
        probes = normals[:, size : size + dim] + 1j * normals[:, size + dim :]
        unitaries = random_unitary(normals[:, :size].reshape(-1, k, 2, dim, dim))
        yield unitaries, probes / _norms(probes)[:, np.newaxis]


def build_constrained_unitary(W: np.ndarray) -> np.ndarray:
    """The only message-slot attack surviving both basis constraints, diag(W, W):
    the qubit untouched.  ``W`` may be a stack; each of its matrices is checked."""
    W = _unitary("W", W, max(2, np.ndim(W)))
    zero = np.zeros_like(W)
    return np.block([[W, zero], [zero, W]])


def _trips(drawn: np.ndarray, closed: bool) -> tuple[np.ndarray, ...]:
    """Round trips ``(leg_out, leg_back, idle_first, idle_second)`` from a (n, k, d, d) Haar
    stack, checked here: its four unitaries, or with ``closed`` its ``(idle_first, idle_second,
    leg_out)`` and the ``leg_back`` making ``leg_back @ leg_out == idle_second @ idle_first``."""
    drawn = tuple(np.moveaxis(_unitary("Haar sample", drawn, 4), 1, 0))
    if not closed:
        return drawn
    idle_first, idle_second, leg_out = drawn
    leg_back = idle_second @ idle_first @ np.swapaxes(leg_out.conj(), -1, -2)
    return leg_out, leg_back, idle_first, idle_second


def message_figures(U: np.ndarray, probe: np.ndarray) -> tuple[float, float]:
    """Disturbance and leakage of one message-slot attack.

    The disturbance is the same-basis error probability averaged over the
    four message preparations; the leakage is the largest trace distance
    between the probe states left by a same-basis input pair.
    """
    U = _unitary("message attack", U)
    if U.shape[0] % 2:
        raise ValueError(f"message attack must be 2d x 2d, got shape {U.shape}")
    return tuple(float(f[0]) for f in _message(U[None], _probe(probe, U.shape[0] // 2)[None]))


def _message(U: np.ndarray, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``message_figures`` per sample of checked stacks: U (n, 2d, 2d), probe (n, d)."""
    n, d = probe.shape
    inputs = (_PREPARED[..., np.newaxis] * probe[:, np.newaxis, np.newaxis]).reshape(n, 4, 2 * d)
    out = (U[:, np.newaxis] @ inputs[..., np.newaxis]).reshape(n, 4, 2, d)  # per preparation
    wrong_amp = (_WRONG.conj()[:, :, np.newaxis] * out).sum(axis=-2)
    disturbance = (wrong_amp.real**2 + wrong_amp.imag**2).sum(axis=-1).sum(axis=-1) / 4.0
    rho = np.swapaxes(out, -1, -2) @ out.conj()  # the probe's state after each preparation
    return disturbance, trace_distance(rho[:, 0::2], rho[:, 1::2]).max(axis=-1)


def round_trip_figures(trip: Sequence[np.ndarray], probe: np.ndarray) -> tuple[float, float]:
    """Disturbance and indistinguishability of one path round trip.

    ``trip`` is ``(leg_out, leg_back, idle_first, idle_second)``.  The
    disturbance is the wrong-port probability of the interference readout;
    the indistinguishability is the trace distance between the environment
    after a transmission and after silence, computed as the norm of the
    component of one state orthogonal to the other: sqrt(1 - |overlap|^2)
    for unit vectors, but accurate near zero distance.
    """
    names = ("leg_out", "leg_back", "idle_first", "idle_second")
    trip = [_unitary(name, matrix)[np.newaxis] for name, matrix in zip(names, trip)]
    return tuple(float(f[0]) for f in _round_trip(*trip, _probe(probe, trip[0].shape[-1])[None]))


def _round_trip(leg_out, leg_back, idle_first, idle_second, probe) -> tuple[np.ndarray, np.ndarray]:
    """``round_trip_figures`` per sample of checked stacks: (n, d, d) legs, (n, d) probes."""
    probe = probe[..., np.newaxis]
    retained = ((idle_second @ idle_first) @ probe)[..., 0]
    travelling = ((leg_back @ leg_out) @ probe)[..., 0]
    overlap = _dots(retained.conj(), travelling)
    orthogonal = travelling - overlap[..., np.newaxis] * retained
    return (1.0 - overlap.real) / 2.0, np.minimum(1.0, _norms(orthogonal))


def tradeoff_scatter(samples: int, d: int, seed: int) -> list[tuple[float, float]]:
    """Disturbance/indistinguishability pairs for random unconstrained attacks: per sample
    four Haar unitaries, then a probe, drawn and scored a chunk at a time.  A chunk is sized
    by what a sample holds at its peak, the draw's QR and the round-trip check: 25 d^2 entries."""
    check_at_least("samples", samples, 1)
    check_at_least("d", d, 2)
    points = []
    for unitaries, probes in haar_chunks(np.random.default_rng(seed), samples, 4, d, 25 * d * d):
        figures = _round_trip(*_trips(unitaries, closed=False), probes)
        points += zip(*(figure.tolist() for figure in figures))
    return points


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Half the trace norm of the difference of two density operators, or of two stacks."""
    return np.abs(np.linalg.eigvalsh(rho - sigma)).sum(axis=-1) / 2.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool


def controlled_flip_unitary(probe_dim: int = 2) -> np.ndarray:
    """Negative control: the qubit flips one probe level pair when it is |1>."""
    flip = np.eye(probe_dim, dtype=complex)
    flip[[0, 1]] = flip[[1, 0]]
    eye = np.eye(probe_dim, dtype=complex)
    zero = np.zeros((probe_dim, probe_dim), dtype=complex)
    return np.block([[eye, zero], [zero, flip]])


def swap_unitary() -> np.ndarray:
    """Negative control: full swap of the qubit with a two-level probe."""
    return np.eye(4, dtype=complex)[[0, 2, 1, 3]]  # |a b> -> |b a>


def check_verification(dim: int, samples: int, scatter_samples: int) -> None:
    """The rules of :func:`run_verification`'s sizes, named as it names them."""
    check_at_least("dim", dim, 2)
    if dim > MAX_DIM:
        raise InputError("dim", f"must be at most {MAX_DIM}, got {dim}")
    check_at_least("samples", samples, 1)
    check_at_least("scatter_samples", scatter_samples, 1)


def run_verification(
    dim: int = 4,
    samples: int = 100,
    scatter_samples: int = 1000,
    seed: int = 0,
    enforce_return_constraint: bool = True,
) -> tuple[list[CheckResult], list[tuple[float, float]]]:
    """Run every constraint check; ``enforce_return_constraint=False`` is a
    negative-control hook that builds the "constrained" round trips without
    actually satisfying the condition, so the zero-disturbance checks fail."""
    check_verification(dim, samples, scatter_samples)
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    def record(name: str, worst: float, tolerance: float) -> None:
        checks.append(CheckResult(name, bool(worst <= tolerance)))

    def record_worst(names: tuple[str, str], chunks) -> None:
        worst = np.zeros(2)  # running maxima: memory does not grow with samples
        for figures in chunks:
            worst = np.maximum(worst, np.max(figures, axis=-1))
        for name, value in zip(names, worst):
            record(name, value, 1e-10)

    # Chunks are sized by what a sample's check holds.  The message check holds diag(W, W),
    # four probe states and two differences, 10 d^2 entries; diag(W, W) is unitary exactly
    # when W is, which build_constrained_unitary checks.
    record_worst(
        ("constrained_message_zero_disturbance", "constrained_message_zero_leakage"),
        (_message(build_constrained_unitary(W[:, 0]), probes)
         for W, probes in haar_chunks(rng, samples, 1, dim, held=10 * dim * dim)),
    )
    # The link check holds its k unitaries, their adjoints and products: 3 k d^2 entries.
    k = 3 if enforce_return_constraint else 4
    record_worst(
        ("constrained_link_zero_disturbance", "constrained_link_zero_indistinguishability"),
        (_round_trip(*_trips(drawn, enforce_return_constraint), probes)
         for drawn, probes in haar_chunks(rng, samples, k, dim, held=3 * k * dim * dim)),
    )

    ground2 = np.eye(2)[0]
    identity = message_figures(build_constrained_unitary(np.eye(dim)), np.eye(dim)[0])[0]
    identity = max(identity, *round_trip_figures([np.eye(2)] * 4, ground2))
    record("identity_attack_zeros", identity, 1e-12)

    flip = message_figures(controlled_flip_unitary(), ground2)[0]
    record("controlled_flip_disturbance_quarter", abs(flip - 0.25), 1e-12)
    record("swap_disturbance_half", abs(message_figures(swap_unitary(), ground2)[0] - 0.5), 1e-12)

    scatter = tradeoff_scatter(scatter_samples, dim, seed + 1)
    points = np.array(scatter)
    disturbance, distance = points.T
    record("no_leak_without_disturbance", (disturbance_floor(distance) - disturbance).max(), 1e-9)
    record("outputs_in_unit_interval", np.abs(points - 0.5).max() - 0.5, 1e-9)

    return checks, scatter


def disturbance_floor(distance):
    """Minimum round-trip disturbance compatible with a given distinguishability (elementwise)."""
    return (1.0 - np.sqrt(np.maximum(0.0, 1.0 - distance**2))) / 2.0
