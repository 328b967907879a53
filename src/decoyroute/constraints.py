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
the idles on the retained one over the same two cycles.  Each kernel
checks its inputs once; ``tradeoff_scatter`` checks each chunk of its
Haar samples in one stacked test, and ``run_verification`` checks each
constrained message attack once, through ``build_constrained_unitary``.

Dimensions stay small (2..32): the identities are dimension-independent,
so desk-scale instances verify them exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_at_least

MAX_DIM = 32  # run_verification's largest dimension: memory grows as dim^2 per sample
UNITARITY_TOL = 1e-10
NORM_TOL = 1e-12
_SCATTER_CHUNK = 256  # samples per stacked draw and QR

_SQRT_HALF = 1.0 / np.sqrt(2.0)
# The four message preparations as qubit amplitude pairs, with the state
# a same-basis measurement must not observe.
_BB84_CASES = (
    (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    (np.array([0.0, 1.0]), np.array([1.0, 0.0])),
    (np.array([_SQRT_HALF, _SQRT_HALF]), np.array([_SQRT_HALF, -_SQRT_HALF])),
    (np.array([_SQRT_HALF, -_SQRT_HALF]), np.array([_SQRT_HALF, _SQRT_HALF])),
)


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
    if probe.ndim != 1:
        raise ValueError(f"probe must be a vector, got shape {probe.shape}")
    if probe.shape[0] != dim:
        raise ValueError(f"probe length {probe.shape[0]} does not match operator dimension {dim}")
    if abs(np.linalg.norm(probe) - 1.0) > NORM_TOL:
        raise ValueError("probe must have unit norm")
    return probe


def random_probe(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vector from a normalised complex Gaussian draw."""
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unitary from QR of a complex Gaussian matrix, with phases fixed."""
    return _haar_unitaries(rng.normal(size=(dim, dim)), rng.normal(size=(dim, dim)))


def _haar_unitaries(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """Q of the QR of (real + i imag)/sqrt(2), stacked, with R's diagonal made positive."""
    q, r = np.linalg.qr((real + 1j * imag) / np.sqrt(2.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., np.newaxis, :]


def build_constrained_unitary(W: np.ndarray) -> np.ndarray:
    """The only message-slot attack surviving both basis constraints: qubit untouched."""
    W = _unitary("W", W)
    zero = np.zeros_like(W)
    return np.block([[W, zero], [zero, W]])


def constrained_link_pair(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Random round trip ``(leg_out, leg_back, idle_first, idle_second)`` satisfying
    the zero-disturbance condition ``leg_back @ leg_out == idle_second @ idle_first``."""
    idle_first = random_unitary(dim, rng)
    idle_second = random_unitary(dim, rng)
    leg_out = random_unitary(dim, rng)
    leg_back = idle_second @ idle_first @ leg_out.conj().T
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
    return _message(U, _probe(probe, U.shape[0] // 2))


def _message(U, probe) -> tuple[float, float]:
    """``message_figures`` on inputs already checked."""
    disturbance = 0.0
    marginals = []
    for qubit_in, wrong in _BB84_CASES:
        out = (U @ np.kron(qubit_in, probe)).reshape(2, -1)
        wrong_amp = wrong.conj() @ out
        disturbance += float(np.vdot(wrong_amp, wrong_amp).real)
        marginals.append(out.T @ out.conj())
    leakage = max(trace_distance(*marginals[:2]), trace_distance(*marginals[2:]))
    return disturbance / 4.0, leakage


def round_trip_figures(trip: Sequence[np.ndarray], probe: np.ndarray) -> tuple[float, float]:
    """Disturbance and indistinguishability of one path round trip.

    ``trip`` is ``(leg_out, leg_back, idle_first, idle_second)``.  The
    disturbance is the wrong-port probability of the interference readout;
    the indistinguishability is the trace distance between the environment
    after a transmission and after silence.  For unit vectors that distance
    equals sqrt(1 - |overlap|^2); computing it as the norm of the component
    of one state orthogonal to the other is the same number but stays
    accurate near zero distance.
    """
    names = ("leg_out", "leg_back", "idle_first", "idle_second")
    trip = [_unitary(name, matrix) for name, matrix in zip(names, trip)]
    return _round_trip(*trip, _probe(probe, trip[0].shape[0]))


def _round_trip(leg_out, leg_back, idle_first, idle_second, probe) -> tuple[float, float]:
    """``round_trip_figures`` on inputs already checked."""
    retained = (idle_second @ idle_first) @ probe
    travelling = (leg_back @ leg_out) @ probe
    overlap = np.vdot(retained, travelling)
    orthogonal = travelling - overlap * retained
    return float((1.0 - overlap.real) / 2.0), float(min(1.0, np.linalg.norm(orthogonal)))


def tradeoff_scatter(
    samples: int, d: int, seed: int
) -> list[tuple[float, float]]:
    """Disturbance/indistinguishability pairs for random unconstrained attacks.

    Per sample: four unitaries, then a probe; each chunk is one draw, QR and unitarity check."""
    check_at_least("samples", samples, 1)
    check_at_least("d", d, 2)
    rng = np.random.default_rng(seed)
    points = []
    for done in range(0, samples, _SCATTER_CHUNK):
        normals = rng.normal(size=(min(_SCATTER_CHUNK, samples - done), 8 * d * d + 2 * d))
        parts = normals[:, : 8 * d * d].reshape(-1, 4, 2, d, d)
        unitaries = _unitary("Haar sample", _haar_unitaries(parts[:, :, 0], parts[:, :, 1]), 4)
        for trip, probe_normals in zip(unitaries, normals[:, 8 * d * d :]):
            state = probe_normals[:d] + 1j * probe_normals[d:]
            points.append(_round_trip(*trip, state / np.linalg.norm(state)))
    return points


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of the difference of two density operators."""
    eigenvalues = np.linalg.eigvalsh(rho - sigma)
    return float(np.abs(eigenvalues).sum() / 2.0)


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
        checks.append(CheckResult(name, worst <= tolerance))

    worst_d = worst_l = 0.0
    for _ in range(samples):
        # diag(W, W) is unitary exactly when W is, which build_constrained_unitary checks.
        U = build_constrained_unitary(random_unitary(dim, rng))
        disturbance, leakage = _message(U, random_probe(dim, rng))
        worst_d = max(worst_d, disturbance)
        worst_l = max(worst_l, leakage)
    record("constrained_message_zero_disturbance", worst_d, 1e-10)
    record("constrained_message_zero_leakage", worst_l, 1e-10)

    worst_d = worst_i = 0.0
    for _ in range(samples):
        if enforce_return_constraint:
            trip = constrained_link_pair(dim, rng)
        else:
            trip = [random_unitary(dim, rng) for _ in range(4)]
        disturbance, distance = round_trip_figures(trip, random_probe(dim, rng))
        worst_d = max(worst_d, disturbance)
        worst_i = max(worst_i, distance)
    record("constrained_link_zero_disturbance", worst_d, 1e-10)
    record("constrained_link_zero_indistinguishability", worst_i, 1e-10)

    ground2 = np.eye(2)[0]
    identity_worst = max(
        message_figures(build_constrained_unitary(np.eye(dim)), np.eye(dim)[0])[0],
        *round_trip_figures([np.eye(2)] * 4, ground2),
    )
    record("identity_attack_zeros", identity_worst, 1e-12)

    record(
        "controlled_flip_disturbance_quarter",
        abs(message_figures(controlled_flip_unitary(), ground2)[0] - 0.25),
        1e-12,
    )
    record(
        "swap_disturbance_half",
        abs(message_figures(swap_unitary(), ground2)[0] - 0.5),
        1e-12,
    )

    scatter = tradeoff_scatter(scatter_samples, dim, seed + 1)
    floor_violation = 0.0
    out_of_range = 0.0
    for disturbance, distance in scatter:
        floor_violation = max(floor_violation, disturbance_floor(distance) - disturbance)
        out_of_range = max(
            out_of_range,
            -disturbance,
            disturbance - 1.0,
            -distance,
            distance - 1.0,
        )
    record("no_leak_without_disturbance", floor_violation, 1e-9)
    record("outputs_in_unit_interval", out_of_range, 1e-9)

    return checks, scatter


def disturbance_floor(distance: float) -> float:
    """Minimum round-trip disturbance compatible with a given distinguishability."""
    return (1.0 - np.sqrt(max(0.0, 1.0 - distance**2))) / 2.0
