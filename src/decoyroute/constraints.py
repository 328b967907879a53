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

Dimensions stay small (2..16): the identities are dimension-independent,
so desk-scale instances verify them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNITARITY_TOL = 1e-10
NORM_TOL = 1e-12
_SCATTER_CHUNK = 1024  # samples per stacked draw and QR

_SQRT_HALF = 1.0 / np.sqrt(2.0)
# The four message preparations as qubit amplitude pairs, with the state
# a same-basis measurement must not observe.
_BB84_CASES = (
    (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    (np.array([0.0, 1.0]), np.array([1.0, 0.0])),
    (np.array([_SQRT_HALF, _SQRT_HALF]), np.array([_SQRT_HALF, -_SQRT_HALF])),
    (np.array([_SQRT_HALF, -_SQRT_HALF]), np.array([_SQRT_HALF, _SQRT_HALF])),
)


def _require_unitary(name: str, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {matrix.shape}")
    deviation = np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])).max()
    if deviation > UNITARITY_TOL:
        raise ValueError(f"{name} is not unitary (max deviation {deviation:.3e})")


@dataclass(frozen=True)
class ProbeSpace:
    """Environment Hilbert space and its initial state."""

    dim: int
    initial_state: np.ndarray

    def __post_init__(self) -> None:
        state = np.asarray(self.initial_state, dtype=complex)
        if state.shape != (self.dim,):
            raise ValueError(f"state must have shape ({self.dim},), got {state.shape}")
        if abs(np.linalg.norm(state) - 1.0) > NORM_TOL:
            raise ValueError("initial state must have unit norm")
        object.__setattr__(self, "initial_state", state)

    @classmethod
    def ground(cls, dim: int) -> "ProbeSpace":
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
        return cls(dim, state)

    @classmethod
    def random(cls, dim: int, rng: np.random.Generator) -> "ProbeSpace":
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return cls(dim, state / np.linalg.norm(state))


@dataclass(frozen=True)
class JointUnitary:
    """Unitary on qubit (x) environment, stored as the assembled 2d x 2d matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2:
            raise ValueError(f"expected a 2d x 2d matrix, got shape {matrix.shape}")
        _require_unitary("joint unitary", matrix)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def from_blocks(
        cls, u00: np.ndarray, u01: np.ndarray, u10: np.ndarray, u11: np.ndarray
    ) -> "JointUnitary":
        return cls(np.block([[np.asarray(u00), np.asarray(u01)],
                             [np.asarray(u10), np.asarray(u11)]]).astype(complex))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0] // 2

    def block(self, a: int, b: int) -> np.ndarray:
        d = self.dim
        return self.matrix[a * d : (a + 1) * d, b * d : (b + 1) * d]


@dataclass(frozen=True)
class LinkUnitaryPair:
    """Environment operators for one path-packet round trip.

    ``leg_out`` and ``leg_back`` act while the travelling branch is in the
    channel (forward and return cycle); ``idle_first`` and ``idle_second``
    are the environment's evolution during the same two cycles as seen by
    the retained branch, necessarily independent of which node kept it.
    """

    leg_out: np.ndarray
    leg_back: np.ndarray
    idle_first: np.ndarray
    idle_second: np.ndarray

    def __post_init__(self) -> None:
        for name in ("leg_out", "leg_back", "idle_first", "idle_second"):
            matrix = np.asarray(getattr(self, name), dtype=complex)
            _require_unitary(name, matrix)
            object.__setattr__(self, name, matrix)

    def travelling_product(self) -> np.ndarray:
        return self.leg_back @ self.leg_out

    def retained_product(self) -> np.ndarray:
        return self.idle_second @ self.idle_first


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unitary from QR of a complex Gaussian matrix, with phases fixed."""
    return _haar_unitaries(rng.normal(size=(dim, dim)), rng.normal(size=(dim, dim)))


def _haar_unitaries(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """Q of the QR of (real + i imag)/sqrt(2), stacked, with R's diagonal made positive."""
    q, r = np.linalg.qr((real + 1j * imag) / np.sqrt(2.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., np.newaxis, :]


def build_constrained_unitary(W: np.ndarray) -> JointUnitary:
    """The only message-slot attack surviving both basis constraints: qubit untouched."""
    W = np.asarray(W, dtype=complex)
    _require_unitary("W", W)
    zero = np.zeros_like(W)
    return JointUnitary.from_blocks(W, zero, zero, W)


def constrained_link_pair(dim: int, rng: np.random.Generator) -> LinkUnitaryPair:
    """Random round-trip operators satisfying the zero-disturbance condition."""
    idle_first = random_unitary(dim, rng)
    idle_second = random_unitary(dim, rng)
    leg_out = random_unitary(dim, rng)
    leg_back = idle_second @ idle_first @ leg_out.conj().T
    return LinkUnitaryPair(leg_out, leg_back, idle_first, idle_second)


def type2_disturbance_of(U: JointUnitary, probe: ProbeSpace) -> float:
    """Average same-basis error probability over the four message preparations."""
    _check_probe(U.dim, probe)
    total = 0.0
    for qubit_in, wrong in _BB84_CASES:
        joint = np.kron(qubit_in, probe.initial_state)
        out = (U.matrix @ joint).reshape(2, probe.dim)
        wrong_amp = wrong.conj() @ out
        total += float(np.vdot(wrong_amp, wrong_amp).real)
    return total / 4.0


def type2_leakage_of(U: JointUnitary, probe: ProbeSpace) -> float:
    """Largest trace distance between probe states across same-basis input pairs."""
    _check_probe(U.dim, probe)
    marginals = []
    for qubit_in, _ in _BB84_CASES:
        joint = np.kron(qubit_in, probe.initial_state)
        out = (U.matrix @ joint).reshape(2, probe.dim)
        marginals.append(out.T @ out.conj())
    return max(
        trace_distance(marginals[0], marginals[1]),
        trace_distance(marginals[2], marginals[3]),
    )


def type3_disturbance_of(pair: LinkUnitaryPair, probe: ProbeSpace) -> float:
    """Wrong-port probability of the interference readout after a round trip."""
    retained, travelling = _branch_states(pair, probe)
    overlap = np.vdot(retained, travelling)
    return float((1.0 - overlap.real) / 2.0)


def traffic_indistinguishability(pair: LinkUnitaryPair, probe: ProbeSpace) -> float:
    """Trace distance between the environment after a transmission and after silence.

    For unit vectors this equals sqrt(1 - |overlap|^2); computing it as the
    norm of the component of one state orthogonal to the other is the same
    number but stays accurate near zero distance.
    """
    retained, travelling = _branch_states(pair, probe)
    overlap = np.vdot(retained, travelling)
    orthogonal = travelling - overlap * retained
    return float(min(1.0, np.linalg.norm(orthogonal)))


def tradeoff_scatter(
    samples: int, d: int, seed: int
) -> list[tuple[float, float]]:
    """Disturbance/indistinguishability pairs for random unconstrained attacks.

    Per sample: four unitaries, then a probe; each chunk is one draw and one stacked QR."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    rng = np.random.default_rng(seed)
    points = []
    for done in range(0, samples, _SCATTER_CHUNK):
        normals = rng.normal(size=(min(_SCATTER_CHUNK, samples - done), 8 * d * d + 2 * d))
        parts = normals[:, : 8 * d * d].reshape(-1, 4, 2, d, d)
        unitaries = _haar_unitaries(parts[:, :, 0], parts[:, :, 1])
        for four, probe_normals in zip(unitaries, normals[:, 8 * d * d :]):
            pair = LinkUnitaryPair(*four)
            state = probe_normals[:d] + 1j * probe_normals[d:]
            probe = ProbeSpace(d, state / np.linalg.norm(state))
            points.append(
                (type3_disturbance_of(pair, probe), traffic_indistinguishability(pair, probe))
            )
    return points


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of the difference of two density operators."""
    eigenvalues = np.linalg.eigvalsh(rho - sigma)
    return float(np.abs(eigenvalues).sum() / 2.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def controlled_flip_unitary(probe_dim: int = 2) -> JointUnitary:
    """Negative control: the qubit flips one probe level pair when it is |1>."""
    flip = np.eye(probe_dim, dtype=complex)
    flip[[0, 1]] = flip[[1, 0]]
    eye = np.eye(probe_dim, dtype=complex)
    zero = np.zeros((probe_dim, probe_dim), dtype=complex)
    return JointUnitary.from_blocks(eye, zero, zero, flip)


def swap_unitary() -> JointUnitary:
    """Negative control: full swap of the qubit with a two-level probe."""
    swap = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            swap[a * 2 + b, b * 2 + a] = 1.0
    return JointUnitary(swap)


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
    if dim < 2:
        raise ValueError(f"dim must be at least 2, got {dim}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    def record(name: str, worst: float, tolerance: float) -> None:
        checks.append(
            CheckResult(name, worst <= tolerance, f"worst {worst:.3e} vs tol {tolerance:.1e}")
        )

    worst_d = worst_l = 0.0
    for _ in range(samples):
        U = build_constrained_unitary(random_unitary(dim, rng))
        probe = ProbeSpace.random(dim, rng)
        worst_d = max(worst_d, type2_disturbance_of(U, probe))
        worst_l = max(worst_l, type2_leakage_of(U, probe))
    record("constrained_message_zero_disturbance", worst_d, 1e-10)
    record("constrained_message_zero_leakage", worst_l, 1e-10)

    worst_d = worst_i = 0.0
    for _ in range(samples):
        if enforce_return_constraint:
            pair = constrained_link_pair(dim, rng)
        else:
            pair = LinkUnitaryPair(
                random_unitary(dim, rng),
                random_unitary(dim, rng),
                random_unitary(dim, rng),
                random_unitary(dim, rng),
            )
        probe = ProbeSpace.random(dim, rng)
        worst_d = max(worst_d, type3_disturbance_of(pair, probe))
        worst_i = max(worst_i, traffic_indistinguishability(pair, probe))
    record("constrained_link_zero_disturbance", worst_d, 1e-10)
    record("constrained_link_zero_indistinguishability", worst_i, 1e-10)

    probe2 = ProbeSpace.ground(2)
    eye_pair = LinkUnitaryPair(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
    identity_worst = max(
        type2_disturbance_of(build_constrained_unitary(np.eye(dim)), ProbeSpace.ground(dim)),
        type3_disturbance_of(eye_pair, probe2),
        traffic_indistinguishability(eye_pair, probe2),
    )
    record("identity_attack_zeros", identity_worst, 1e-12)

    record(
        "controlled_flip_disturbance_quarter",
        abs(type2_disturbance_of(controlled_flip_unitary(), probe2) - 0.25),
        1e-12,
    )
    record(
        "swap_disturbance_half",
        abs(type2_disturbance_of(swap_unitary(), probe2) - 0.5),
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


def _branch_states(pair: LinkUnitaryPair, probe: ProbeSpace) -> tuple[np.ndarray, np.ndarray]:
    if pair.leg_out.shape[0] != probe.dim:
        raise ValueError(
            f"probe dimension {probe.dim} does not match operators of dimension "
            f"{pair.leg_out.shape[0]}"
        )
    retained = pair.retained_product() @ probe.initial_state
    travelling = pair.travelling_product() @ probe.initial_state
    return retained, travelling


def _check_probe(dim: int, probe: ProbeSpace) -> None:
    if probe.dim != dim:
        raise ValueError(f"probe dimension {probe.dim} does not match unitary dimension {dim}")
