"""decoyroute: simulator and analysis toolkit for decoy-slot quantum routing.

A clocked photonic network hides who is talking to whom by interleaving
payload traffic with two kinds of pre-scheduled decoys: message-integrity
slots that catch content interception (BB84-style) and path-integrity
slots whose interferometric readout catches which-path measurements.
This package simulates the protocol under loss, noise and
intercept-and-resend attacks, evaluates the closed-form security curves
and scheduling-overhead theory, and numerically verifies the constraints
a disturbance-free attacker's unitaries would have to satisfy.
"""

from .adversary import (
    AttackConfig,
    AttackMode,
    Eavesdropper,
    EveLedger,
    decide_intercept,
    intercept_message,
    intercept_path,
    learned_traffic_fraction,
)
from .analysis import (
    AlreadySaturatedError,
    baseline_disturbance,
    binary_entropy,
    inferred_eta,
    leaked_fraction,
    leaked_fraction_uncapped,
    loss_threshold,
    message_error,
    security_curve,
)
from .channel import ChannelModel, loss_db_to_T, transmit
from .constraints import (
    JointUnitary,
    LinkUnitaryPair,
    ProbeSpace,
    build_constrained_unitary,
    constrained_link_pair,
    random_unitary,
    tradeoff_scatter,
    traffic_indistinguishability,
    type2_disturbance_of,
    type2_leakage_of,
    type3_disturbance_of,
)
from .overhead import (
    OverheadReport,
    alpha_for,
    asymptotic_bound,
    beta_for,
    bound_escape_prob,
    exact_escape_prob,
    h1_bits,
    h4_bits,
    montecarlo_escape,
    required_overhead,
    total_overhead,
)
from .protocol import (
    DisturbanceStats,
    Streams,
    detect_eavesdropper,
    generate_schedule,
    run_simulation,
    run_type1_slot,
    run_type2_slot,
    run_type3_slot,
)
from .quantum import (
    Basis,
    PathPacket,
    QubitPreparation,
    interfere_path_packet,
    measure_qubit,
    prepare_path_packet,
)

__version__ = "0.1.0"
