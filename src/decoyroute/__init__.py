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

from .adversary import AttackConfig
from .analysis import loss_threshold, security_curve
from .channel import ChannelModel
from .overhead import alpha_for, exact_escape_prob
from .protocol import run_simulation

__version__ = "0.1.0"
