"""Energy-efficient power control for a wireless transmitter with a finite packet buffer.

The pieces, bottom to top:

- success: sigmoidal models mapping transmit power to packet success
  probability (channel unknown or known at the transmitter).
- queueing: closed-form stationary law and loss fraction of the
  finite-buffer slotted queue driven by that success probability.
- efficiency: the cross-layer bits-per-joule metric eta(p) combining
  goodput, amplifier power, and fixed circuit draw.
- optimize: unconstrained and QoS/power-cap-constrained maximization of
  eta, exact up to tolerance thanks to quasi-concavity.
- simulate: Monte Carlo queue simulation validating the closed forms.
- cli / units: experiment runner and dBm boundary conversions.
"""

from .efficiency import (
    EfficiencyPoint,
    SystemParams,
    efficiency,
    power_gain_db,
    stationarity_residual,
)
from .optimize import (
    Binding,
    NoInteriorMaximumError,
    Optimum,
    is_unimodal_grid,
    limit_optimizer,
    maximize_constrained,
    maximize_unconstrained,
    qos_threshold,
)
from .queueing import (
    QueueParams,
    StationaryDistribution,
    full_buffer_log_slope,
    full_buffer_prob,
    infinite_K_loss,
    load_rho,
    packet_loss,
    stationary_distribution,
    transition_matrix,
)
from .simulate import ConvergenceRow, SimConfig, SimReport, convergence_study, simulate
from .success import (
    ExpUnknownChannel,
    QKnownChannel,
    SuccessModel,
    gaussian_q,
)
from .units import dbm_to_watts, watts_to_dbm

__version__ = "0.1.0"

__all__ = [
    "Binding",
    "ConvergenceRow",
    "EfficiencyPoint",
    "ExpUnknownChannel",
    "NoInteriorMaximumError",
    "Optimum",
    "QKnownChannel",
    "QueueParams",
    "SimConfig",
    "SimReport",
    "StationaryDistribution",
    "SuccessModel",
    "SystemParams",
    "convergence_study",
    "dbm_to_watts",
    "efficiency",
    "full_buffer_log_slope",
    "full_buffer_prob",
    "gaussian_q",
    "infinite_K_loss",
    "is_unimodal_grid",
    "limit_optimizer",
    "load_rho",
    "maximize_constrained",
    "maximize_unconstrained",
    "packet_loss",
    "power_gain_db",
    "qos_threshold",
    "simulate",
    "stationarity_residual",
    "stationary_distribution",
    "transition_matrix",
    "watts_to_dbm",
    "__version__",
]
