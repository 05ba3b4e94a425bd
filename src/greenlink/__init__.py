"""Energy-efficient power control for a wireless transmitter with a finite packet buffer.

The pieces, bottom to top:

- success: sigmoidal models mapping transmit power to packet success
  probability (channel unknown or known at the transmitter).
- queueing: closed-form stationary law and loss fraction of the
  finite-buffer slotted queue driven by that success probability.
- efficiency: the cross-layer bits-per-joule metric eta(p) combining
  goodput, amplifier power, and fixed circuit draw.
- optimize: unconstrained and QoS/power-cap-constrained maximization of
  eta at the first peak of its exact slope; that is the maximum on every
  exp-model link tested, while a qfunc link can peak twice.
- simulate: Monte Carlo queue simulation validating the closed forms.
- cli / units: experiment runner and dBm boundary conversions.

Each module's __all__ lists its public names, all exported here.
greenlink.simulate and greenlink.efficiency name functions, so a patch
reaches either module through sys.modules, as sys.modules["greenlink.simulate"].
"""

from . import efficiency as _efficiency, optimize as _optimize, queueing as _queueing
from . import simulate as _simulate, success as _success, units as _units
from .efficiency import *
from .optimize import *
from .queueing import *
from .simulate import *
from .success import *
from .units import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += _efficiency.__all__
__all__ += _optimize.__all__
__all__ += _queueing.__all__
__all__ += _simulate.__all__
__all__ += _success.__all__
__all__ += _units.__all__
