"""Packet success-probability models.

Each model maps transmit power p (watts) to the probability f that a
packet transmitted in one slot is decoded correctly. Both families are
monotone and sigmoidal in p, rising toward 1. With the exp model eta had
one interior peak on every link tested; with the qfunc model it can have two.

Each model builds one link reader, p -> (f, df/dp), the first time it is
asked for it (_link_reader). success_derivative reads through it, so f'
has one formula, and a power search reads f and f' in one call.
"""

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Tuple, Union

from scipy.special import erfc

__all__ = [
    "ExpUnknownChannel",
    "QKnownChannel",
    "SuccessModel",
    "gaussian_q",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN2 = math.log(2.0)


def gaussian_q(x: float) -> float:
    """Tail probability of the standard normal, Q(x) = P(Z > x)."""
    # scipy's erfc, not math.erfc: the two differ in the last bit for many x,
    # and published CSVs hold scipy's values. float() turns its numpy
    # scalar into a plain float before the halving, the same IEEE product.
    return 0.5 * float(erfc(x / _SQRT2))


def _reject_power(p: float) -> None:
    """Name what is wrong with a transmit power outside [0, inf)."""
    if p == math.inf:
        raise ValueError(f"transmit power must be finite, got {p!r}")
    raise ValueError("transmit power must be nonnegative")


def _reject_derivative_power(p: float) -> None:
    """Name what is wrong with a transmit power outside (0, inf) for f'."""
    if p == math.inf:
        raise ValueError(f"transmit power must be finite, got {p!r}")
    raise ValueError("derivative requires positive transmit power")


def _require_positive(**fields: float) -> None:
    """Reject a parameter that is not a finite positive number, naming it."""
    for name, value in fields.items():
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value!r}")
        if value == math.inf:
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ExpUnknownChannel:
    """Success probability exp(-c/p) when the transmitter has no channel knowledge.

    The constant c = (2**(rate_R/rate_R0) - 1) * noise_sigma2 is the power
    at which f reaches 1/e; noise_sigma2 is the receiver noise power in
    watts with path loss folded in. Rates are in bits per second.
    """

    rate_R: float
    rate_R0: float
    noise_sigma2: float

    def __post_init__(self) -> None:
        _require_positive(
            rate_R=self.rate_R, rate_R0=self.rate_R0, noise_sigma2=self.noise_sigma2
        )

    @cached_property  # computed once per model; dataclasses.replace builds a new one
    def power_scale(self) -> float:
        """The constant c in f(p) = exp(-c/p), in watts; inf once 2**(R/R0) leaves float range."""
        ratio = self.rate_R / self.rate_R0
        if ratio >= 1024.0:
            return math.inf
        if ratio < 1.0:  # 2**ratio - 1 cancels: all of it below ratio ~ 1e-16
            return math.expm1(ratio * _LN2) * self.noise_sigma2
        return (2.0 ** ratio - 1.0) * self.noise_sigma2

    def success_probability(self, p: float) -> float:
        if not 0.0 <= p < math.inf:
            _reject_power(p)
        if p == 0.0:
            return 0.0  # limit of exp(-c/p) as p -> 0+
        return math.exp(-self.power_scale / p)

    def success_derivative(self, p: float) -> float:
        """df/dp = f(p) * c / p**2, exact for this family."""
        if not 0.0 < p < math.inf:
            _reject_derivative_power(p)
        return self._reader(p)[1]

    @cached_property
    def _reader(self) -> Callable[[float], Tuple[float, float]]:
        """p -> (f, df/dp) for 0 < p < inf, built once per model."""
        return partial(_exp_f_and_df, self.power_scale)


@dataclass(frozen=True)
class QKnownChannel:
    """Success probability for a known channel gain, via the Gaussian Q-function.

    f(p) = Q(spread_kappa * (rate_R/rate_R0 - ln(1 + channel_gain_hh * p / noise_sigma2)))

    spread_kappa sets how sharply f switches from 0 to 1 around the power
    where the log term crosses rate_R/rate_R0; it has no universal default
    and must be supplied. channel_gain_hh is the squared channel magnitude.
    """

    rate_R: float
    rate_R0: float
    spread_kappa: float
    channel_gain_hh: float
    noise_sigma2: float

    def __post_init__(self) -> None:
        _require_positive(
            rate_R=self.rate_R,
            rate_R0=self.rate_R0,
            spread_kappa=self.spread_kappa,
            channel_gain_hh=self.channel_gain_hh,
            noise_sigma2=self.noise_sigma2,
        )

    @cached_property  # the link constants, fixed once per model
    def _link(self) -> Tuple[float, float, float, float]:
        return (self.rate_R / self.rate_R0, self.spread_kappa, self.channel_gain_hh,
                self.noise_sigma2)

    def success_probability(self, p: float) -> float:
        if not 0.0 <= p < math.inf:
            _reject_power(p)
        return gaussian_q(_q_argument(*self._link, p))

    def success_derivative(self, p: float) -> float:
        """df/dp = kappa * phi(arg) * hh / (sigma2 + hh p), phi the normal pdf; exact."""
        if not 0.0 < p < math.inf:
            _reject_derivative_power(p)
        return self._reader(p)[1]

    @cached_property
    def _reader(self) -> Callable[[float], Tuple[float, float]]:
        """p -> (f, df/dp) for 0 < p < inf, built once per model."""
        return partial(_q_f_and_df, *self._link)


SuccessModel = Union[ExpUnknownChannel, QKnownChannel]


def _exp_f_and_df(c: float, p: float) -> Tuple[float, float]:
    """(f, df/dp) of f = exp(-c/p) at 0 < p < inf."""
    f = math.exp(-c / p)
    if f == 0.0:
        return f, 0.0  # also where c is inf, and 0 * inf is nan
    p_squared = p * p
    if p_squared == 0.0:  # p below ~1.5e-162
        return f, f * c / p / p
    return f, f * c / p_squared


def _q_argument(ratio: float, kappa: float, hh: float, sigma2: float, p: float) -> float:
    """The Q-function's argument kappa (R/R0 - ln(1 + hh p / sigma2)) at 0 <= p < inf.

    The log term is finite, so R/R0 = inf gives inf (f = 0).
    """
    snr = hh * p / sigma2
    if snr == math.inf:
        # hh p or its quotient overflowed: ln(1 + snr) = L + ln(1 + e^-L)
        # with L = ln snr taken from logs (snr >= 1 here, so e^-L <= 1).
        log_snr = math.log(hh) + math.log(p) - math.log(sigma2)
        return kappa * (ratio - (log_snr + math.log1p(math.exp(-log_snr))))
    return kappa * (ratio - math.log1p(snr))


def _q_f_and_df(ratio: float, kappa: float, hh: float, sigma2: float,
                p: float) -> Tuple[float, float]:
    """(f, df/dp) of the qfunc model at 0 < p < inf, from one argument."""
    arg = _q_argument(ratio, kappa, hh, sigma2, p)
    density = kappa * _INV_SQRT_2PI * math.exp(-0.5 * arg * arg)
    total = sigma2 + hh * p
    if total == math.inf:  # sigma2 + hh p overflowed; hh / total is 1 / (sigma2/hh + p)
        return gaussian_q(arg), density / (sigma2 / hh + p)
    return gaussian_q(arg), density * hh / total


def _link_reader(model: SuccessModel) -> Callable[[float], Tuple[float, float]]:
    """The model's reader p -> (f(p), f'(p)) for 0 < p < inf.

    A model without one, any object with success_probability and
    success_derivative, is read through those two methods.
    """
    try:
        return model._reader
    except AttributeError:
        return lambda p: (model.success_probability(p), model.success_derivative(p))
