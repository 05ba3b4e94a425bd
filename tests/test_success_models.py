import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greenlink import ExpUnknownChannel, QKnownChannel, gaussian_q


def exp_model(R=4000.0, R0=1000.0, sigma2=1e-3):
    return ExpUnknownChannel(rate_R=R, rate_R0=R0, noise_sigma2=sigma2)


def q_model(R=4000.0, R0=1000.0, kappa=2.0, hh=1.0, sigma2=1e-3):
    return QKnownChannel(rate_R=R, rate_R0=R0, spread_kappa=kappa,
                         channel_gain_hh=hh, noise_sigma2=sigma2)


class TestGaussianQ:
    def test_half_at_zero(self):
        assert gaussian_q(0.0) == 0.5

    def test_known_tail_values(self):
        # standard normal tail table entries
        assert gaussian_q(1.2815515655446004) == pytest.approx(0.1, rel=1e-12)
        assert gaussian_q(2.3263478740408408) == pytest.approx(0.01, rel=1e-12)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_symmetry(self, x):
        assert gaussian_q(x) + gaussian_q(-x) == pytest.approx(1.0, abs=1e-14)

    @given(st.floats(min_value=-40.0, max_value=40.0))
    def test_bounds_and_monotone(self, x):
        v = gaussian_q(x)
        assert 0.0 <= v <= 1.0
        assert gaussian_q(x + 0.5) <= v


class TestExpUnknownChannel:
    def test_power_scale(self):
        # scale = (2**(R/R0) - 1) * sigma2 = 15 * 1e-3
        assert exp_model().power_scale == pytest.approx(0.015, rel=1e-14)

    def test_power_scale_follows_replace(self):
        # the scale is cached on the instance; a replaced model gets its own
        m = exp_model()
        assert m.power_scale == pytest.approx(0.015, rel=1e-14)
        higher = dataclasses.replace(m, rate_R=5000.0)
        assert higher.power_scale == (2.0 ** 5.0 - 1.0) * 1e-3
        assert higher.success_probability(0.031) == math.exp(-higher.power_scale / 0.031)
        assert m.power_scale == pytest.approx(0.015, rel=1e-14)
        assert m == exp_model()

    def test_power_scale_against_mpmath(self):
        # 2**ratio - 1 cancels at small R/R0 (to 0, f = 1, below ~1e-16);
        # the scale must stay within 2 ulps of 50 digits all the way down
        ratios = [1e-300, 5e-17, 1e-16, 1e-15, 1e-10, 1e-3, 0.5, math.nextafter(1.0, 0.0),
                  1.0, 4.0, *10.0 ** np.random.default_rng(8).uniform(-300.0, 0.0, 300)]
        for ratio in ratios:
            with mpmath.workdps(50):
                exact = mpmath.expm1(mpmath.mpf(ratio) * mpmath.log(2))
            c = exp_model(R=ratio, R0=1.0, sigma2=1.0).power_scale
            assert abs(mpmath.mpf(c) - exact) <= 2 * math.ulp(float(exact)), ratio

    def test_value_at_scale(self):
        m = exp_model()
        assert m.success_probability(m.power_scale) == pytest.approx(
            math.exp(-1.0), rel=1e-14)

    def test_zero_power(self):
        assert exp_model().success_probability(0.0) == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            exp_model().success_probability(-0.1)

    def test_derivative_matches_finite_difference(self):
        m = exp_model()
        for p in (0.003, 0.015, 0.08, 0.9):
            h = 1e-6 * p
            fd = (m.success_probability(p + h) - m.success_probability(p - h)) / (2 * h)
            assert m.success_derivative(p) == pytest.approx(fd, rel=1e-7)

    def test_inflection_at_half_scale(self):
        # f'' changes sign at p = scale/2: slope rises before, falls after
        m = exp_model()
        mid = m.power_scale / 2.0
        d = m.success_derivative
        assert d(mid * 0.9) < d(mid * 0.999) < d(mid)
        assert d(mid) > d(mid * 1.001) > d(mid * 1.1)

    @given(st.floats(min_value=1e-6, max_value=1e3),
           st.floats(min_value=1.0, max_value=8.0),
           st.floats(min_value=1e-6, max_value=1.0))
    def test_bounds_monotone_any_params(self, p, ratio, sigma2):
        m = ExpUnknownChannel(rate_R=1000.0 * ratio, rate_R0=1000.0,
                              noise_sigma2=sigma2)
        v = m.success_probability(p)
        assert 0.0 <= v <= 1.0
        assert m.success_probability(p * 1.01) >= v
        assert m.success_derivative(p) >= 0.0

    def test_rate_increase_lowers_success(self):
        p = 0.05
        assert (exp_model(R=5000.0).success_probability(p)
                < exp_model(R=4000.0).success_probability(p))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ExpUnknownChannel(rate_R=0.0, rate_R0=1000.0, noise_sigma2=1e-3)
        with pytest.raises(ValueError):
            ExpUnknownChannel(rate_R=4000.0, rate_R0=1000.0, noise_sigma2=0.0)

    def test_rate_ratio_beyond_float_range(self):
        # 2**(R/R0) leaves float range at R/R0 = 1024: c is inf, so f and f' are 0
        below, at = exp_model(R=1023e3), exp_model(R=1024e3)
        assert math.isfinite(below.power_scale)
        assert at.power_scale == math.inf
        for p in (1e-3, 1.0, 1e300):
            assert at.success_probability(p) == 0.0
            assert at.success_derivative(p) == 0.0

    @pytest.mark.parametrize("p", [1e-200, 1e-250, 1e-300])
    def test_derivative_where_p_squared_underflows(self, p):
        # p * p is 0 here; f' = f c / p**2 still follows the family's formula
        m = exp_model(sigma2=p)
        c = m.power_scale
        expected = m.success_probability(p) * (c / p) / p
        assert 0.0 < m.success_derivative(p) == pytest.approx(expected, rel=1e-14)


class TestQKnownChannel:
    def test_kappa_is_required(self):
        with pytest.raises(TypeError):
            QKnownChannel(rate_R=4000.0, rate_R0=1000.0)  # type: ignore[call-arg]

    def test_zero_power_value(self):
        m = q_model(kappa=2.0)
        # at p = 0 the argument reduces to kappa * R/R0
        assert m.success_probability(0.0) == pytest.approx(gaussian_q(8.0), rel=1e-10)

    def test_capacity_crossover(self):
        # success hits 1/2 where log1p(hh p / sigma2) = R/R0
        m = q_model()
        p_half = (math.exp(4.0) - 1.0) * m.noise_sigma2 / m.channel_gain_hh
        assert m.success_probability(p_half) == pytest.approx(0.5, rel=1e-9)
        assert m.success_probability(p_half * 0.8) < 0.5
        assert m.success_probability(p_half * 1.2) > 0.5

    @given(st.floats(min_value=1e-6, max_value=1e4))
    @settings(deadline=None)
    def test_bounds_and_monotone(self, p):
        m = q_model()
        v = m.success_probability(p)
        assert 0.0 <= v <= 1.0
        assert m.success_probability(p * 1.02) >= v

    def test_derivative_positive_and_fd_consistent(self):
        # points chosen inside the sigmoid's active region; outside it the
        # slope underflows and finite differences are pure roundoff
        m = q_model()
        for p in (0.02, 0.05, 0.15):
            d = m.success_derivative(p)
            assert d > 0.0
            h = 1e-4 * p
            coarse = (m.success_probability(p + h)
                      - m.success_probability(p - h)) / (2 * h)
            assert d == pytest.approx(coarse, rel=1e-3)

    def test_rate_ratio_beyond_float_range(self):
        # R/R0 reads inf; with the log term inf too, inf - inf must not give a NaN f
        for hh in (1.0, 1e300):
            m = q_model(R=1e300, R0=1e-10, hh=hh, sigma2=1e-300)
            assert m.success_probability(1.0) == 0.0
            assert m.success_derivative(1.0) == 0.0

    def test_snr_overflow_matches_unscaled_model(self):
        # hh p overflows at hh = sigma2 = 1e300, but only hh / sigma2 enters f
        # and f'; R/R0 = 23 sits beside ln(1 + 1e10) = 23.03, so f is near 1/2.
        plain = q_model(R=23e3, kappa=1.0, hh=1.0, sigma2=1.0)
        scaled = q_model(R=23e3, kappa=1.0, hh=1e300, sigma2=1e300)
        p = 1e10
        assert plain.success_probability(p) == pytest.approx(0.5103, rel=1e-4)
        assert plain.success_derivative(p) == pytest.approx(3.99e-11, rel=1e-3)
        assert scaled.success_probability(p) == pytest.approx(
            plain.success_probability(p), rel=1e-9)
        assert scaled.success_derivative(p) == pytest.approx(
            plain.success_derivative(p), rel=1e-9)

    def test_snr_quotient_overflow_gives_zero_success(self):
        # hh p / sigma2 = 1e600: the log term is 1381.6, far below R/R0 = 2000
        m = q_model(R=2e6, kappa=1.0, hh=1e300, sigma2=1e-300)
        assert m.success_probability(1.0) == 0.0
        assert m.success_derivative(1.0) == 0.0

    def test_larger_kappa_sharpens(self):
        m1, m2 = q_model(kappa=1.0), q_model(kappa=6.0)
        p_half = (math.exp(4.0) - 1.0) * 1e-3
        lo, hi = p_half * 0.5, p_half * 2.0
        assert m2.success_probability(lo) < m1.success_probability(lo)
        assert m2.success_probability(hi) > m1.success_probability(hi)


KAPPAS = [2.0, 10.0, 100.0, 1e4]


class TestPlainFloat:
    """f and Q come back as exactly float, never a numpy scalar or other subclass."""

    @given(st.floats(min_value=-1e3, max_value=1e3))
    def test_gaussian_q(self, x):
        assert type(gaussian_q(x)) is float

    @given(st.floats(min_value=0.0, max_value=1e16))
    def test_exp_model(self, p):
        assert type(exp_model().success_probability(p)) is float

    @given(st.sampled_from(KAPPAS), st.floats(min_value=0.0, max_value=1e16))
    def test_qfunc_model(self, kappa, p):
        assert type(q_model(kappa=kappa).success_probability(p)) is float

    def test_exp_model_at_and_above_clip(self):
        model = exp_model()
        p_clip = model.power_scale / 1e-17  # exp(-1e-17) rounds to 1
        assert model.success_probability(p_clip) == 1.0
        for p in (0.0, p_clip, 10.0 * p_clip):
            assert type(model.success_probability(p)) is float

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_qfunc_model_at_and_above_clip(self, kappa):
        model = q_model(kappa=kappa)
        p_clip = 1e-3 * math.expm1(4.0 + 9.0 / kappa)  # argument -9: Q rounds to 1
        assert model.success_probability(p_clip) == 1.0
        for p in (0.0, p_clip, 10.0 * p_clip, 1e16):
            assert type(model.success_probability(p)) is float


@pytest.mark.parametrize("build, name", [
    (lambda: exp_model(R=math.inf), "rate_R"),
    (lambda: exp_model(R0=math.inf), "rate_R0"),
    (lambda: exp_model(sigma2=math.inf), "noise_sigma2"),
    (lambda: q_model(R=math.inf), "rate_R"),
    (lambda: q_model(R0=math.inf), "rate_R0"),
    (lambda: q_model(kappa=math.inf), "spread_kappa"),
    (lambda: q_model(hh=math.inf), "channel_gain_hh"),
    (lambda: q_model(sigma2=math.inf), "noise_sigma2"),
])
def test_infinite_parameter_rejected_by_name(build, name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got inf$"):
        build()


def test_negative_infinity_reads_as_not_positive():
    with pytest.raises(ValueError, match=r"^spread_kappa must be positive, got -inf$"):
        q_model(kappa=-math.inf)


@pytest.mark.parametrize("model", [exp_model(), q_model()])
def test_nan_power_rejected(model):
    # a NaN power is no power, not a NaN f
    with pytest.raises(ValueError):
        model.success_probability(math.nan)
    with pytest.raises(ValueError):
        model.success_derivative(math.nan)


@pytest.mark.parametrize("model", [exp_model(), q_model()])
def test_infinite_power_rejected_by_name(model):
    # both families reach f = 1 at p = inf, which would pass as a power
    with pytest.raises(ValueError, match=r"^transmit power must be finite, got inf$"):
        model.success_probability(math.inf)
    with pytest.raises(ValueError, match=r"^transmit power must be nonnegative$"):
        model.success_probability(-math.inf)


@pytest.mark.parametrize("model", [exp_model(), q_model()])
def test_infinite_power_rejected_by_the_derivative(model):
    # f' at p = inf is rejected as f is; the qfunc model read 0.0 there
    with pytest.raises(ValueError, match=r"^transmit power must be finite, got inf$"):
        model.success_derivative(math.inf)
    with pytest.raises(ValueError, match=r"^derivative requires positive transmit power$"):
        model.success_derivative(-math.inf)
    with pytest.raises(ValueError, match=r"^derivative requires positive transmit power$"):
        model.success_derivative(0.0)
