"""Closed-form solutions: residuals, identities, and boosts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgkink.exact import (
    Breather,
    BreatherParams,
    ExactSolution,
    Kink,
    KinkParams,
    WobblingKink,
    kink_identities,
    sample_state,
    sech,
)
from sgkink.fields import Topology, make_grid


class Antikink(Kink):
    """-K, which solves the equation because sin is odd."""

    def evaluate(self, t, x):
        f, f_t, f_x = super().evaluate(t, x)
        return -f, -f_t, -f_x


class ZeroSolution(ExactSolution):
    def evaluate(self, t, x):
        z = np.zeros_like(np.broadcast_arrays(np.asarray(t, float),
                                              np.asarray(x, float))[0])
        return z, z.copy(), z.copy()


class BoostedSolution(ExactSolution):
    """Lorentz boost f(t,x) -> f(gamma(t - beta x), gamma(x - beta t))."""

    def __init__(self, base, beta):
        self.base = base
        self.beta = beta

    def evaluate(self, t, x):
        b = self.beta
        g = 1.0 / np.sqrt(1.0 - b * b)
        tau = g * (np.asarray(t, float) - b * np.asarray(x, float))
        y = g * (np.asarray(x, float) - b * np.asarray(t, float))
        f, f_t, f_x = self.base.evaluate(tau, y)
        return f, g * f_t - b * g * f_x, -b * g * f_t + g * f_x


def pde_residual_pointwise(sol, t, x, h=1e-3):
    """f_tt - f_xx + sin(f) by centered finite differences."""
    f, _, _ = sol.evaluate(t, x)
    fp, _, _ = sol.evaluate(t + h, x)
    fm, _, _ = sol.evaluate(t - h, x)
    fxp, _, _ = sol.evaluate(t, x + h)
    fxm, _, _ = sol.evaluate(t, x - h)
    return (fp - 2 * f + fm) / h**2 - (fxp - 2 * f + fxm) / h**2 + np.sin(f)


def derivative_consistency(sol, t, x, h=1e-6):
    f, f_t, f_x = sol.evaluate(t, x)
    fp, _, _ = sol.evaluate(t + h, x)
    fm, _, _ = sol.evaluate(t - h, x)
    fxp, _, _ = sol.evaluate(t, x + h)
    fxm, _, _ = sol.evaluate(t, x - h)
    return (np.max(np.abs((fp - fm) / (2 * h) - f_t)),
            np.max(np.abs((fxp - fxm) / (2 * h) - f_x)))


X = np.linspace(-10.0, 10.0, 201)

SOLUTIONS = [
    ("kink", Kink(KinkParams(0.3, 0.5))),
    ("antikink", Antikink(KinkParams(-0.4, -1.0))),
    ("breather", Breather(BreatherParams(0.2, 0.6, 0.3, -0.2))),
    ("wobbler", WobblingKink(0.4)),
    ("boosted-wobbler", BoostedSolution(WobblingKink(0.4), 0.3)),
    ("zero", ZeroSolution()),
]


@pytest.mark.parametrize("name,sol", SOLUTIONS, ids=[n for n, _ in SOLUTIONS])
def test_pde_residual(name, sol):
    res = pde_residual_pointwise(sol, 1.7, X)
    assert np.max(np.abs(res)) < 1e-6


@pytest.mark.parametrize("name,sol", SOLUTIONS, ids=[n for n, _ in SOLUTIONS])
def test_reported_derivatives_match_finite_differences(name, sol):
    err_t, err_x = derivative_consistency(sol, 0.9, X)
    assert err_t < 1e-7
    assert err_x < 1e-7


class TestKink:
    def test_closed_form_identities(self):
        p = KinkParams(0.5, 1.0)
        ids = kink_identities(p, 2.0, X)
        z = p.gamma * (X - p.beta * 2.0 - p.x0)
        assert np.allclose(ids["sin_half"], np.sin(ids["Q"] / 2), atol=1e-12)
        assert np.allclose(ids["cos_half"], np.cos(ids["Q"] / 2), atol=1e-12)
        assert np.allclose(ids["Q_x"], 2 * p.gamma * sech(z), atol=1e-12)
        assert np.allclose(ids["Q_t"], -p.beta * ids["Q_x"], atol=1e-12)

    def test_traveling_wave_relation(self):
        sol = Kink(KinkParams(0.7, 0.0))
        f, f_t, f_x = sol.evaluate(3.0, X)
        assert np.max(np.abs(f_t + 0.7 * f_x)) < 1e-12

    @given(beta=st.floats(-0.9, 0.9), x0=st.floats(-5.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_and_range(self, beta, x0):
        sol = Kink(KinkParams(beta, x0))
        f, _, f_x = sol.evaluate(0.0, X)
        assert np.all(f_x > 0)
        assert np.all((f > 0) & (f < 2 * np.pi))

    def test_rejects_superluminal(self):
        with pytest.raises(ValueError):
            KinkParams(1.0, 0.0)


class TestBreather:
    def test_time_periodicity(self):
        p = BreatherParams(0.0, 0.8, 0.1, 0.2)
        sol = Breather(p)
        f0, ft0, fx0 = sol.evaluate(0.3, X)
        f1, ft1, fx1 = sol.evaluate(0.3 + sol.period, X)
        assert np.max(np.abs(f1 - f0)) < 1e-9
        assert np.max(np.abs(ft1 - ft0)) < 1e-9

    def test_rejects_bad_internal_parameter(self):
        with pytest.raises(ValueError):
            BreatherParams(0.0, 1.5, 0.0, 0.0)


class TestWobbler:
    def test_kink_limit(self):
        # at internal parameter -> 0 the wobbler degenerates to the rest kink
        w = WobblingKink(1e-8)
        k = Kink(KinkParams(0.0, 0.0))
        fw, _, _ = w.evaluate(1.0, X)
        fk, _, _ = k.evaluate(1.0, X)
        assert np.max(np.abs(fw - fk)) < 1e-6

    def test_tails_are_flat_far_out(self):
        w = WobblingKink(0.4)
        xfar = np.array([-300.0, 300.0])
        f, f_t, f_x = w.evaluate(2.0, xfar)
        assert abs(f[0]) < 1e-12
        assert abs(f[1] - 2 * np.pi) < 1e-12
        assert np.max(np.abs(f_t)) < 1e-12
        assert np.max(np.abs(f_x)) < 1e-12


class TestBoost:
    @given(beta=st.floats(-0.8, 0.8))
    @settings(max_examples=20, deadline=None)
    def test_boost_of_rest_kink_is_moving_kink(self, beta):
        boosted = BoostedSolution(Kink(KinkParams(0.0, 0.0)), beta)
        direct = Kink(KinkParams(beta, 0.0))
        fb, ftb, fxb = boosted.evaluate(1.3, X)
        fd, ftd, fxd = direct.evaluate(1.3, X)
        assert np.max(np.abs(fb - fd)) < 1e-10
        assert np.max(np.abs(ftb - ftd)) < 1e-10
        assert np.max(np.abs(fxb - fxd)) < 1e-10

    @given(beta1=st.floats(-0.8, 0.8), beta2=st.floats(-0.8, 0.8))
    @settings(max_examples=20, deadline=None)
    def test_boosts_compose_by_velocity_addition(self, beta1, beta2):
        boosted = BoostedSolution(Kink(KinkParams(beta1, 0.0)), beta2)
        beta = (beta1 + beta2) / (1.0 + beta1 * beta2)
        direct = Kink(KinkParams(beta, 0.0))
        for got, want in zip(boosted.evaluate(1.3, X), direct.evaluate(1.3, X)):
            assert np.max(np.abs(got - want)) < 1e-10


class TestSampleState:
    def test_kink_state_topology(self):
        g = make_grid(-64.0, 64.0, 2048)
        s = sample_state(Kink(KinkParams(0.2, 0.0)), g, 0.0)
        assert s.topology is Topology.KINK

    def test_rejects_narrow_grid(self):
        g = make_grid(-8.0, 8.0, 256)
        with pytest.raises(ValueError):
            sample_state(Kink(KinkParams(0.0, 0.0)), g, 0.0)
