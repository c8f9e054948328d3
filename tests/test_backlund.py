"""Backlund transform: forward, inverse, functional, and helpers."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import CubicSpline

from sgkink.backlund import (
    BacklundConvergenceError,
    FContext,
    _beta,
    _cell_integrals,
    _damped_cumsum,
    backlund_residual,
    eval_F,
    forward_transform,
    inverse_transform,
    operator_I,
    reconstruct_difference,
    solve_linearized_F2,
)
from sgkink.evolve import Scheme, SchemeKind, evolve
from sgkink.exact import Kink, KinkParams, kink_identities, sample_state, sech
from sgkink.fields import (
    Field,
    State,
    Topology,
    make_grid,
    spatial_derivative,
)
from sgkink.tracking import _orthogonality


@pytest.fixture(scope="module")
def fine_grid():
    return make_grid(-32.0, 32.0, 16384)  # dx = 1/256


@pytest.fixture(scope="module")
def coarse_grid():
    return make_grid(-64.0, 64.0, 2048)  # dx = 1/16


def zero_state(grid, t=0.0):
    z = np.zeros(grid.n)
    return State(Field(grid, z), Field(grid, z.copy()), t, Topology.ZERO)


def small_state(grid, eps):
    p = eps * np.exp(-grid.x**2)
    q = -eps * sech(grid.x) * np.tanh(grid.x)
    return State(Field(grid, p), Field(grid, q), 0.0, Topology.ZERO)


def odd_sech_state(grid, eps):
    p = eps * sech(grid.x) * np.tanh(grid.x)
    q = eps * sech(grid.x)
    return State(Field(grid, p), Field(grid, q), 0.0, Topology.ZERO)


def bump_state(grid, amp, amp_t, width, center):
    bump = np.exp(-(((grid.x - center) / width) ** 2))
    return State(Field(grid, amp * bump), Field(grid, amp_t * bump), 0.0,
                 Topology.ZERO)


def reference_forward(phi, a, center):
    """Scalar RK4 on f' = phi_t + sin((f+phi)/2)/a + a sin((f-phi)/2) from
    f(center) = pi outward, with spline samples at the midpoints and on the
    partial steps off the anchor; returns (f, f_t) samples."""
    grid = phi.grid
    x, dx, n = grid.x, grid.dx, grid.n
    pv, ptv = phi.phi.values, phi.phi_t.values
    p_spline, pt_spline = CubicSpline(x, pv), CubicSpline(x, ptv)
    mid = x[:-1] + 0.5 * dx
    p_mid, pt_mid = p_spline(mid), pt_spline(mid)

    def rhs(p, pt, f):
        return pt + math.sin(0.5 * (f + p)) / a + a * math.sin(0.5 * (f - p))

    def step(f, h, p0, pt0, pm, ptm, p1, pt1):
        k1 = rhs(p0, pt0, f)
        k2 = rhs(pm, ptm, f + 0.5 * h * k1)
        k3 = rhs(pm, ptm, f + 0.5 * h * k2)
        k4 = rhs(p1, pt1, f + h * k3)
        return f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    k0 = int(np.searchsorted(x, center))
    f = np.empty(n)
    for k in (k0, k0 - 1):
        if 0 <= k < n:
            h = x[k] - center
            at = [center, center + 0.5 * h, x[k]]
            (p0, pm, p1), (pt0, ptm, pt1) = p_spline(at), pt_spline(at)
            f[k] = step(math.pi, h, p0, pt0, pm, ptm, p1, pt1)
    for j in range(k0, n - 1):
        f[j + 1] = step(f[j], dx, pv[j], ptv[j], p_mid[j], pt_mid[j],
                        pv[j + 1], ptv[j + 1])
    for j in range(k0 - 1, 0, -1):
        f[j - 1] = step(f[j], -dx, pv[j], ptv[j], p_mid[j - 1],
                        pt_mid[j - 1], pv[j - 1], ptv[j - 1])
    p_x = spatial_derivative(phi.phi, 1).values
    return f, p_x + np.sin(0.5 * (f + pv)) / a - a * np.sin(0.5 * (f - pv))


def reference_linearized_F2(g, ctx):
    """(lambda, w) by w = cosh(z) v, z = gamma0 (x - center), with v the
    antiderivative of r sech(z) accumulated from the left end left of the
    center and from the right end right of it, and the cosh product taken
    in log space."""
    grid = g.grid
    z = ctx.gamma0 * (grid.x - ctx.center)
    s = sech(z)
    c_lam = 1.0 + 1.0 / ctx.a0**2
    denom = c_lam * float(np.trapezoid(s * s, dx=grid.dx))
    lam = float(np.trapezoid(g.values * s, dx=grid.dx)) / denom
    inc = _cell_integrals((c_lam * lam * s - g.values) * s, grid.dx, 1.0)
    prefix = np.concatenate([[0.0], np.cumsum(inc)])
    suffix = np.concatenate([np.cumsum(inc[::-1])[::-1], [0.0]])
    k0 = int(np.searchsorted(grid.x, ctx.center))
    v = np.concatenate([prefix[:k0], -suffix[k0:]])
    log_cosh = np.abs(z) + np.log1p(np.exp(-2.0 * np.abs(z))) - np.log(2.0)
    w = np.zeros(grid.n)
    nz = v != 0.0
    w[nz] = np.sign(v[nz]) * np.exp(log_cosh[nz] + np.log(np.abs(v[nz])))
    return lam, w


class TestBacklundParameter:
    @pytest.mark.parametrize("beta", [-0.5, 0.0, 0.5])
    def test_velocity_parameter_correspondence(self, beta):
        assert _beta(KinkParams(beta, 0.0).a) == pytest.approx(beta, abs=1e-14)

    @pytest.mark.parametrize("a", [0.0, -1.2, np.inf, np.nan])
    def test_forward_transform_rejects_bad_a(self, coarse_grid, a):
        with pytest.raises(ValueError, match="a must be positive and finite"):
            forward_transform(small_state(coarse_grid, 0.01), a, 0.0)

    @pytest.mark.parametrize("a", [0.0, -1.2, np.inf, np.nan])
    def test_residual_rejects_bad_a(self, coarse_grid, a):
        f = sample_state(Kink(KinkParams(0.2, 0.0)), coarse_grid, 0.0)
        with pytest.raises(ValueError, match="a must be positive and finite"):
            backlund_residual(f, zero_state(coarse_grid), a)


class TestForwardTransform:
    @pytest.mark.parametrize("beta", [0.0, 0.5, -0.5])
    def test_zero_maps_to_kink(self, fine_grid, beta):
        a = KinkParams(beta, 0.0).a
        f = forward_transform(zero_state(fine_grid), a, 0.3)
        exact = sample_state(Kink(KinkParams(beta, 0.3)), fine_grid, 0.0)
        assert np.max(np.abs(f.phi.values - exact.phi.values)) < 1e-8
        assert np.max(np.abs(f.phi_t.values - exact.phi_t.values)) < 1e-8

    @pytest.mark.parametrize("beta", [0.0, 0.5, -0.5])
    @pytest.mark.parametrize("data", [small_state, odd_sech_state],
                             ids=["gaussian", "odd-sech"])
    @pytest.mark.parametrize("anchor", [0.25, 0.3], ids=["on-node", "off-node"])
    def test_matches_scalar_rk4_sweep(self, fine_grid, beta, data, anchor):
        a = KinkParams(beta, 0.0).a
        phi = data(fine_grid, 0.05)
        f = forward_transform(phi, a, anchor)
        ref_f, ref_ft = reference_forward(phi, a, anchor)
        assert np.max(np.abs(f.phi.values - ref_f)) < 1e-11
        assert np.max(np.abs(f.phi_t.values - ref_ft)) < 1e-11

    @pytest.mark.parametrize("anchor", [0.0, -512.0],
                             ids=["centered", "off-center"])
    def test_wide_grid_stays_finite(self, anchor):
        # an unscaled product of the step matrices would reach e^1177 at the
        # right end; off center, it overflows before the scan's last pass
        g = make_grid(-1024.0, 1024.0, 65536)
        f = forward_transform(zero_state(g), KinkParams(0.9, 0.0).a, anchor)
        exact = sample_state(Kink(KinkParams(0.9, anchor)), g, 0.0)
        assert np.max(np.abs(f.phi.values - exact.phi.values)) < 1e-7
        assert np.max(np.abs(f.phi_t.values - exact.phi_t.values)) < 1e-7

    @given(amp=st.floats(-0.05, 0.05), amp_t=st.floats(-0.05, 0.05),
           width=st.floats(0.5, 3.0), center=st.floats(-4.0, 4.0),
           beta=st.floats(-0.6, 0.6), node=st.integers(-512, 512),
           frac=st.floats(0.05, 0.95))
    @settings(max_examples=25, deadline=None)
    def test_backlund_identity(self, fine_grid, amp, amp_t, width, center,
                               beta, node, frac):
        a = KinkParams(beta, 0.0).a
        phi = bump_state(fine_grid, amp, amp_t, width, center)
        anchor = fine_grid.x[fine_grid.n // 2 + node] + frac * fine_grid.dx
        f = forward_transform(phi, a, anchor)
        r1 = backlund_residual(f, phi, a)["R1"].values
        assert np.max(np.abs(r1)) < max(1e-8, fine_grid.dx**4)

    @given(amp=st.floats(-0.05, 0.05), width=st.floats(0.5, 3.0),
           beta=st.floats(-0.6, 0.6), frac=st.floats(0.0, 0.95),
           m=st.integers(-64, 64))
    @settings(max_examples=15, deadline=None)
    def test_translation_equivariance(self, fine_grid, amp, width, beta, frac,
                                      m):
        a = KinkParams(beta, 0.0).a
        phi = bump_state(fine_grid, amp, -amp, width, 0.0)
        shifted = State(*(Field(fine_grid, np.roll(v.values, m))
                          for v in (phi.phi, phi.phi_t)), 0.0, Topology.ZERO)
        anchor = frac * fine_grid.dx
        f = forward_transform(phi, a, anchor)
        g = forward_transform(shifted, a, anchor + m * fine_grid.dx)
        inner = slice(128, -128)
        for u, v in ((f.phi, g.phi), (f.phi_t, g.phi_t)):
            err = np.abs(np.roll(u.values, m) - v.values)[inner]
            assert np.max(err) < 1e-12

    def test_residual_of_kink_zero_pair(self, fine_grid):
        beta = 0.5
        a = KinkParams(beta, 0.0).a
        f = sample_state(Kink(KinkParams(beta, 0.0)), fine_grid, 0.0)
        res = backlund_residual(f, zero_state(fine_grid), a)
        assert np.max(np.abs(res["R1"].values)) < 1e-9
        assert np.max(np.abs(res["R2"].values)) < 1e-9

    def test_rejects_kink_input(self, fine_grid):
        f = sample_state(Kink(KinkParams(0.0, 0.0)), fine_grid, 0.0)
        with pytest.raises(ValueError):
            forward_transform(f, 1.0, 0.0)

    def test_persistence_under_independent_evolution(self, coarse_grid):
        """A Backlund pair stays a Backlund pair when both sides evolve."""
        beta = 0.2
        a = KinkParams(beta, 0.0).a
        phi0 = small_state(coarse_grid, 0.02)
        f0 = forward_transform(phi0, a, 0.0)
        dt = coarse_grid.dx / 2
        f_traj = evolve(f0, Scheme(SchemeKind.LEAPFROG, dt), 5.0,
                        snapshot_every=1.0)
        p_traj = evolve(phi0, Scheme(SchemeKind.LEAPFROG, dt), 5.0,
                        snapshot_every=1.0)
        res0 = backlund_residual(f_traj.states[0], p_traj.states[0], a)
        res1 = backlund_residual(f_traj.states[-1], p_traj.states[-1], a)
        base = max(np.max(np.abs(res0["R1"].values)),
                   np.max(np.abs(res0["R2"].values)))
        late = max(np.max(np.abs(res1["R1"].values)),
                   np.max(np.abs(res1["R2"].values)))
        assert late < base + 1e-3


class TestFunctional:
    def test_vanishes_at_origin(self, fine_grid):
        ctx = FContext(0.3, 0.0, 0.5)
        zero = Field(fine_grid, np.zeros(fine_grid.n))
        trip = eval_F(0.0, 0.0, zero, zero, zero, zero, ctx)
        assert np.max(np.abs(trip.F1.values)) < 1e-10
        assert np.max(np.abs(trip.F2.values)) < 1e-10
        assert abs(trip.F3) < 1e-10

    def test_f3_slope_in_y(self, fine_grid):
        ctx = FContext(0.3, 0.0, 0.5)
        zero = Field(fine_grid, np.zeros(fine_grid.n))
        h = 1e-6
        vals = []
        for y in (h, -h):
            trip = eval_F(0.0, y, zero, zero, zero, zero, ctx)
            vals.append(trip.F3)
        slope = (vals[0] - vals[1]) / (2 * h)
        assert slope == pytest.approx(4.0, abs=1e-5)


    def test_f3_is_the_orthogonality_integral(self, fine_grid):
        ctx = FContext(0.3, 0.5, 0.2)
        delta, y = 0.05, 0.1
        bump = np.exp(-fine_grid.x**2)
        u0 = Field(fine_grid, 0.02 * bump)
        v0 = Field(fine_grid, 0.01 * bump)
        zero = Field(fine_grid, np.zeros(fine_grid.n))
        f3 = eval_F(delta, y, v0, zero, u0, zero, ctx).F3
        q0 = kink_identities(ctx.params, ctx.t, fine_grid.x)["Q"]
        f = Field(fine_grid, u0.values + q0)
        beta_d = _beta(ctx.a0 + delta)
        g = _orthogonality(f, beta_d, 0.0, ctx.center + y)[0]
        assert abs(f3 - g) < 1e-14


class TestLinearizedF2:
    def test_residual_and_boundedness(self, fine_grid):
        ctx = FContext(0.2, 0.0, 0.0)
        g = Field(fine_grid, 0.1 * np.exp(-fine_grid.x**2))
        out = solve_linearized_F2(g, ctx)
        w, lam = out["w"], out["lambda"]
        from sgkink.fields import spatial_derivative
        from sgkink.exact import kink_identities
        ids = kink_identities(KinkParams(ctx.beta0, ctx.x0), 0.0, fine_grid.x)
        gamma0 = KinkParams(ctx.beta0, 0.0).gamma
        a0 = KinkParams(ctx.beta0, 0.0).a
        res = (-spatial_derivative(w, 1).values
               - gamma0 * ids["cos_half"] * w.values
               + lam * (1 + a0**-2) * ids["sin_half"]
               - g.values)
        interior = slice(8, -8)
        assert np.max(np.abs(res[interior])) < 1e-8
        assert np.max(np.abs(w.values)) < 10.0

    @given(beta0=st.floats(-0.6, 0.6),
           where=st.sampled_from(["node", "off-node", "left", "right"]),
           node=st.integers(-512, 511), frac=st.floats(0.05, 0.95),
           beyond=st.floats(0.01, 4.0), mu=st.floats(-6.0, 6.0),
           width=st.floats(0.3, 3.0))
    @settings(max_examples=40, deadline=None)
    # centers within four nodes of an end, where a side has under 4 nodes
    @example(0.3, "node", -512, 0.5, 1.0, 0.0, 1.0)
    @example(-0.3, "off-node", -510, 0.5, 1.0, -12.0, 1.0)
    @example(0.3, "off-node", 509, 0.5, 1.0, 12.0, 1.0)
    @example(-0.3, "node", 511, 0.5, 1.0, 0.0, 1.0)
    def test_matches_log_space_reference(self, beta0, where, node, frac,
                                         beyond, mu, width):
        g = make_grid(-16.0, 16.0, 1024)
        center = {"node": g.x[g.n // 2 + node],
                  "off-node": g.x[g.n // 2 + node] + frac * g.dx,
                  "left": g.x[0] - beyond,  # k0 = 0
                  "right": g.x[-1] + beyond}[where]  # k0 = n
        ctx = FContext(beta0, 0.0, center)
        rhs = Field(g, np.exp(-(((g.x - mu) / width) ** 2)))
        out = solve_linearized_F2(rhs, ctx)
        lam, w = reference_linearized_F2(rhs, ctx)
        assert out["lambda"] == lam
        assert np.max(np.abs(out["w"].values - w)) <= 1e-12 * np.max(np.abs(w))


class TestInverseTransform:
    def test_round_trip(self, fine_grid):
        beta = 0.2
        a = KinkParams(beta, 0.0).a
        phi = small_state(fine_grid, 0.02)
        f = forward_transform(phi, a, 0.0)
        inv = inverse_transform(f, beta, 0.0)
        assert inv.residual_norm < 1e-9
        err = np.max(np.abs(inv.phi.phi.values - phi.phi.values))
        assert err < 1e-6

    def test_exact_kink_gives_zero(self, fine_grid):
        f = sample_state(Kink(KinkParams(0.2, 0.0)), fine_grid, 0.0)
        inv = inverse_transform(f, 0.2, 0.0)
        assert abs(inv.delta) < 1e-8
        assert np.max(np.abs(inv.phi.phi.values)) < 1e-8

    def test_raises_typed_error_when_not_converged(self, fine_grid):
        a = KinkParams(0.2, 0.0).a
        f = forward_transform(small_state(fine_grid, 0.02), a, 0.0)
        with pytest.raises(BacklundConvergenceError):
            inverse_transform(f, 0.2, 0.0, tol=1e-30, max_iter=2)

    def test_center_solve_failure_is_typed(self, fine_grid, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("degenerate center slope")

        monkeypatch.setattr("sgkink.backlund.solve_center", fail)
        f = sample_state(Kink(KinkParams(0.2, 0.0)), fine_grid, 0.0)
        with pytest.raises(BacklundConvergenceError):
            inverse_transform(f, 0.2, 0.0)

    @given(amp=st.floats(-0.05, 0.05), mult=st.floats(-1.0, 1.0),
           width=st.floats(0.5, 3.0), center=st.floats(-3.0, 3.0),
           beta=st.floats(-0.6, 0.6), node=st.integers(-64, 63),
           frac=st.floats(0.05, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, amp, mult, width, center, beta, node,
                                 frac):
        g = make_grid(-32.0, 32.0, 4096)
        phi = bump_state(g, amp, mult * amp, width, center)
        anchor = g.x[g.n // 2 + node] + frac * g.dx
        f = forward_transform(phi, KinkParams(beta, 0.0).a, anchor)
        inv = inverse_transform(f, beta, anchor)
        assert np.max(np.abs(inv.phi.phi.values - phi.phi.values)) < 1e-8
        assert inv.residual_norm < 1e-8

    def test_json_is_deterministic(self, fine_grid):
        f = sample_state(Kink(KinkParams(0.2, 0.0)), fine_grid, 0.0)
        inv = inverse_transform(f, 0.2, 0.0)
        doc = json.loads(inv.to_json())
        assert set(doc) >= {"delta", "y", "beta", "center", "residual_norm",
                            "newton_steps", "residual_history"}
        assert doc["newton_steps"] == len(doc["residual_history"]) - 1
        assert doc["residual_history"][-1] < 1e-10
        assert inv.to_json() == inv.to_json()


class TestOperatorI:
    @pytest.mark.parametrize("x_min,x_max,n,beta,center,t", [
        (-32.0, 32.0, 4096, 0.0, 0.0, 0.0),
        (-32.0, 32.0, 4096, 0.6, 0.3, 2.0),
        (-32.0, 32.0, 4096, 0.0, 0.3 + 1.0 / 192, 0.0),
        (-32.0, 32.0, 4096, 0.0, -32.0, 0.0),
        (-32.0, 32.0, 4096, -0.5, 32.0 - 1.0 / 64 + 1.0, 2.0),
        # gamma |x - cbar| passes 710, where a direct cosh overflows
        (-1024.0, 1024.0, 65536, 0.0, 0.0, 0.0),
    ], ids=["centered", "moving", "off-node", "left-end", "right-end",
            "wide"])
    def test_sech_oracle(self, x_min, x_max, n, beta, center, t):
        # I(sech(z))(x) = (x - cbar) sech(z), z = gamma (x - cbar)
        g = make_grid(x_min, x_max, n)
        cbar = beta * t + center
        z = KinkParams(beta, 0.0).gamma * (g.x - cbar)
        out = operator_I(Field(g, sech(z)), beta, center, t)
        exact = (g.x - cbar) * sech(z)
        assert np.max(np.abs(out.values - exact)) < 1e-9

    def test_exponential_bound(self):
        g = make_grid(-32.0, 32.0, 4096)
        rng = np.random.default_rng(7)
        F = Field(g, np.exp(-g.x**2 / 4) * rng.normal(size=g.n))
        out = operator_I(F, 0.0, 0.0, 0.0)
        absF = np.abs(F.values)
        bound = np.array([
            2.0 * np.trapezoid(np.exp(-np.abs(x - g.x)) * absF, dx=g.dx)
            for x in g.x[:: g.n // 64]
        ])
        assert np.all(np.abs(out.values[:: g.n // 64]) <= bound + 1e-12)


class TestDampedCumsum:
    @given(q=st.floats(1e-6, 1.0, exclude_max=True),
           n=st.integers(1, 700).filter(lambda n: n & (n - 1)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_recurrence(self, q, n, seed):
        r = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        want, scale = np.empty(n), np.empty(n)  # scale: the same on |r|
        want[0], scale[0] = r[0], abs(r[0])
        for k in range(1, n):
            want[k] = q * want[k - 1] + r[k]
            scale[k] = q * scale[k - 1] + abs(r[k])
        assert np.all(np.abs(_damped_cumsum(r, q) - want) <= 1e-13 * scale)


class TestReconstruction:
    def test_orthogonality_exact(self):
        g = make_grid(-32.0, 32.0, 4096)
        phi = State(Field(g, 0.05 * np.exp(-g.x**2)),
                    Field(g, 0.03 * np.exp(-g.x**2)), 0.0, Topology.ZERO)
        rec = reconstruct_difference(phi, 0.2, 0.0)
        gamma = KinkParams(0.2, 0.0).gamma
        ortho = np.trapezoid(rec.values * sech(gamma * g.x), dx=g.dx)
        assert abs(ortho) < 1e-12
