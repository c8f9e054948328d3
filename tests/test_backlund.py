"""Backlund transform: forward, inverse, functional, and helpers."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from sgkink.backlund import (
    _BLOCK,
    BacklundConvergenceError,
    _beta,
    _blocked_scan,
    _cell_integrals,
    _damped_cumsum,
    _forward_f,
    _gauss_legendre4,
    _kink_sweep,
    _linearized_F2,
    _matmul,
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
    Lp,
    State,
    Topology,
    _local_poly,
    make_grid,
    norm,
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


def reference_rk4_matrices(h, m0, mm, m1):
    """_rk4_matrices as it was before it wrote its rows in place, kept
    verbatim as an oracle: the four rows copied through np.array."""
    def stage(m, k, s):  # m (I + s k)
        return _matmul(m, (1.0 + s * k[0], s * k[1], s * k[2], 1.0 + s * k[3]))
    k2 = stage(mm, m0, 0.5 * h)
    k3 = stage(mm, k2, 0.5 * h)
    k4 = stage(m1, k3, h)
    return np.array([eye + (h / 6.0) * (c1 + 2.0 * (c2 + c3) + c4) for
                     eye, c1, c2, c3, c4 in zip((1, 0, 0, 1), m0, k2, k3, k4)])


def reference_forward_f(grid, pv, ptv, a, center):
    """_forward_f with (phi, phi_t) stacked by np.c_, M's rows by np.array
    and the RK4 matrices by reference_rk4_matrices, the assembly that
    filling all three in place replaced."""
    x, dx, n = grid.x, grid.dx, grid.n
    v = np.array([pv, ptv])
    k0 = int(np.searchsorted(x, center))
    h_r, h_l = x[k0] - center, x[k0 - 1] - center
    at = center + np.array([0.0, 0.5 * h_r, h_r, 0.5 * h_l, h_l])
    mid = np.c_[v[:, :4] @ [5.0, 15.0, -5.0, 1.0],
                9.0 * (v[:, 1:-2] + v[:, 2:-1]) - v[:, :-3] - v[:, 3:],
                v[:, -4:] @ [1.0, -5.0, 15.0, 5.0]] / 16.0
    p, pt = np.c_[v, mid, _local_poly(x, v, at)]
    A = 0.25 * (a + 1.0 / a) * np.cos(0.5 * p)
    B = 0.25 * (1.0 / a - a) * np.sin(0.5 * p)
    M = np.array([A, B + 0.25 * pt, B - 0.25 * pt, -A])

    def side(h, anc, r):
        y = reference_rk4_matrices(h, M[:, 2 * n - 1], M[:, anc],
                                   M[:, anc + 1])
        return 4.0 * np.arctan2(*_blocked_scan(r, y.reshape(2, 2).sum(axis=1)))
    f = np.empty(n)
    f[k0:] = side(h_r, 2 * n, reference_rk4_matrices(
        dx, M[:, k0:n - 1], M[:, n + k0:2 * n - 1], M[:, k0 + 1:n]))
    if k0 > 0:
        f[k0 - 1::-1] = side(h_l, 2 * n + 2, reference_rk4_matrices(
            -dx, M[:, 1:k0], M[:, n:n + k0 - 1], M[:, :k0 - 1])[:, ::-1])
    return f


def reference_kink_sweep(grid, fv, c, gamma, outward):
    """_kink_sweep(grid, c, gamma)(fv, outward) on node indices from
    np.arange, gathered and scattered by fancy indexing: the sweep that
    the slice sweep replaced."""
    x, dx, n = grid.x, grid.dx, grid.n
    k0 = int(np.searchsorted(x, c))
    q = np.exp(-gamma * dx)
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(4)
    out = np.zeros(n)
    right = np.arange(max(0, min(k0 - 1, n - 4)), n)
    left = np.arange(min(n - 1, max(k0, 3)), -1, -1)
    for sign, idx, first in ((1.0, right, k0 - right[0]),
                             (-1.0, left, left[0] - k0 + 1)):
        if first >= len(idx):
            continue
        z = gamma * sign * (x[idx] - c)
        e = 1.0 + np.exp(-2.0 * z)
        if outward:
            cell = z[first] / gamma
            u = 0.5 * cell * (gl_nodes + 1.0)
            short = 0.5 * cell * np.sum(
                gl_weights * np.exp(-gamma * (cell - u))
                * (1.0 + np.exp(-2.0 * gamma * u))
                * _local_poly(x, fv, c + sign * u))
            J = _damped_cumsum(np.concatenate(
                [[short], _cell_integrals(e * fv[idx], dx, q)[first:]]), q)
            out[idx[first:]] = sign * J / e[first:]
        else:
            cells = _cell_integrals((fv[idx] / e)[::-1], dx, q)
            J = _damped_cumsum(np.r_[0.0, cells[:len(idx) - first - 1]], q)
            out[idx[first:]] = -sign * e[first:] * J[::-1]
    return out


def bits(a):
    """The bytes of a float array: equal bits, -0.0 apart from 0.0."""
    return np.asarray(a, dtype=float).tobytes()


def reference_prefix_products(r):
    """Column i becomes r_i ... r_0 over (4, m) components, by log-depth
    doubling; each pass divides the new partial products by their largest
    entry, which keeps their direction and rules out overflow on any grid."""
    s = 1
    while s < r.shape[1]:
        prod = np.array(_matmul(r[:, s:], r[:, :-s]))
        r[:, s:] = prod / np.abs(prod).max(axis=0)
        s *= 2
    return r


def step_matrices(rng, m, growth):
    """m random 2x2 matrices over (4, m).  growth 0: within about 0.1 of the
    identity.  Otherwise rot(t1) diag(e^g, e^-g) rot(t2)^T with g within 10%
    below growth and both axes within 0.6 of the diagonal, so consecutive
    products stretch along nearby directions and stay well conditioned."""
    if growth == 0.0:
        return (np.array([[1.0], [0.0], [0.0], [1.0]])
                + 0.1 * rng.standard_normal((4, m)))
    g = growth * rng.uniform(0.9, 1.0, m)
    t1, t2 = np.pi / 4 + rng.uniform(-0.6, 0.6, (2, m))
    c1, s1, c2, s2 = np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2)
    ep, em = np.exp(g), np.exp(-g)
    return np.array([c1 * c2 * ep + s1 * s2 * em, c1 * s2 * ep - s1 * c2 * em,
                     s1 * c2 * ep - c1 * s2 * em, s1 * s2 * ep + c1 * c2 * em])


def reference_linearized_F2(g, base, t):
    """(lambda, w) by w = cosh(z) v, z = gamma0 (x - center), with v the
    antiderivative of r sech(z) accumulated from the left end left of the
    center and from the right end right of it, and the cosh product taken
    in log space."""
    grid = g.grid
    center = base.x0 + base.beta * t
    z = base.gamma * (grid.x - center)
    s = sech(z)
    c_lam = 1.0 + 1.0 / base.a**2
    denom = c_lam * float(np.trapezoid(s * s, dx=grid.dx))
    lam = float(np.trapezoid(g.values * s, dx=grid.dx)) / denom
    inc = _cell_integrals((c_lam * lam * s - g.values) * s, grid.dx, 1.0)
    prefix = np.concatenate([[0.0], np.cumsum(inc)])
    suffix = np.concatenate([np.cumsum(inc[::-1])[::-1], [0.0]])
    k0 = int(np.searchsorted(grid.x, center))
    v = np.concatenate([prefix[:k0], -suffix[k0:]])
    log_cosh = np.abs(z) + np.log1p(np.exp(-2.0 * np.abs(z))) - np.log(2.0)
    w = np.zeros(grid.n)
    nz = v != 0.0
    w[nz] = np.sign(v[nz]) * np.exp(log_cosh[nz] + np.log(np.abs(v[nz])))
    return lam, w


def reference_operator_I(F, beta, center, t):
    """I F by the plain antiderivative of cosh(z) F, z = gamma (x - cbar),
    accumulated outward from cbar = beta t + center and divided by cosh(z).
    As in operator_I, the cells from cbar to the nearest node on each side
    integrate the local quintic of F, here by adaptive quadrature."""
    grid = F.grid
    x, fv = grid.x, F.values
    cbar = beta * t + center
    gamma = KinkParams(beta, 0.0).gamma
    cz = np.cosh(gamma * (x - cbar))
    inc = _cell_integrals(cz * fv, grid.dx, 1.0)

    def short(a, b):
        return quad(lambda y: math.cosh(gamma * (y - cbar))
                    * float(_local_poly(x, fv, y)[0]), a, b,
                    epsabs=0.0, epsrel=1e-13)[0]

    k0 = int(np.searchsorted(x, cbar))
    out = np.zeros(grid.n)
    if k0 < grid.n:  # x[k0:] right of cbar, the cells from x[k0] summed
        out[k0:] = (short(cbar, x[k0])
                    + np.concatenate([[0.0], np.cumsum(inc[k0:])])) / cz[k0:]
    if k0 > 0:  # x[:k0] left of cbar, the cells to x[k0 - 1] summed
        left = np.concatenate([np.cumsum(inc[:k0 - 1][::-1])[::-1], [0.0]])
        out[:k0] = -(short(x[k0 - 1], cbar) + left) / cz[:k0]
    return out


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
    @pytest.mark.parametrize(
        "anchor", [0.25, 0.3, 0.25 + 1e-12, 0.25 + 1 / 256 - 1e-12],
        ids=["on-node", "off-node", "just-past-node", "just-short-of-node"])
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
        base = KinkParams(0.3, 0.5)
        zero = Field(fine_grid, np.zeros(fine_grid.n))
        trip = eval_F(0.0, 0.0, zero, zero, zero, zero, base, 0.0)
        assert np.max(np.abs(trip.F1.values)) < 1e-10
        assert np.max(np.abs(trip.F2.values)) < 1e-10
        assert abs(trip.F3) < 1e-10

    def test_f3_slope_in_y(self, fine_grid):
        base = KinkParams(0.3, 0.5)
        zero = Field(fine_grid, np.zeros(fine_grid.n))
        h = 1e-6
        vals = []
        for y in (h, -h):
            trip = eval_F(0.0, y, zero, zero, zero, zero, base, 0.0)
            vals.append(trip.F3)
        slope = (vals[0] - vals[1]) / (2 * h)
        assert slope == pytest.approx(4.0, abs=1e-5)


    def test_f3_is_the_orthogonality_integral(self, fine_grid):
        base, t = KinkParams(0.3, 0.2), 0.5
        delta, y = 0.05, 0.1
        bump = np.exp(-fine_grid.x**2)
        u0 = Field(fine_grid, 0.02 * bump)
        v0 = Field(fine_grid, 0.01 * bump)
        zero = Field(fine_grid, np.zeros(fine_grid.n))
        f3 = eval_F(delta, y, v0, zero, u0, zero, base, t).F3
        q0 = kink_identities(base, t, fine_grid.x)["Q"]
        f = Field(fine_grid, u0.values + q0)
        beta_d = _beta(base.a + delta)
        g = _orthogonality(f, beta_d, 0.0, base.x0 + base.beta * t + y)[0]
        assert abs(f3 - g) < 1e-14


class TestLinearizedF2:
    def test_residual_and_boundedness(self, fine_grid):
        base = KinkParams(0.2, 0.0)
        g = Field(fine_grid, 0.1 * np.exp(-fine_grid.x**2))
        out = solve_linearized_F2(g, base, 0.0)
        w, lam = out["w"], out["lambda"]
        from sgkink.fields import spatial_derivative
        from sgkink.exact import kink_identities
        ids = kink_identities(base, 0.0, fine_grid.x)
        gamma0, a0 = base.gamma, base.a
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
        base = KinkParams(beta0, center)
        rhs = Field(g, np.exp(-(((g.x - mu) / width) ** 2)))
        out = solve_linearized_F2(rhs, base, 0.0)
        lam, w = reference_linearized_F2(rhs, base, 0.0)
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

    def test_center_is_in_kink_params_frame(self):
        # the base kink (beta0 0.2, x0 1.5) sits where the data's kink does
        # at t = 10, but moves at another speed; the recovered x0 must not
        # carry the base's speed
        g = make_grid(-64.0, 64.0, 4096)
        f = sample_state(Kink(KinkParams(0.25, 1.0)), g, 10.0)
        inv = inverse_transform(f, 0.2, 1.5)
        assert inv.a == pytest.approx(KinkParams(0.25, 0.0).a, abs=1e-10)
        q = kink_identities(KinkParams(inv.beta, inv.center), f.time, g.x)
        assert np.max(np.abs(f.phi.values - q["Q"])) <= 1e-9

    def test_raises_typed_error_when_not_converged(self, fine_grid,
                                                   monkeypatch):
        monkeypatch.setattr("sgkink.backlund._INVERSE_TOL", 1e-30)
        monkeypatch.setattr("sgkink.backlund._INVERSE_MAX_ITER", 2)
        a = KinkParams(0.2, 0.0).a
        f = forward_transform(small_state(fine_grid, 0.02), a, 0.0)
        with pytest.raises(BacklundConvergenceError, match="failed to reach"):
            inverse_transform(f, 0.2, 0.0)

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

    @given(beta=st.floats(-0.6, 0.6),
           where=st.sampled_from(["node", "off-node", "left", "right"]),
           node=st.integers(-512, 511), frac=st.floats(0.05, 0.95),
           end=st.integers(0, 3), t=st.floats(0.0, 4.0),
           mu=st.floats(-6.0, 6.0), width=st.floats(0.3, 3.0))
    @settings(max_examples=40, deadline=None)
    # centers on and next to each end node
    @example(0.3, "left", 0, 0.0, 0, 0.0, 0.0, 1.0)
    @example(-0.3, "right", 0, 0.0, 3, 0.0, 0.0, 1.0)
    @example(0.3, "off-node", 510, 0.5, 0, 0.0, 12.0, 1.0)
    @example(0.0, "off-node", 511, 0.5, 0, 0.0, 0.0, 1.0)
    @example(-0.3, "node", 511, 0.5, 0, 0.0, 12.0, 1.0)
    def test_matches_antiderivative_reference(self, beta, where, node, frac,
                                              end, t, mu, width):
        g = make_grid(-16.0, 16.0, 1024)
        cbar = {"node": g.x[g.n // 2 + node],
                # the last cell starts at node 510; past node 511 is off grid
                "off-node": g.x[g.n // 2 + min(node, 510)] + frac * g.dx,
                "left": g.x[end] + frac * g.dx,  # within 4 nodes of an end
                "right": g.x[-1 - end] - frac * g.dx}[where]
        center = cbar - beta * t
        # at an end node, beta t + center can round off the grid
        assume(g.x[0] <= beta * t + center <= g.x[-1])
        F = Field(g, np.exp(-(((g.x - mu) / width) ** 2)))
        out = operator_I(F, beta, center, t).values
        ref = reference_operator_I(F, beta, center, t)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

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


class TestSliceSweep:
    """The slice sweep against the index-array sweep it replaced, bit for
    bit: the stencil clamps min(k0 - 1, n - 4) and max(k0, 3) decide where
    each side's slice starts."""

    GRID = make_grid(-16.0, 16.0, 1024)
    X = GRID.x

    @pytest.mark.parametrize("outward", [False, True],
                             ids=["inward", "outward"])
    @pytest.mark.parametrize("c", [
        X[0] - 0.7, X[0], X[1], X[2], X[3], X[512] + 0.37 * GRID.dx, X[-4],
        X[-1], X[-1] + 0.7,
    ], ids=["before-x0", "x0", "x1", "x2", "x3", "mid", "x-4", "x-1",
            "past-end"])
    def test_matches_index_sweep(self, c, outward):
        g = self.GRID
        fv = np.exp(-((g.x - 0.5) / 2.0) ** 2) + 0.3 * np.sin(g.x)
        gamma = KinkParams(0.3, 0.0).gamma
        got = _kink_sweep(g, c, gamma)(fv, outward)
        assert bits(got) == bits(reference_kink_sweep(g, fv, c, gamma,
                                                      outward))

    @given(amps=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
           mus=st.lists(st.floats(-8.0, 8.0), min_size=3, max_size=3),
           width=st.floats(0.3, 4.0), beta=st.floats(-0.9, 0.9),
           node=st.integers(-3, 258), frac=st.sampled_from([0.0, 0.5, 0.99]),
           outward=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_index_sweep_property(self, amps, mus, width, beta, node,
                                          frac, outward):
        g = make_grid(-8.0, 8.0, 256)
        fv = sum(a * np.exp(-((g.x - m) / width) ** 2)
                 for a, m in zip(amps, mus))
        c = g.x[0] + (node + frac) * g.dx  # from before x[0] to past x[-1]
        gamma = KinkParams(beta, 0.0).gamma
        sweep = _kink_sweep(g, c, gamma)
        want = reference_kink_sweep(g, fv, c, gamma, outward)
        assert bits(sweep(fv, outward)) == bits(want)
        # the prepared geometry is not changed by a sweep
        assert bits(sweep(fv, outward)) == bits(want)

    def test_gauss_legendre_is_cached(self):
        nodes, weights = _gauss_legendre4()
        assert _gauss_legendre4() is _gauss_legendre4()
        want = np.polynomial.legendre.leggauss(4)
        assert bits(nodes) == bits(want[0]) and bits(weights) == bits(want[1])


class TestPreparedKernels:
    """forward_transform's in-place M, the prepared F2 solver and
    inverse_transform's closing residual against their oracles, bit for
    bit."""

    @pytest.mark.parametrize("data", [small_state, odd_sech_state],
                             ids=["gaussian", "odd-sech"])
    @pytest.mark.parametrize("where", ["x0", "x1", "mid", "x-1"])
    def test_forward_matches_stacked_assembly(self, data, where):
        g = make_grid(-16.0, 16.0, 1024)
        anchor = {"x0": g.x[0],  # k0 = 0: no left side
                  "x1": g.x[1], "mid": g.x[512] + 0.37 * g.dx,
                  "x-1": g.x[-1]}[where]
        phi = data(g, 0.05)
        pv, ptv = phi.phi.values, phi.phi_t.values
        a = KinkParams(0.3, 0.0).a
        want = reference_forward_f(g, pv, ptv, a, anchor)
        assert bits(_forward_f(g, pv, ptv, a, anchor)) == bits(want)
        if where == "mid":  # near an end, the tails check refuses the anchor
            assert bits(forward_transform(phi, a, anchor).phi.values) == \
                bits(want)

    @pytest.mark.parametrize("beta0,x0,t", [(0.2, 0.0, 0.0), (-0.5, 0.3, 1.5),
                                            (0.3, -16.5, 0.0),
                                            (0.3, 16.2, 0.0)],
                             ids=["centered", "moving", "left", "right"])
    def test_public_F2_is_the_prepared_solve(self, beta0, x0, t):
        g = make_grid(-16.0, 16.0, 1024)
        base = KinkParams(beta0, x0)
        solve = _linearized_F2(g, base, t)
        for mu in (0.0, 2.0, 0.0):  # a solve leaves the prepared state alone
            r = np.exp(-((g.x - mu) / 1.5) ** 2)
            lam, w = solve(r)
            out = solve_linearized_F2(Field(g, r), base, t)
            assert out["lambda"] == lam
            assert bits(out["w"].values) == bits(w)

    @pytest.mark.parametrize("eps,beta,t", [(0.0, 0.2, 0.0), (0.03, 0.2, 0.0),
                                            (0.05, -0.4, 1.5)],
                             ids=["kink", "gaussian", "moving"])
    def test_closing_residual_is_eval_F(self, eps, beta, t):
        # residual_norm is read off the stages; it must be eval_F's |F| at
        # the result, from the start (no Newton step) and after several
        g = make_grid(-16.0, 16.0, 1024)
        phi = small_state(g, eps)
        phi = State(phi.phi, phi.phi_t, t, Topology.ZERO)
        f = forward_transform(phi, KinkParams(beta, 0.0).a, 0.0)
        inv = inverse_transform(f, beta, 0.0)
        assert (inv.newton_steps == 0) == (eps == 0.0)
        ids = kink_identities(inv.base, t, g.x)
        tri = eval_F(inv.delta, inv.y, inv.phi.phi, inv.phi.phi_t,
                     Field(g, f.phi.values - ids["Q"]),
                     Field(g, f.phi_t.values - ids["Q_t"]), inv.base, t)
        want = float(np.sqrt(norm(tri.F1, Lp(2)) ** 2
                             + norm(tri.F2, Lp(2)) ** 2 + tri.F3**2))
        assert inv.residual_norm == want


class TestBlockedScan:
    @given(m=st.one_of(st.just(1), st.integers(2, _BLOCK - 1), st.just(_BLOCK),
                       st.integers(2, 12).map(lambda k: k * _BLOCK),
                       st.integers(1, 12).map(lambda k: k * _BLOCK + 1)),
           growth=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
           seed=st.integers(0, 2**32 - 1))
    # unless b is cut, a block's product of these overflows
    @example(m=8 * _BLOCK + 1, growth=50.0, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_matches_doubling(self, m, growth, seed):
        # r_0 is the partial cell the scan starts from; m counts the rest
        r = step_matrices(np.random.default_rng(seed), m + 1, growth)
        y = np.array([r[0, 0] + r[1, 0], r[2, 0] + r[3, 0]])
        got = np.arctan2(*_blocked_scan(r[:, 1:], y))
        P = reference_prefix_products(r.copy())
        want = np.arctan2(P[0] + P[1], P[2] + P[3])
        assert got.shape == (m + 1,)
        assert np.all(np.abs(np.angle(np.exp(1j * (got - want)))) < 1e-13)


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
