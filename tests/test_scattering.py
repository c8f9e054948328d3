"""Wave-packet testing: packets, profile extraction, predictors."""

import numpy as np
import pytest
from scipy.integrate import quad

from sgkink.fields import Field, State, Topology, _local_poly, make_grid
from sgkink.scattering import (
    _CHI_RADIUS,
    KinkDerivDiff,
    KinkDiff,
    ProfileW,
    U,
    _chi,
    _max_reachable_xi,
    _remove_log_phase,
    extract_W,
    gamma_profile,
    predict_asymptotics,
    to_complex_u,
    wave_packet,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(-1024.0, 1024.0, 32768)


def free_state(grid, eps, t):
    """Exact linear Klein-Gordon evolution of Gaussian data."""
    prof = eps * np.exp(-grid.x**2)
    xi = 2 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    jap = np.sqrt(1 + xi**2)
    u0h = np.fft.fft(prof) + 1j * np.fft.fft(prof) / jap
    u = np.fft.ifft(u0h * np.exp(-1j * jap * t))
    phi = u.real
    phi_t = np.fft.ifft(jap * np.fft.fft(u.imag)).real
    return State(Field(grid, phi), Field(grid, phi_t), t, Topology.ZERO)


def reference_stationary_phase(s, xi_grid):
    """W(xi) read by stationary phase, the oracle for extract_W's wave
    packets: along the ray x = vt, u is t^{-1/2} e^{-i rho} W(xi) to leading
    order, rho = t/<xi>, so W is sqrt(t) e^{i rho} u(vt), with u sampled off
    the grid by its local quintic; the log phase is removed as extract_W
    removes it.  Rays past the grid's ends are refused."""
    t = s.time
    xi_grid = np.asarray(xi_grid, dtype=float)
    jap = np.sqrt(1.0 + xi_grid * xi_grid)
    v = xi_grid / jap
    u = to_complex_u(s)
    x, rays = u.grid.x, v * t
    off = np.flatnonzero((rays < x[0]) | (rays > x[-1]))
    if off.size:
        k = off[0]
        end = x[0] if rays[k] < x[0] else x[-1]
        raise ValueError(f"ray x = vt = {rays[k]:.2f} (xi = "
                         f"{xi_grid[k]:g}) lies past the grid end "
                         f"{end:.2f}")
    uv = _local_poly(x, u.values, rays)
    rho = t / jap  # rho = sqrt(t^2 - (vt)^2)
    raw = np.sqrt(t) * np.exp(1j * rho) * uv
    return ProfileW(xi_grid, _remove_log_phase(raw, xi_grid, t), t)


def analytic_free_W(eps, xiv):
    """Stationary-phase profile of the free flow of Gaussian data."""
    hat = eps * np.sqrt(np.pi) * np.exp(-(xiv**2) / 4)
    hat = hat * (1 + 1j / np.sqrt(1 + xiv**2))
    return (2 * np.pi) ** -0.5 * (1 + xiv**2) ** 0.75 * hat * np.exp(-1j * np.pi / 4)


class TestChi:
    def test_unit_integral_and_positivity(self):
        c = _CHI_RADIUS
        val, _ = quad(_chi, -c, c)
        assert val == pytest.approx(1.0, abs=1e-10)
        ys = np.linspace(-2 * c, 2 * c, 801)
        assert np.all(_chi(ys) >= 0)
        assert np.all(_chi(ys[np.abs(ys) >= c]) == 0)


class TestWavePacket:
    def test_localized_near_ray(self, grid):
        t, v = 200.0, 0.4
        psi = wave_packet(grid, t, v)
        support = np.abs(psi.values) > 0
        assert np.all(np.abs(grid.x[support] - v * t)
                      <= _CHI_RADIUS * np.sqrt(t) + grid.dx)

    def test_support_errors(self):
        g = make_grid(-64.0, 64.0, 1024)
        with pytest.raises(ValueError):
            wave_packet(g, 200.0, 0.9)  # ray leaves the grid


class TestToComplexU:
    def test_real_part_is_phi(self, grid):
        rng = np.random.default_rng(3)
        phi = np.exp(-grid.x**2) * rng.normal(size=grid.n)
        phi_t = np.exp(-grid.x**2) * rng.normal(size=grid.n)
        s = State(Field(grid, phi), Field(grid, phi_t), 0.0, Topology.ZERO)
        u = to_complex_u(s)
        assert np.array_equal(u.values.real, phi)

    def test_eigenfunction(self, grid):
        k = 2 * np.pi * 64 / grid.length
        s = State(Field(grid, np.zeros(grid.n)),
                  Field(grid, np.cos(k * grid.x)), 0.0, Topology.ZERO)
        u = to_complex_u(s)
        expect = 1j * (1 + k * k) ** -0.5 * np.cos(k * grid.x)
        assert np.max(np.abs(u.values - expect)) < 1e-12

    def test_rejects_kink_topology(self):
        g = make_grid(-64.0, 64.0, 1024)
        f = 4 * np.arctan(np.exp(g.x))
        s = State(Field(g, f), Field(g, np.zeros(g.n)), 0.0, Topology.KINK)
        with pytest.raises(ValueError):
            to_complex_u(s)


class TestGammaProfile:
    def test_zero_field(self, grid):
        u = Field(grid, np.zeros(grid.n, dtype=complex))
        out = gamma_profile(u, 150.0, [0.0, 0.3])
        assert np.all(out == 0)

    def test_normalization_probe(self, grid):
        t, v = 150.0, 0.2
        psi = wave_packet(grid, t, v)
        n2 = np.trapezoid(np.abs(psi.values) ** 2, dx=grid.dx)
        u = Field(grid, psi.values / n2)
        out = gamma_profile(u, t, [v])
        assert abs(out[0] - 1.0) < 1e-12


class TestExtractW:
    @pytest.mark.parametrize("read", [extract_W, reference_stationary_phase],
                             ids=["wave-packet", "stationary-phase"])
    def test_free_flow_oracle(self, grid, read):
        eps, t = 0.05, 400.0
        xi = np.linspace(-3.0, 3.0, 61)
        W = read(free_state(grid, eps, t), xi)
        # undo the log-phase removal: the free flow has no phase drift
        jap = np.sqrt(1 + xi**2)
        raw = W.W * np.exp(1j / (32 * jap) * np.abs(W.W) ** 2 * np.log(t))
        exact = analytic_free_W(eps, xi)
        err = np.max(np.abs(raw - exact)) / np.max(np.abs(exact))
        assert err < 0.02

    def test_zero_trajectory(self, grid):
        z = np.zeros(grid.n)
        s = State(Field(grid, z), Field(grid, z.copy()), 150.0, Topology.ZERO)
        W = extract_W(s, np.linspace(-2, 2, 21))
        assert np.all(W.W == 0)

    def test_rays_off_the_grid_refused(self):
        # at t=100, xi = -3 puts the ray at vt = -94.87, past x[0] = -64
        small = make_grid(-64.0, 64.0, 1024)
        s = State(Field(small, 0.01 * np.exp(-small.x**2)),
                  Field(small, np.zeros(small.n)), 100.0, Topology.ZERO)
        with pytest.raises(ValueError, match="leaks off grid"):
            extract_W(s, np.linspace(-3.0, 3.0, 61))

    def test_packet_reach_is_what_wave_packet_accepts(self):
        # the last node of [-80, 80) with n = 2048 is 80 - dx, dx = 0.078125;
        # the reach at t = 100 is bound by it, not by x_max
        grid = make_grid(-80.0, 80.0, 2048)
        xi = _max_reachable_xi(grid, 100.0)
        zero = Field(grid, np.zeros(grid.n))
        s = State(zero, zero, 100.0, Topology.ZERO)
        assert not np.any(extract_W(s, np.linspace(-xi, xi, 61)).W)
        with pytest.raises(ValueError, match="leaks off grid"):
            extract_W(s, [1.0001 * xi])

    def test_rejects_early_extraction(self, grid):
        with pytest.raises(ValueError):
            extract_W(free_state(grid, 0.05, 50.0), np.linspace(-2, 2, 21))


@pytest.fixture(scope="module")
def profile():
    xi = np.linspace(-4.0, 4.0, 81)
    W = np.exp(-np.abs(xi)) * (0.04 + 0.03j)
    return ProfileW(xi, W, 400.0)


class TestPredictAsymptotics:
    def test_light_cone_support(self, profile):
        t = 200.0
        x = np.array([-250.0, -200.0, 200.0, 250.0])
        out = predict_asymptotics(profile, t, x, U())
        assert np.all(out == 0)

    def test_center_of_cone_value(self, profile):
        t = 200.0
        out = predict_asymptotics(profile, t, 0.0, U())
        assert abs(out) == pytest.approx(
            t**-0.5 * abs(profile.interpolate(0.0)), rel=1e-12
        )

    def test_free_flow_prediction(self, grid):
        eps, t = 0.05, 300.0
        xi = np.linspace(-3.0, 3.0, 121)
        Wp = ProfileW(xi, analytic_free_W(eps, xi), t)
        s = free_state(grid, eps, t)
        u = to_complex_u(s)
        mask = np.abs(grid.x) <= t / 2
        pred = predict_asymptotics(Wp, t, grid.x[mask], U())
        resid = np.max(np.abs(u.values[mask] - pred))
        assert resid / (t**-0.5 * np.max(np.abs(Wp.W))) < 0.01

    def test_zero_profile_gives_zero_everywhere(self):
        xi = np.linspace(-2, 2, 21)
        Wp = ProfileW(xi, np.zeros(21, dtype=complex), 200.0)
        g = make_grid(-64.0, 64.0, 1024)
        assert np.all(predict_asymptotics(Wp, 100.0, g.x, U()) == 0)
        assert np.all(predict_asymptotics(Wp, 100.0, g.x, KinkDiff(0.2, 0.0))
                      == 0)

    def test_kink_diff_components_supported_in_cone(self, profile):
        g = make_grid(-256.0, 256.0, 4096)
        t = 100.0
        dx_pred, dt_pred = predict_asymptotics(
            profile, t, g.x, KinkDerivDiff(0.2, 0.0)
        )
        diff = predict_asymptotics(profile, t, g.x, KinkDiff(0.2, 0.0))
        # outside the cone only the exponentially small tail of the
        # cosh-ratio integral survives
        outside = np.abs(g.x) >= t + 20.0
        assert np.max(np.abs(diff[outside])) < 1e-8
        assert np.all(np.isfinite(dx_pred)) and np.all(np.isfinite(dt_pred))

    @pytest.mark.parametrize("target", [KinkDiff(0.2, 0.1),
                                        KinkDerivDiff(0.2, 0.1)])
    @pytest.mark.parametrize("x", [20.0, [20.0]])
    def test_kink_diff_refuses_a_single_point(self, profile, target, x):
        with pytest.raises(ValueError, match="need an equispaced array"):
            predict_asymptotics(profile, 100.0, x, target)

    def test_kink_diff_converges_with_the_grid(self):
        # a profile that is smooth and negligible at the ends of its range,
        # so the only corner left is the kink center beta t + 0.1 = 20.1,
        # off every node of both grids
        xi = np.linspace(-4.0, 4.0, 81)
        smooth = ProfileW(xi, np.exp(-xi * xi) * (0.04 + 0.03j), 400.0)
        t, target = 100.0, KinkDiff(0.2, 0.1)
        fine = make_grid(-128.0, 128.0, 65536)
        coarse = make_grid(-128.0, 128.0, 2048)
        ref = predict_asymptotics(smooth, t, fine.x, target)[::32]
        out = predict_asymptotics(smooth, t, coarse.x, target)
        assert np.max(np.abs(out - ref)) < 1e-6

    def test_scalar_xi_out_of_range_raises(self, profile):
        with pytest.raises(ValueError):
            predict_asymptotics(profile, 100.0, 99.9, U())

