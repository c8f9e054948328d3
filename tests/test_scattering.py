"""Wave-packet testing: packets, profile extraction, predictors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from sgkink.fields import Field, State, Topology, make_grid
from sgkink.scattering import (
    ExtractionMethod,
    KinkDerivDiff,
    KinkDiff,
    ProfileW,
    U,
    WavePacketSpec,
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


def analytic_free_W(eps, xiv):
    """Stationary-phase profile of the free flow of Gaussian data."""
    hat = eps * np.sqrt(np.pi) * np.exp(-(xiv**2) / 4)
    hat = hat * (1 + 1j / np.sqrt(1 + xiv**2))
    return (2 * np.pi) ** -0.5 * (1 + xiv**2) ** 0.75 * hat * np.exp(-1j * np.pi / 4)


class TestWavePacketSpec:
    @given(c=st.floats(0.01, 0.24))
    @settings(max_examples=15, deadline=None)
    def test_unit_integral_and_positivity(self, c):
        spec = WavePacketSpec(c)
        val, _ = quad(spec.chi, -c, c)
        assert val == pytest.approx(1.0, abs=1e-10)
        ys = np.linspace(-2 * c, 2 * c, 801)
        assert np.all(spec.chi(ys) >= 0)
        assert np.all(spec.chi(ys[np.abs(ys) >= c]) == 0)

    def test_rejects_bad_radius(self):
        for c in (0.0, 0.3, -0.1):
            with pytest.raises(ValueError):
                WavePacketSpec(c)


class TestWavePacket:
    def test_localized_near_ray(self, grid):
        spec = WavePacketSpec(0.1)
        t, v = 200.0, 0.4
        psi = wave_packet(grid, t, v, spec)
        support = np.abs(psi.values) > 0
        assert np.all(np.abs(grid.x[support] - v * t)
                      <= spec.chi_radius * np.sqrt(t) + grid.dx)

    def test_support_errors(self):
        g = make_grid(-64.0, 64.0, 1024)
        spec = WavePacketSpec(0.1)
        with pytest.raises(ValueError):
            wave_packet(g, 200.0, 0.9, spec)  # ray leaves the grid


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
        out = gamma_profile(u, 150.0, [0.0, 0.3], WavePacketSpec(0.1))
        assert np.all(out == 0)

    def test_normalization_probe(self, grid):
        spec = WavePacketSpec(0.1)
        t, v = 150.0, 0.2
        psi = wave_packet(grid, t, v, spec)
        n2 = np.trapezoid(np.abs(psi.values) ** 2, dx=grid.dx)
        u = Field(grid, psi.values / n2)
        out = gamma_profile(u, t, [v], spec)
        assert abs(out[0] - 1.0) < 1e-12


class TestExtractW:
    @pytest.mark.parametrize("method", list(ExtractionMethod))
    def test_free_flow_oracle(self, grid, method):
        eps, t = 0.05, 400.0
        xi = np.linspace(-3.0, 3.0, 61)
        W = extract_W(free_state(grid, eps, t), xi, WavePacketSpec(0.1),
                      method)
        # undo the log-phase removal: the free flow has no phase drift
        jap = np.sqrt(1 + xi**2)
        raw = W.W * np.exp(1j / (32 * jap) * np.abs(W.W) ** 2 * np.log(t))
        exact = analytic_free_W(eps, xi)
        err = np.max(np.abs(raw - exact)) / np.max(np.abs(exact))
        assert err < 0.02

    def test_zero_trajectory(self, grid):
        z = np.zeros(grid.n)
        s = State(Field(grid, z), Field(grid, z.copy()), 150.0, Topology.ZERO)
        W = extract_W(s, np.linspace(-2, 2, 21), WavePacketSpec(0.1))
        assert np.all(W.W == 0)

    def test_rejects_early_extraction(self, grid):
        with pytest.raises(ValueError):
            extract_W(free_state(grid, 0.05, 50.0), np.linspace(-2, 2, 21),
                      WavePacketSpec(0.1))


@pytest.fixture(scope="module")
def profile():
    xi = np.linspace(-4.0, 4.0, 81)
    W = np.exp(-np.abs(xi)) * (0.04 + 0.03j)
    return ProfileW(xi, W, 400.0, ExtractionMethod.WAVE_PACKET)


class TestPredictAsymptotics:
    def test_light_cone_support(self, profile):
        t = 200.0
        x = np.array([-250.0, -200.0, 200.0, 250.0])
        out = predict_asymptotics(profile, t, x, U(0))
        assert np.all(out == 0)

    def test_center_of_cone_value(self, profile):
        t = 200.0
        out = predict_asymptotics(profile, t, 0.0, U(0))
        assert abs(out) == pytest.approx(
            t**-0.5 * abs(profile.interpolate(0.0)), rel=1e-12
        )

    def test_free_flow_prediction(self, grid):
        eps, t = 0.05, 300.0
        xi = np.linspace(-3.0, 3.0, 121)
        Wp = ProfileW(xi, analytic_free_W(eps, xi), t,
                      ExtractionMethod.STATIONARY_PHASE)
        s = free_state(grid, eps, t)
        u = to_complex_u(s)
        mask = np.abs(grid.x) <= t / 2
        pred = predict_asymptotics(Wp, t, grid.x[mask], U(0))
        resid = np.max(np.abs(u.values[mask] - pred))
        assert resid / (t**-0.5 * np.max(np.abs(Wp.W))) < 0.01

    def test_zero_profile_gives_zero_everywhere(self):
        xi = np.linspace(-2, 2, 21)
        Wp = ProfileW(xi, np.zeros(21, dtype=complex), 200.0,
                      ExtractionMethod.WAVE_PACKET)
        g = make_grid(-64.0, 64.0, 1024)
        assert np.all(predict_asymptotics(Wp, 100.0, g.x, U(0)) == 0)
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

    def test_kink_diff_converges_with_the_grid(self):
        # a profile that is smooth and negligible at the ends of its range,
        # so the only corner left is the kink center beta t + 0.1 = 20.1,
        # off every node of both grids
        xi = np.linspace(-4.0, 4.0, 81)
        smooth = ProfileW(xi, np.exp(-xi * xi) * (0.04 + 0.03j), 400.0,
                          ExtractionMethod.WAVE_PACKET)
        t, target = 100.0, KinkDiff(0.2, 0.1)
        fine = make_grid(-128.0, 128.0, 65536)
        coarse = make_grid(-128.0, 128.0, 2048)
        ref = predict_asymptotics(smooth, t, fine.x, target)[::32]
        out = predict_asymptotics(smooth, t, coarse.x, target)
        assert np.max(np.abs(out - ref)) < 1e-6

    def test_scalar_xi_out_of_range_raises(self, profile):
        with pytest.raises(ValueError):
            predict_asymptotics(profile, 100.0, 99.9, U(0))

