"""Backlund transform: forward, inverse, functional, and helpers."""

import json

import numpy as np
import pytest

from sgkink.backlund import (
    BacklundParam,
    FContext,
    backlund_residual,
    eval_F,
    forward_transform,
    inverse_transform,
    operator_I,
    reconstruct_difference,
    solve_linearized_F2,
)
from sgkink.evolve import Scheme, SchemeKind, evolve
from sgkink.exact import Kink, KinkParams, sample_state, sech
from sgkink.fields import Field, State, Topology, make_grid


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


class TestBacklundParam:
    @pytest.mark.parametrize("beta", [-0.5, 0.0, 0.5])
    def test_velocity_parameter_correspondence(self, beta):
        a = KinkParams(beta, 0.0).a
        p = BacklundParam(a)
        assert p.beta == pytest.approx(beta, abs=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BacklundParam(-1.0)


class TestForwardTransform:
    @pytest.mark.parametrize("beta", [0.0, 0.5, -0.5])
    def test_zero_maps_to_kink(self, fine_grid, beta):
        a = KinkParams(beta, 0.0).a
        f = forward_transform(zero_state(fine_grid), a, 0.3)
        exact = sample_state(Kink(KinkParams(beta, 0.3)), fine_grid, 0.0)
        assert np.max(np.abs(f.phi.values - exact.phi.values)) < 1e-8
        assert np.max(np.abs(f.phi_t.values - exact.phi_t.values)) < 1e-8

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

    def test_json_is_deterministic(self, fine_grid):
        f = sample_state(Kink(KinkParams(0.2, 0.0)), fine_grid, 0.0)
        inv = inverse_transform(f, 0.2, 0.0)
        doc = json.loads(inv.to_json())
        assert set(doc) >= {"delta", "y", "beta", "center", "residual_norm"}
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


class TestReconstruction:
    def test_orthogonality_exact(self):
        g = make_grid(-32.0, 32.0, 4096)
        phi = State(Field(g, 0.05 * np.exp(-g.x**2)),
                    Field(g, 0.03 * np.exp(-g.x**2)), 0.0, Topology.ZERO)
        rec = reconstruct_difference(phi, 0.2, 0.0)
        gamma = KinkParams(0.2, 0.0).gamma
        ortho = np.trapezoid(rec.values * sech(gamma * g.x), dx=g.dx)
        assert abs(ortho) < 1e-12
