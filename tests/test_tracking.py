"""Center selection, velocity estimation, and decay diagnostics."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from sgkink import tracking
from sgkink.evolve import Scheme, SchemeKind, evolve
from sgkink.exact import Kink, KinkParams, kink_identities, sample_state, sech
from sgkink.fields import (
    Field,
    L2PlusLinf,
    Lp,
    PairEnergy,
    State,
    Topology,
    make_grid,
    norm,
    spatial_derivative,
)
from sgkink.tracking import (
    _decay_bound,
    _exterior_sup,
    _orthogonality,
    center_velocity,
    fit_decay_exponent,
    pi_level_center,
    solve_center,
    track,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(-64.0, 64.0, 4096)


def kink_state(grid, beta=0.3, c=0.0, t=0.0):
    return sample_state(Kink(KinkParams(beta, c)), grid, t)


class TestSolveCenter:
    """The orthogonality and pi-level centers, each its own function."""

    @pytest.mark.parametrize("center", [solve_center, pi_level_center])
    def test_exact_kink(self, grid, center):
        s = kink_state(grid, beta=0.3, c=1.25, t=2.0)
        c = center(s.phi, 0.3, 2.0, 1.55)
        assert c == pytest.approx(1.25, abs=1e-9)

    @pytest.mark.parametrize("center", [solve_center, pi_level_center])
    @given(h=st.floats(-2.0, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_translation_equivariance(self, grid, center, h):
        s = kink_state(grid, beta=0.3, c=h)
        c = center(s.phi, 0.3, 0.0, h + 0.2)
        assert c == pytest.approx(h, abs=1e-9)

    def test_odd_perturbation_keeps_pi_level_center(self, grid):
        beta, c0, t = 0.3, 0.5, 1.0
        s = kink_state(grid, beta=beta, c=c0, t=t)
        z = grid.x - beta * t - c0
        pert = 0.01 * sech(z) * np.tanh(z)  # odd about the moving center
        f = Field(grid, s.phi.values + pert)
        c = pi_level_center(f, beta, t, c0 + 0.1)
        assert c == pytest.approx(c0, abs=1e-8)

    @given(beta=st.floats(-0.6, 0.6), c=st.floats(-2.0, 2.0),
           t=st.floats(0.0, 2.0), amp=st.floats(-0.05, 0.05),
           width=st.floats(0.5, 3.0), at=st.floats(-3.0, 3.0),
           shift=st.floats(-1.5, 1.5))
    # the largest error found over these ranges, 8.6e-10: the narrowest,
    # tallest bump on the kink center, the center off the nodes
    @example(beta=0.0, c=0.022, t=0.0, amp=-0.05, width=0.5, at=0.05,
             shift=0.0)
    @settings(max_examples=25, deadline=None)
    def test_pi_level_matches_exact_root(self, grid, beta, c, t, amp,
                                         width, at, shift):
        gamma = KinkParams(beta, c).gamma

        def bump(y):
            return amp * np.exp(-((y - at) / width)**2)

        def level(z):  # f - pi at gamma z from the kink's own center
            return (4.0 * np.arctan(np.exp(gamma * z))
                    + bump(beta * t + c + z) - np.pi)

        s = kink_state(grid, beta=beta, c=c, t=t)
        f = Field(grid, s.phi.values + bump(grid.x))
        got = pi_level_center(f, beta, t, c + shift)
        assert got == pytest.approx(c + brentq(level, -1.0, 1.0, xtol=1e-14),
                                    abs=1e-9)

    def test_pi_level_without_sign_change(self, grid):
        flat = Field(grid, np.full(grid.n, 0.3))
        with pytest.raises(RuntimeError, match="no sign change"):
            pi_level_center(flat, 0.0, 0.0, 0.0)

    @given(beta=st.floats(-0.6, 0.6), c=st.floats(-2.0, 2.0),
           t=st.floats(0.0, 2.0), amp=st.floats(-0.05, 0.05),
           width=st.floats(0.5, 3.0), at=st.floats(-3.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_orthogonality_slope_is_analytic(self, grid, beta, c, t, amp,
                                             width, at):
        s = kink_state(grid, beta=beta, t=t)
        f = Field(grid, s.phi.values + amp * np.exp(-((grid.x - at) / width)**2))
        slope = _orthogonality(f, beta, t, c)[1]
        h = 1e-5
        fd = (_orthogonality(f, beta, t, c + h)[0]
              - _orthogonality(f, beta, t, c - h)[0]) / (2.0 * h)
        assert slope == pytest.approx(fd, rel=1e-6)

    def test_error_far_from_any_kink(self, grid):
        flat = Field(grid, np.full(grid.n, 0.3))
        with pytest.raises(RuntimeError):
            solve_center(flat, 0.0, 0.0, 0.0)


def reference_orthogonality(f: Field, beta: float, t: float,
                            c: float) -> tuple:
    """_orthogonality's sums over the whole grid, as the library took them
    before its sech window: the window's oracle."""
    p = KinkParams(beta, c)
    ids = kink_identities(p, t, f.grid.x)
    diff, s = f.values - ids["Q"], ids["sin_half"]
    slope = (ids["Q_x"] - p.gamma * diff * ids["cos_half"]) * s
    return (float(np.trapezoid(diff * s, dx=f.grid.dx)),
            float(np.trapezoid(slope, dx=f.grid.dx)))


class TestOrthogonalityWindow:
    """_orthogonality sums only the cells with |gamma(x - beta t - c)| <= 40;
    the full-grid sums agree with it to their rounding."""

    # on [-64, 64) the window's half-width 40/gamma is 32 to 40, so a kink
    # at more than that from the middle has its slice clipped by a grid end
    GRID = make_grid(-64.0, 64.0, 1024)

    @given(beta=st.floats(-0.6, 0.6), t=st.floats(0.0, 20.0),
           at=st.floats(-60.0, 60.0), off=st.floats(-1.0, 1.0),
           amp=st.floats(-0.05, 0.05), bump_at=st.floats(-60.0, 60.0))
    # the kink 4 from either end, the slice clipped there; and in the middle
    @example(beta=0.6, t=20.0, at=60.0, off=0.5, amp=0.05, bump_at=59.0)
    @example(beta=-0.6, t=20.0, at=-60.0, off=-0.5, amp=-0.05, bump_at=-59.0)
    @example(beta=0.0, t=0.0, at=0.0, off=0.0, amp=0.05, bump_at=0.5)
    @settings(max_examples=60, deadline=None)
    def test_matches_full_grid(self, beta, t, at, off, amp, bump_at):
        # a kink at x = at, off from the center c at which the sums are taken
        grid, c = self.GRID, at - beta * t
        q = kink_identities(KinkParams(beta, c + off), t, grid.x)["Q"]
        f = Field(grid, q + amp * np.exp(-(grid.x - bump_at) ** 2))
        assert _orthogonality(f, beta, t, c) == pytest.approx(
            reference_orthogonality(f, beta, t, c), rel=0.0, abs=1e-14)
        with mock.patch.object(tracking, "_orthogonality",
                               reference_orthogonality):
            want = solve_center(f, beta, t, c)
        assert solve_center(f, beta, t, c) == pytest.approx(want, rel=0.0,
                                                            abs=1e-13)


class TestCenterVelocity:
    def test_zero_for_traveling_kink(self, grid):
        s = kink_state(grid, beta=0.3, c=0.7, t=1.5)
        assert abs(center_velocity(s, 0.3, 0.7)) < 1e-8

    def test_denominator_is_four(self, grid):
        from sgkink.exact import kink_identities
        from sgkink.fields import spatial_derivative
        s = kink_state(grid, beta=0.3, c=0.0)
        ids = kink_identities(KinkParams(0.3, 0.0), 0.0, grid.x)
        den = np.trapezoid(
            spatial_derivative(s.phi, 1).values * ids["sin_half"],
            dx=grid.dx,
        )
        assert den == pytest.approx(4.0, abs=1e-6)


@pytest.fixture(scope="module")
def exact_run(grid):
    s0 = kink_state(grid, beta=0.2)
    traj = evolve(s0, Scheme(SchemeKind.LEAPFROG, grid.dx / 2), 10.0,
                  snapshot_every=0.5)
    return traj, 0.2, tuple(track(traj.states, 0.2, 0.0, exterior=True))


@pytest.fixture(scope="module")
def tracked_exact(exact_run):
    return exact_run[2]


@pytest.fixture(scope="module")
def perturbed_run(grid):
    base = kink_state(grid, beta=0.3)
    bump = 0.05 * np.exp(-(grid.x - 1.0) ** 2)
    s0 = State(Field(grid, base.phi.values + bump),
               Field(grid, base.phi_t.values - bump), 0.0, Topology.KINK)
    traj = evolve(s0, Scheme(SchemeKind.LEAPFROG, grid.dx / 2), 10.0,
                  snapshot_every=0.5)
    return traj, 0.3, tuple(track(traj.states, 0.3, 0.0, exterior=True))


def public_record(s, beta, c):
    """Each TrackRecord field from its public-API definition."""
    ref = sample_state(Kink(KinkParams(beta, c)), s.grid, s.time)
    d0 = Field(s.grid, s.phi.values - ref.phi.values)
    d1 = Field(s.grid, spatial_derivative(s.phi, 1).values
               - spatial_derivative(ref.phi, 1).values)
    d2 = Field(s.grid, s.phi_t.values - ref.phi_t.values)
    dens = d0.values**2 + d1.values**2 + d2.values**2
    return {
        "center_velocity": center_velocity(s, beta, c),
        "diff_linf": norm(d0, Lp(np.inf)),
        "diff_deriv_l2plinf": norm(d1, L2PlusLinf()) + norm(d2, L2PlusLinf()),
        "diff_pair_energy": norm(s, PairEnergy(ref)),
        "exterior_l2": float(np.sqrt(np.sum(dens[np.abs(s.grid.x) >= s.time])
                                     * s.grid.dx)),
        # (sup, bound) of the exterior check at s = 1; the decay shape has
        # t^(-1/4), so there is none at t = 0
        "exterior_check": (exterior_sup_and_bound(s, d0, d1, d2)
                           if s.time > 0 else None),
    }


def exterior_sup_and_bound(s, d0, d1, d2):
    mask = np.abs(s.grid.x) >= s.time
    total = (np.abs(d0.values) + np.abs(d1.values) + np.abs(d2.values))[mask]
    k = int(np.argmax(total))
    jap = np.sqrt(1.0 + (abs(s.grid.x[mask][k]) - s.time) ** 2)
    return total[k], min(s.time**-0.25 * jap**-0.25, 1.0 / jap)


class TestTrack:
    @pytest.mark.parametrize("run", ["exact_run", "perturbed_run"])
    def test_records_match_public_definitions(self, request, run):
        traj, beta, records = request.getfixturevalue(run)
        assert len(records) == len(traj.states)
        for s, r in zip(traj.states, records):
            assert r.time == s.time and r.state is s
            # the stencil the record hands on, bit for bit the public one
            assert np.array_equal(r.f_x, spatial_derivative(s.phi, 1).values)
            want = public_record(s, beta, r.center)
            for key in ("center_velocity", "diff_linf", "diff_deriv_l2plinf"):
                assert getattr(r, key) == pytest.approx(want[key], rel=1e-12,
                                                        abs=0.0), key
            # track's d1 is D phi - D Q, PairEnergy's is D (phi - Q): they
            # differ by the rounding of D on O(1) samples, ~1e-16 absolute,
            # which on the exact run (pair energy ~6e-7) exceeds 1e-12 relative
            assert r.diff_pair_energy == pytest.approx(
                want["diff_pair_energy"], rel=1e-12, abs=1e-14)
            assert r.exterior_l2 == pytest.approx(want["exterior_l2"],
                                                  rel=1e-12, abs=0.0)
            if want["exterior_check"] is not None:
                lhs, bound = want["exterior_check"]
                assert r.exterior_sup[0] == pytest.approx(lhs, rel=1e-12,
                                                          abs=0.0)
                assert _decay_bound(s.time, r.exterior_sup[1],
                                    1.0) == pytest.approx(bound, rel=1e-12)

    def test_yields_each_record_before_reading_the_next_state(self, grid):
        read = []

        def states():
            for t in (0.0, 0.5):
                read.append(t)
                yield kink_state(grid, t=t)

        records = track(states(), 0.3, 0.0)
        assert next(records).time == 0.0 and read == [0.0]
        assert next(records).time == 0.5 and read == [0.0, 0.5]

    def test_continuation_broken(self, grid):
        # the second kink sits 1 away from the first record's center
        records = track(iter([kink_state(grid), kink_state(grid, c=1.0)]),
                        0.3, 0.0)
        assert next(records).center == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(RuntimeError,
                           match="center jumped by 1.000 at t=0.0; "
                                 "continuation broken"):
            next(records)

    def test_records_compare_without_their_state(self, tracked_exact):
        first, second = tracked_exact[:2]
        same = replace(first, state=second.state, f_x=second.f_x)
        assert same == first and hash(same) == hash(first)
        assert "state" not in repr(first) and "f_x" not in repr(first)

    def test_centers_constant(self, tracked_exact):
        centers = [r.center for r in tracked_exact]
        assert max(abs(c) for c in centers) < 1e-4

    def test_velocities_vanish(self, tracked_exact):
        assert max(abs(r.center_velocity) for r in tracked_exact) < 1e-6

    def test_difference_norms_small(self, tracked_exact):
        assert max(r.diff_linf for r in tracked_exact) < 1e-4
        assert max(r.diff_pair_energy for r in tracked_exact) < 1e-4

    def test_records_time_ordered(self, tracked_exact):
        times = [r.time for r in tracked_exact]
        assert times == sorted(times)

    def test_exterior_norms_present(self, tracked_exact):
        assert all(r.exterior_l2 is not None and r.exterior_sup is not None
                   for r in tracked_exact)

    def test_exterior_norms_off_by_default(self, exact_run):
        traj = exact_run[0]
        assert all(r.exterior_l2 is None and r.exterior_sup is None
                   for r in track(traj.states[:3], 0.2, 0.0))


class TestExteriorDecay:
    def test_zero_for_self(self, grid):
        z = np.zeros(grid.n)
        assert _exterior_sup(grid.x, 2.0, z, z, z)[0] == 0.0

    @given(r=st.floats(-5.0, 50.0), s=st.floats(0.0, 2.0),
           t1=st.floats(1.0, 100.0), t2=st.floats(1.0, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_bound_does_not_increase_in_time(self, r, s, t1, t2):
        # at fixed |x| - t, min(t^(-1/4) <r>^(-1/4), <r>^(-s))
        jap = np.sqrt(1.0 + r * r)
        for t in (t1, t2):
            assert _decay_bound(t, r, s) == pytest.approx(
                min(t**-0.25 * jap**-0.25, jap**-s), rel=1e-15)
        lo, hi = sorted((t1, t2))
        assert _decay_bound(hi, r, s) <= _decay_bound(lo, r, s)

    def test_empty_exterior_is_none(self, grid):
        # t past both grid ends, which lie at |x| <= 64
        z = np.zeros(grid.n)
        assert _exterior_sup(grid.x, 100.0, z, z, z) is None


class TestFitDecayExponent:
    def test_pure_power(self):
        t = np.linspace(10, 100, 60)
        out = fit_decay_exponent(np.column_stack([t, t**-0.5]), (10, 100))
        assert out["exponent"] == pytest.approx(-0.5, abs=1e-12)
        assert out["r2"] == pytest.approx(1.0, abs=1e-12)

    @given(c=st.floats(0.1, 10.0), p=st.floats(-2.0, -0.1))
    @settings(max_examples=25, deadline=None)
    def test_scaled_power(self, c, p):
        t = np.linspace(20, 200, 80)
        out = fit_decay_exponent(np.column_stack([t, c * t**p]), (20, 200))
        assert out["exponent"] == pytest.approx(p, abs=1e-8)

    def test_rejects_nonpositive_values(self):
        t = np.linspace(10, 100, 30)
        v = t**-0.5
        v[5] = 0.0
        with pytest.raises(ValueError):
            fit_decay_exponent(np.column_stack([t, v]), (10, 100))

    def test_rejects_short_window(self):
        t = np.linspace(10, 100, 30)
        with pytest.raises(ValueError):
            fit_decay_exponent(np.column_stack([t, t**-0.5]), (10, 12))
