"""Time integrators, trajectories, and conserved-quantity diagnostics."""

import re
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.fft import _pocketfft_umath as pfu
from hypothesis import example, given, settings, strategies as st

import sgkink.evolve
from sgkink.evolve import (
    _BOX_QUIET,
    _BOX_SLACK,
    _QUIET,
    _WINDOW_STEPS,
    Scheme,
    SchemeKind,
    _composition_run,
    _fft_size,
    _guard,
    _snapshot_times,
    _window,
    conserved_quantities,
    evolve,
    snapshots,
)
from sgkink.exact import (
    Breather,
    BreatherParams,
    Kink,
    KinkParams,
    WobblingKink,
    sample_state,
)
from sgkink.fields import (
    Field,
    Grid,
    State,
    Topology,
    _fd_stencil,
    _half_sin2x,
    make_grid,
    spatial_derivative,
)
from test_scattering import free_state


@pytest.fixture(scope="module")
def grid():
    return make_grid(-64.0, 64.0, 2048)  # dx = 1/16


def kink_state(grid, t=0.0, beta=0.2):
    return sample_state(Kink(KinkParams(beta, 0.0)), grid, t)


def small_state(grid, eps=0.05):
    p = eps * np.exp(-grid.x**2)
    return State(Field(grid, p), Field(grid, p.copy()), 0.0, Topology.ZERO)


def breather_state(grid):
    return sample_state(Breather(BreatherParams(0.0, 0.8, 0.0, 0.0)), grid, 0.0)


def shifted_breather_state(grid):
    # a constant in phi and phi_t: the xi=0 mode, which the Klein-Gordon
    # drift turns at frequency <0> = 1 like every other mode; data that fill
    # the grid
    b = breather_state(grid)
    return State(Field(grid, b.phi.values + 2e-3),
                 Field(grid, b.phi_t.values + 1e-3), 0.0, Topology.ZERO)


def gaussian_state(grid, center, eps=0.1):
    p = eps * np.exp(-(grid.x - center) ** 2)
    return State(Field(grid, p), Field(grid, -0.5 * p), 0.0, Topology.ZERO)


def centred_gaussian_state(grid):
    return gaussian_state(grid, 0.0)


def off_centre_gaussian_state(grid):
    return gaussian_state(grid, -37.0)


def two_bumps_state(grid):
    p = (0.1 * np.exp(-(grid.x + 20.0) ** 2)
         - 0.05 * np.exp(-(0.5 * (grid.x - 25.0)) ** 2))
    return State(Field(grid, p), Field(grid, 0.3 * p), 0.0, Topology.ZERO)


def seam_bump_state(grid):
    # a Gaussian on the periodic seam, half of it at either end of the grid
    d = grid.x - grid.x_min
    p = 0.1 * np.exp(-np.minimum(d, grid.length - d) ** 2)
    return State(Field(grid, p), Field(grid, -0.5 * p), 0.0, Topology.ZERO)


def edge_bump_state(grid):
    # a Gaussian 6 from the left end: quiet at the end cells, but the margin
    # of its box would cross the periodic seam
    return gaussian_state(grid, grid.x_min + 6.0)


def moving_gaussian_state(grid, v):
    # phi_t = -v phi_x: most of it moves at speed v, so that front leads
    p = 0.1 * np.exp(-grid.x ** 2)
    return State(Field(grid, p), Field(grid, 2.0 * v * grid.x * p), 0.0,
                 Topology.ZERO)


def right_moving_gaussian_state(grid):
    return moving_gaussian_state(grid, 1.0)


def left_moving_gaussian_state(grid):
    return moving_gaussian_state(grid, -1.0)


def faint_gaussian_state(grid):
    # the amplitude at which an absolute quiet level would drop the tails
    return gaussian_state(grid, 0.0, eps=1e-6)


def rough_bump_state(grid):
    # noise on 8 cells: its spectrum is flat up to the Nyquist mode
    rows = np.zeros((2, grid.n))
    rows[:, 1000:1008] = 0.1 * np.random.default_rng(1).standard_normal((2, 8))
    return State(Field(grid, rows[0]), Field(grid, rows[1]), 0.0,
                 Topology.ZERO)


def perturbed_kink_state(grid, eps=0.01):
    s0 = kink_state(grid)
    bump = eps * np.exp(-(grid.x - 1.0) ** 2)
    return State(Field(grid, s0.phi.values + bump),
                 Field(grid, s0.phi_t.values - bump), 0.0, Topology.KINK)


def fast_kink_state(grid):
    return kink_state(grid, beta=0.6)


def every_cell_active_state(grid):
    # at rest at 0 on both ends, and moving on every interior cell
    pt = 0.01 * np.sin(np.pi * (grid.x - grid.x_min) / grid.length) ** 2
    return State(Field(grid, np.zeros(grid.n)), Field(grid, pt), 0.0,
                 Topology.ZERO)


def resting_off_equilibrium_state(grid):
    # phi_t = 0, but sin 0.5 != 0: the start step moves every interior cell
    return State(Field(grid, np.full(grid.n, 0.5)),
                 Field(grid, np.zeros(grid.n)), 0.0, Topology.ZERO)


def clamped_cell_state(grid, cell):
    # zero but for one clamped cell, 5e-12 off its end value: active, while
    # the start step passes on at most a sixth of it to the interior cells,
    # which stay quiet; only a scan that takes in the clamped cells sees it
    phi = np.zeros(grid.n)
    phi[cell] = 5e-12
    return State(Field(grid, phi), Field(grid, np.zeros(grid.n)), 0.0,
                 Topology.ZERO)


def left_clamped_cell_state(grid):
    return clamped_cell_state(grid, 1)


def right_clamped_cell_state(grid):
    return clamped_cell_state(grid, -2)


LEAPFROG_MAKERS = [
    # the front crosses most of the grid by t = 50
    perturbed_kink_state,
    small_state,
    # the kink's tail sweeps into cells that start frozen
    fast_kink_state,
    every_cell_active_state,
    resting_off_equilibrium_state,
]


def full_grid_window(f_prev, f_cur, left, right):
    """The reference for _window: its rule on a scan of all n cells."""
    n = f_cur.size
    reach = 2 * _WINDOW_STEPS + 2

    def active(end):
        return np.flatnonzero(~((np.abs(f_cur - end) <= _QUIET)
                                & (np.abs(f_prev - end) <= _QUIET)))

    from_left, from_right = active(left), active(right)
    first = from_left[0] if from_left.size else n
    last = from_right[-1] if from_right.size else -1
    lo = min(max(first - reach, 2), n - 2)
    hi = max(min(last + 1 + reach, n - 2), lo)
    return int(lo), int(hi)


def correlated_sum(f_prev, f_cur, dt, c):
    """f_next's interior in the in-place step's order: the sine term, less
    f_prev, plus f_cur's five-point correlation with the stencil's kernel
    (c = (dt/dx)^2 / 12), which holds 2 f_cur."""
    kernel = np.array([-c, 16.0 * c, 2.0 - 30.0 * c, 16.0 * c, -c])
    return (np.sin(f_cur[2:-2]) * -(dt * dt) - f_prev[2:-2]
            + np.correlate(f_cur, kernel, "valid"))


def eleven_call_sum(f_prev, f_cur, dt, c):
    """f_next's interior in the order of the step before its stencil was
    one correlation: the two stencil pairs and the centre cell, each summed,
    scaled and added in turn."""
    return (np.sin(f_cur[2:-2]) * -(dt * dt) - f_prev[2:-2]
            + (f_cur[1:-3] + f_cur[3:-1]) * (16.0 * c)
            - (f_cur[:-4] + f_cur[4:]) * c
            + f_cur[2:-2] * (2.0 - 30.0 * c))


def reference_leapfrog(s0, dt, n_steps, stride, interior_sum=correlated_sum):
    """The allocating full-grid leapfrog: (phi, phi_t) every stride steps.

    The default interior sum is written in the in-place step's order, so
    the two differ only where the in-place step freezes cells outside its
    window and in the sine, libm's np.sin here and the tangent's
    _half_sin2x in the step; test_reference_step_is_the_fd_scheme ties the
    sum to _fd_stencil.
    """
    dx = s0.grid.dx
    c = (dt / dx) ** 2 / 12.0
    f_prev = s0.phi.values.copy()
    accel = _fd_stencil(f_prev, dx, 2) - np.sin(f_prev)
    f_cur = f_prev + dt * s0.phi_t.values + 0.5 * dt * dt * accel
    f_cur[:2], f_cur[-2:] = f_prev[:2], f_prev[-2:]
    out = []
    for n in range(1, n_steps + 1):
        # the tail cells of f_prev hold s0's values
        f_next = f_prev.copy()
        f_next[2:-2] = interior_sum(f_prev, f_cur, dt, c)
        if n % stride == 0:
            out.append((f_cur, (f_next - f_prev) / (2.0 * dt)))
        f_prev, f_cur = f_cur, f_next
    return out


def parent_window(f_prev, f_cur, left, right, lo, hi):
    """_window as it was before it scanned from the window's edges, kept
    verbatim as an oracle: two scans of all of [lo - 2, hi + 2)."""
    n = f_cur.size
    reach = 2 * _WINDOW_STEPS + 2
    a, b = max(lo - 2, 0), min(hi + 2, n)

    def active(end):
        # offsets into [a, b); np.maximum propagates NaN, and NaN <= _QUIET
        # is False
        far = np.abs(f_cur[a:b] - end)
        np.maximum(far, np.abs(f_prev[a:b] - end), out=far)
        return np.flatnonzero(~(far <= _QUIET))

    from_left, from_right = active(left), active(right)
    first = a + from_left[0] if from_left.size else n
    last = a + from_right[-1] if from_right.size else -1
    lo = min(max(first - reach, 2), n - 2)
    hi = max(min(last + 1 + reach, n - 2), lo)
    return int(lo), int(hi)


def parent_leapfrog_run(s0, dt, n_steps, stride):
    """_leapfrog_run as it was before it kept its window's views, kept
    verbatim as an oracle but for its step, which sums in the in-place
    step's order and takes sin f as twice _half_sin2x at f/2: each step
    slices the rotating buffers anew, with keyword and in-place outputs, and
    the window comes from parent_window."""
    grid = s0.grid
    f_prev = np.array(s0.phi.values, dtype=float)
    accel0 = _fd_stencil(f_prev, grid.dx, 2) - np.sin(f_prev)
    f_cur = f_prev + dt * s0.phi_t.values + 0.5 * dt * dt * accel0
    # tail values are constants of the motion
    f_cur[:2], f_cur[-2:] = f_prev[:2], f_prev[-2:]
    f_next = f_prev.copy()
    left, right = f_prev[0], f_prev[-1]
    # the interior rows of _fd_stencil's order-2 stencil, times dt^2, plus 2f
    c = (dt / grid.dx) ** 2 / 12.0
    kernel = np.array([-c, 16.0 * c, 2.0 - 30.0 * c, 16.0 * c, -c])
    dt2 = dt * dt
    lo, hi = 2, grid.n - 2
    yield s0
    t0 = s0.time
    for step in range(1, n_steps + 1):
        if (step - 1) % _WINDOW_STEPS == 0:
            lo, hi = parent_window(f_prev, f_cur, left, right, lo, hi)
            for buf in (f_prev, f_next):
                buf[:lo], buf[hi:] = f_cur[:lo], f_cur[hi:]
        inner = f_next[lo:hi]
        _half_sin2x(0.5 * f_cur[lo:hi], inner, np.empty_like(inner))
        inner *= -2.0 * dt2
        inner -= f_prev[lo:hi]
        inner += np.correlate(f_cur[lo - 2:hi + 2], kernel, "valid")
        if step % stride == 0 or step == n_steps:
            _guard(f_next)
            phi_t = (f_next - f_prev) / (2.0 * dt)
            yield State(Field(grid, f_cur.copy()), Field(grid, phi_t),
                        t0 + step * dt, s0.topology)
        f_prev, f_cur, f_next = f_cur, f_next, f_prev


@st.composite
def window_cases(draw):
    """(f_prev, f_cur, left, right, lo, hi) that _window's rule covers:
    every cell outside [lo - 2, hi + 2) sits at the end value of its own
    side, left of a split in that range and right from it on, and cells
    inside it are moved off their values by marks (cell offset from
    lo - 2, buffer, value), NaN among the values."""
    n = draw(st.sampled_from([256, 8192]))
    lo = draw(st.integers(2, n - 2))
    hi = draw(st.integers(lo, n - 2))
    a, b = max(lo - 2, 0), min(hi + 2, n)
    right = draw(st.sampled_from([0.0, 2.0 * np.pi]))
    # with unequal end values the split lies inside, as the kink does in a
    # run, so the last cell active towards the right end is in [a, b) too
    split = draw(st.integers(a, b) if right == 0.0
                 else st.integers(a + 1, b - 1))
    marks = draw(st.lists(st.tuples(
        st.integers(0, b - a - 1), st.sampled_from(["f_prev", "f_cur"]),
        st.sampled_from([2e-12, -5e-12, 1e-3, np.nan])), max_size=4))
    return n, lo, hi, right, split, marks


def window_case(n, lo, hi, right, split, marks):
    bufs = {"f_prev": np.zeros(n), "f_cur": np.zeros(n)}
    a = max(lo - 2, 0)
    for buf in bufs.values():
        buf[split:] = right
    for cell, which, value in marks:
        bufs[which][a + cell] += value
    return bufs["f_prev"], bufs["f_cur"], 0.0, right, lo, hi


_YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_WEIGHTS = {
    SchemeKind.STRANG_SPLIT_SPECTRAL: (1.0,),
    SchemeKind.YOSHIDA4_SPECTRAL: (_YOSHIDA_W1, 1.0 - 2.0 * _YOSHIDA_W1,
                                   _YOSHIDA_W1),
}


def reference_steps(phi, pt, grid, weights, dt, n_steps):
    """Unfused kick-drift-kick Strang substeps on the full complex spectrum:
    the exact Klein-Gordon drift, the kick by phi - sin phi."""
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    jxi = np.sqrt(1.0 + xi * xi)
    for _ in range(n_steps):
        for w in weights:
            h = w * dt
            c, s = np.cos(jxi * h), np.sin(jxi * h)
            pt = pt - 0.5 * h * (np.sin(phi) - phi)
            ph, pth = np.fft.fft(phi), np.fft.fft(pt)
            ph, pth = c * ph + s / jxi * pth, -jxi * s * ph + c * pth
            phi, pt = np.fft.ifft(ph).real, np.fft.ifft(pth).real
            pt = pt - 0.5 * h * (np.sin(phi) - phi)
    return phi, pt


def reference_composition(weights, s0, dt, n_steps, stride):
    """The composition routine with its kicks on the public numpy.fft calls.

    The same one-way waves U+- = phi_t^ +- i<xi> phi^ and operation order,
    with allocating arithmetic.  Returns (time, phi, phi_t) for every
    recorded step after s0.
    """
    grid, n = s0.grid, s0.grid.n
    jxi = np.hypot(1.0, 2.0 * np.pi * np.fft.rfftfreq(n, d=grid.dx))
    phases = [np.exp(np.multiply.outer((1j, -1j), jxi * (w * dt)))
              for w in weights]
    inner = [0.5 * (a + b) * dt for a, b in zip(weights, weights[1:])]
    head, tail = 0.5 * weights[0] * dt, 0.5 * weights[-1] * dt
    phi = s0.phi.values
    z = np.fft.rfft([phi, s0.phi_t.values - head * (np.sin(phi) - phi)])
    U = z[1] + np.multiply.outer((1j, -1j), jxi) * z[0]

    def inverse_phi():
        return np.fft.irfft((U[0] - U[1]) * (-0.5j / jxi), n)

    def kick_spectrum(phi):
        return np.fft.rfft(np.sin(phi) - phi)

    out = []
    for step in range(1, n_steps + 1):
        for i, phase in enumerate(phases):
            if i:
                U += -inner[i - 1] * kick_spectrum(inverse_phi())
            U *= phase
        phi = inverse_phi()
        g_hat = kick_spectrum(phi)
        recording = step % stride == 0 or step == n_steps
        U += -(tail if recording else tail + head) * g_hat
        if recording:
            out.append((s0.time + step * dt, phi,
                        np.fft.irfft(0.5 * (U[0] + U[1]), n)))
            U += -head * g_hat
    return out


def boxed_run(kind, s0, dt, n_steps, stride):
    """(state, (a, nb)) for every state _composition_run yields after s0:
    the box [a, a + nb) that the steps up to it ran on."""
    run = _composition_run(_WEIGHTS[kind], s0, dt, n_steps, stride)
    assert next(run) is s0
    out = []
    for state in run:
        f_locals = run.gi_frame.f_locals
        out.append((state, (f_locals["a"], f_locals["nb"])))
    return out


def assert_close_to_reference(run, ref, tol):
    """boxed_run's states against reference_composition's, each within tol
    (tol=0: bit for bit)."""
    assert len(run) == len(ref)
    for (state, _), (t, phi, pt) in zip(run, ref):
        assert state.time == t
        assert np.max(np.abs(state.phi.values - phi)) <= tol
        assert np.max(np.abs(state.phi_t.values - pt)) <= tol


def data_sup(s):
    return max(np.max(np.abs(s.phi.values)), np.max(np.abs(s.phi_t.values)))


def reference_conserved(s):
    """E0, P, E2, E4 with the a (-) and b (+) null families written out."""
    grid, dx = s.grid, s.grid.dx
    phi, pt = s.phi.values, s.phi_t.values

    def dx1(v):
        return spatial_derivative(Field(grid, v), 1).values

    def dx2(v):
        return spatial_derivative(Field(grid, v), 2).values

    d = {"x": dx1(phi), "xx": dx2(phi), "tx": dx1(pt), "txx": dx2(pt)}
    d["xxx"] = dx1(d["xx"])
    d["tt"] = d["xx"] - np.sin(phi)
    d["ttx"] = dx1(d["tt"])
    d["ttt"] = d["txx"] - pt * np.cos(phi)
    r2 = np.sqrt(2.0)
    nd = {
        "m": (pt - d["x"]) / r2,
        "p": (pt + d["x"]) / r2,
        "mm": 0.5 * (d["tt"] - 2.0 * d["tx"] + d["xx"]),
        "pp": 0.5 * (d["tt"] + 2.0 * d["tx"] + d["xx"]),
        "mmm": (d["ttt"] - 3.0 * d["ttx"] + 3.0 * d["txx"] - d["xxx"]) / (2.0 * r2),
        "ppp": (d["ttt"] + 3.0 * d["ttx"] + 3.0 * d["txx"] + d["xxx"]) / (2.0 * r2),
        "mmp": (d["ttt"] - d["ttx"] - d["txx"] + d["xxx"]) / (2.0 * r2),
        "ppm": (d["ttt"] + d["ttx"] - d["txx"] - d["xxx"]) / (2.0 * r2),
    }
    px, cosphi, sinphi = d["x"], np.cos(phi), np.sin(phi)

    def integrate(density):
        return float(np.trapezoid(density, dx=dx))

    e0 = integrate(0.5 * (pt**2 + px**2) + 1.0 - cosphi)
    p_mom = integrate(0.5 * pt * px)
    j2a_p = nd["mm"] ** 2 - 0.25 * nd["m"] ** 4
    j2a_m = 0.5 * nd["m"] ** 2 * cosphi
    j2b_m = nd["pp"] ** 2 - 0.25 * nd["p"] ** 4
    j2b_p = 0.5 * nd["p"] ** 2 * cosphi
    e2 = integrate(j2a_p + j2a_m + j2b_p + j2b_m)
    j4a_p = (nd["mmm"] ** 2 + 2.5 * nd["m"] ** 2 * nd["mm"] ** 2
             + (5.0 / 3.0) * nd["m"] ** 3 * nd["mmm"] + 0.125 * nd["m"] ** 6)
    j4a_m = (-(5.0 / 3.0) * nd["m"] ** 3 * nd["mmp"]
             - 0.375 * nd["m"] ** 4 * cosphi
             + 1.5 * nd["m"] ** 2 * nd["mm"] * sinphi
             + 0.5 * nd["mm"] ** 2 * cosphi)
    j4b_m = (nd["ppp"] ** 2 + 2.5 * nd["p"] ** 2 * nd["pp"] ** 2
             + (5.0 / 3.0) * nd["p"] ** 3 * nd["ppp"] + 0.125 * nd["p"] ** 6)
    j4b_p = (-(5.0 / 3.0) * nd["p"] ** 3 * nd["ppm"]
             - 0.375 * nd["p"] ** 4 * cosphi
             + 1.5 * nd["p"] ** 2 * nd["pp"] * sinphi
             + 0.5 * nd["pp"] ** 2 * cosphi)
    e4 = integrate(j4a_p + j4a_m + j4b_p + j4b_m)
    return {"E0": e0, "P": p_mom, "E2": e2, "E4": e4}


class TestEvolve:
    @pytest.mark.parametrize("kind", list(SchemeKind))
    def test_tracks_exact_kink(self, grid, kind):
        if kind is not SchemeKind.LEAPFROG:
            pytest.skip("spectral schemes require zero topology")
        s0 = kink_state(grid)
        traj = evolve(s0, Scheme(kind, grid.dx / 2), 5.0, snapshot_every=1.0)
        exact = kink_state(grid, t=traj.states[-1].time)
        err = np.max(np.abs(traj.states[-1].phi.values - exact.phi.values))
        assert err < 1e-5

    @pytest.mark.parametrize(
        "kind",
        [SchemeKind.STRANG_SPLIT_SPECTRAL, SchemeKind.YOSHIDA4_SPECTRAL],
    )
    def test_spectral_tracks_breather(self, grid, kind):
        sol = Breather(BreatherParams(0.0, 0.8, 0.0, 0.0))
        s0 = sample_state(sol, grid, 0.0)
        traj = evolve(s0, Scheme(kind, grid.dx / 2), 5.0, snapshot_every=5.0)
        exact = sample_state(sol, grid, traj.states[-1].time)
        err = np.max(np.abs(traj.states[-1].phi.values - exact.phi.values))
        assert err < 5e-4

    def test_leapfrog_time_reversal(self, grid):
        s0 = kink_state(grid)
        dt = grid.dx / 2
        fwd = evolve(s0, Scheme(SchemeKind.LEAPFROG, dt), 2.0,
                     snapshot_every=2.0)
        end = fwd.states[-1]
        flipped = State(end.phi, Field(grid, -end.phi_t.values), 0.0,
                        end.topology)
        back = evolve(flipped, Scheme(SchemeKind.LEAPFROG, dt), 2.0,
                      snapshot_every=2.0)
        err = np.max(np.abs(back.states[-1].phi.values - s0.phi.values))
        assert err < 1e-9

    def test_leapfrog_cfl_guard(self, grid):
        # refused before the generator runs; at 0.87 dx, 180 steps end 2.46
        # from the exact kink with no blow-up
        bound = 2.0 * (16.0 / (3.0 * grid.dx * grid.dx) + 1.0) ** -0.5
        for dt in (bound, 0.87 * grid.dx, 2.0 * grid.dx):
            with pytest.raises(ValueError, match=repr(bound)):
                snapshots(kink_state(grid), Scheme(SchemeKind.LEAPFROG, dt),
                          180 * dt, 180 * dt)

    def test_leapfrog_stable_just_below_cfl_bound(self, grid):
        # the bound 2/sqrt(16/(3 dx^2) + 1) is 0.8657 dx at dx = 1/16
        dt, n_steps = 0.865 * grid.dx, 3000
        end = evolve(kink_state(grid), Scheme(SchemeKind.LEAPFROG, dt),
                     n_steps * dt, snapshot_every=n_steps * dt).states[-1]
        exact = kink_state(grid, t=end.time)
        assert np.max(np.abs(end.phi.values - exact.phi.values)) < 1e-3

    def test_spectral_rejects_kink_topology(self, grid):
        with pytest.raises(ValueError):
            evolve(kink_state(grid),
                   Scheme(SchemeKind.STRANG_SPLIT_SPECTRAL, grid.dx / 2),
                   1.0, snapshot_every=1.0)

    def test_snapshot_times(self, grid):
        traj = evolve(small_state(grid),
                      Scheme(SchemeKind.STRANG_SPLIT_SPECTRAL, grid.dx / 2),
                      3.0, snapshot_every=1.0)
        assert np.allclose(traj.times, [0.0, 1.0, 2.0, 3.0])
        assert traj.state_at(2.0) is traj.states[2]
        with pytest.raises(ValueError, match="no snapshot at t=0.5"):
            traj.state_at(0.5)  # not the state at 0 or 1

    def test_strang_second_order_in_time(self, grid):
        sol = Breather(BreatherParams(0.0, 0.8, 0.0, 0.0))
        s0 = sample_state(sol, grid, 0.0)
        errs = []
        for dt in (0.1, 0.05):
            traj = evolve(s0, Scheme(SchemeKind.STRANG_SPLIT_SPECTRAL, dt),
                          2.0, snapshot_every=2.0)
            exact = sample_state(sol, grid, 2.0)
            errs.append(np.max(np.abs(traj.states[-1].phi.values
                                      - exact.phi.values)))
        assert errs[0] / errs[1] > 3.0  # ~2^2

    def test_leapfrog_second_order_in_time(self):
        # all time error: 8.3e-4, 2.1e-4 and 5.2e-5 at dx/2, dx/4 and dx/8
        grid = make_grid(-128.0, 128.0, 4096)  # dx = 1/16
        sol = WobblingKink(0.4)
        s0 = sample_state(sol, grid, 0.0)
        exact = sample_state(sol, grid, 20.0)
        errs = []
        for dt in (grid.dx / 2, grid.dx / 4, grid.dx / 8):
            traj = evolve(s0, Scheme(SchemeKind.LEAPFROG, dt), 20.0,
                          snapshot_every=20.0)
            errs.append(np.max(np.abs(traj.states[-1].phi.values
                                      - exact.phi.values)))
        assert errs[0] / errs[1] > 3.0 and errs[1] / errs[2] > 3.0  # ~2^2

    def test_yoshida4_fourth_order_in_time(self, grid):
        sol = Breather(BreatherParams(0.0, 0.8, 0.0, 0.0))
        s0 = sample_state(sol, grid, 0.0)
        errs = []
        for dt in (0.1, 0.05):
            traj = evolve(s0, Scheme(SchemeKind.YOSHIDA4_SPECTRAL, dt),
                          2.0, snapshot_every=2.0)
            exact = sample_state(sol, grid, 2.0)
            errs.append(np.max(np.abs(traj.states[-1].phi.values
                                      - exact.phi.values)))
        assert errs[0] / errs[1] > 12.0  # ~2^4

    @pytest.mark.parametrize("t_end,snapshot_every", [(1.0, 0.25), (0.9, 0.5)])
    def test_rejects_step_counts_it_would_round(self, grid, t_end,
                                                snapshot_every):
        with pytest.raises(ValueError, match="whole number of steps"):
            evolve(small_state(grid),
                   Scheme(SchemeKind.STRANG_SPLIT_SPECTRAL, 0.3), t_end,
                   snapshot_every=snapshot_every)

    @pytest.mark.parametrize("value", [np.nan, 2e6])
    def test_guard_trips_on_blowup_and_nan(self, value):
        _guard(np.array([1.0, -1e6]))
        with pytest.raises(RuntimeError, match="blow-up"):
            _guard(np.array([value]))


class TestLeapfrog:
    """The in-place leapfrog against the allocating reference step."""

    @pytest.mark.parametrize("maker", LEAPFROG_MAKERS)
    def test_matches_reference_at_every_snapshot(self, grid, maker):
        s0 = maker(grid)
        dt = grid.dx / 2
        traj = evolve(s0, Scheme(SchemeKind.LEAPFROG, dt), 1600 * dt,
                      snapshot_every=160 * dt)
        ref = reference_leapfrog(s0, dt, 1600, 160)
        assert len(traj.states) == len(ref) + 1
        # same arithmetic in the window but for the sine, libm's here and
        # the tangent's in the step (2.0e-13 on the resting data, where
        # every cell is stepped); the frozen cells hold the rounding drift
        # of the reference's full-grid steps back (4.8e-12 on the kinks)
        for state, (phi, pt) in zip(traj.states[1:], ref):
            assert np.max(np.abs(state.phi.values - phi)) < 1e-11
            assert np.max(np.abs(state.phi_t.values - pt)) < 1e-11

    @pytest.mark.parametrize("maker", LEAPFROG_MAKERS)
    def test_within_rounding_of_the_eleven_call_sum(self, grid, maker):
        # the correlation sums the stencil in another order than the step
        # before it; over 1600 steps the two part by at most 5.9e-11 in phi
        # and 1.7e-11 in phi_t (the perturbed and the fast kink), 3.2e-13
        # on the zero-topology data
        s0 = maker(grid)
        dt = grid.dx / 2
        traj = evolve(s0, Scheme(SchemeKind.LEAPFROG, dt), 1600 * dt,
                      snapshot_every=160 * dt)
        old = reference_leapfrog(s0, dt, 1600, 160, eleven_call_sum)
        for state, (phi, pt) in zip(traj.states[1:], old, strict=True):
            assert np.max(np.abs(state.phi.values - phi)) < 2e-10
            assert np.max(np.abs(state.phi_t.values - pt)) < 2e-10

    def test_reference_step_is_the_fd_scheme(self, grid):
        s0 = perturbed_kink_state(grid)
        dt = grid.dx / 2
        (f1, _), (f2, _) = reference_leapfrog(s0, dt, 2, 1)
        f0 = s0.phi.values
        accel = _fd_stencil(f1, grid.dx, 2) - np.sin(f1)
        fd = 2.0 * f1 - f0 + dt * dt * accel
        assert np.max(np.abs(f2[2:-2] - fd[2:-2])) < 1e-14
        assert np.array_equal(f2[:2], f0[:2])
        assert np.array_equal(f2[-2:], f0[-2:])

    def test_window_starts_at_the_solution(self, grid):
        # what the reference tests above rely on: a moving kink starts with
        # frozen cells ahead of it, and data active on every cell gets the
        # whole interior
        dt = grid.dx / 2

        def first_window(s):
            phi = s.phi.values
            return _window(phi, phi + dt * s.phi_t.values, phi[0], phi[-1],
                           2, grid.n - 2)

        lo, hi = first_window(fast_kink_state(grid))
        assert 2 < lo and hi < grid.n - 2
        assert grid.x[hi] < 30.0
        assert first_window(every_cell_active_state(grid)) == (2, grid.n - 2)

    @pytest.mark.parametrize("which", ["f_prev", "f_cur"])
    def test_window_takes_in_a_nan(self, grid, which):
        # a NaN in either buffer alone makes its cell active
        n, c = grid.n, grid.n // 2 + 7
        bufs = {"f_prev": np.zeros(n), "f_cur": np.zeros(n)}
        bufs[which][c] = np.nan
        f_prev, f_cur = bufs["f_prev"], bufs["f_cur"]
        lo, hi = _window(f_prev, f_cur, 0.0, 0.0, c - 40, c + 40)
        assert lo <= c < hi
        assert (lo, hi) == full_grid_window(f_prev, f_cur, 0.0, 0.0)

    @pytest.mark.parametrize("maker", LEAPFROG_MAKERS + [
        left_clamped_cell_state, right_clamped_cell_state])
    def test_window_scan_matches_the_full_grid(self, grid, maker,
                                               monkeypatch):
        # _window scans the last window and 2 cells a side; at every
        # re-derivation of the run it must find the full-grid scan's window
        windowed = sgkink.evolve._window
        seen = []

        def checked(f_prev, f_cur, left, right, lo, hi):
            got = windowed(f_prev, f_cur, left, right, lo, hi)
            assert got == full_grid_window(f_prev, f_cur, left, right)
            seen.append(got)
            return got

        monkeypatch.setattr(sgkink.evolve, "_window", checked)
        dt = grid.dx / 2
        for _ in snapshots(maker(grid), Scheme(SchemeKind.LEAPFROG, dt),
                           1600 * dt, 160 * dt):
            pass
        assert len(seen) == 1600 // _WINDOW_STEPS

    def test_windows_stay_in_the_light_cone(self, monkeypatch):
        # a field held at its end value drifts by rounding, past _QUIET
        # after a few hundred steps; a quiet cell that the drift made active
        # would widen the window by its 34-cell reach at each re-derivation,
        # faster than the cone, so over a kink run's 3200 steps every window
        # must stay inside the light cone of the data's _QUIET support, plus
        # that reach
        g = make_grid(-256.0, 256.0, 8192)
        s0 = perturbed_kink_state(g)
        f, pt = s0.phi.values, s0.phi_t.values
        first = np.flatnonzero((np.abs(f - f[0]) > _QUIET)
                               | (np.abs(pt) > _QUIET))[0]
        last = np.flatnonzero((np.abs(f - f[-1]) > _QUIET)
                              | (np.abs(pt) > _QUIET))[-1]
        reach = (2 * _WINDOW_STEPS + 2) * g.dx
        windowed = sgkink.evolve._window
        seen = []

        def recorded(*args):
            seen.append(windowed(*args))
            return seen[-1]

        monkeypatch.setattr(sgkink.evolve, "_window", recorded)
        dt = g.dx / 2
        for _ in snapshots(s0, Scheme(SchemeKind.LEAPFROG, dt), 3200 * dt,
                           3200 * dt):
            pass
        assert len(seen) == 3200 // _WINDOW_STEPS
        for k, (lo, hi) in enumerate(seen):
            t = (k * _WINDOW_STEPS + 1) * dt  # f_cur's time at derivation
            assert 2 < lo and hi < g.n - 2
            assert g.x[lo] >= g.x[first] - t - reach
            assert g.x[hi - 1] <= g.x[last] + t + reach

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("maker", [perturbed_kink_state, small_state,
                                       every_cell_active_state])
    def test_bit_identical_to_the_parent_loop(self, grid, maker, stride):
        # stride 7 against windows of 16 steps: windows are re-derived
        # between two records, and records fall mid-window
        s0 = maker(grid)
        dt = grid.dx / 2
        got = list(snapshots(s0, Scheme(SchemeKind.LEAPFROG, dt), 112 * dt,
                             stride * dt))
        want = list(parent_leapfrog_run(s0, dt, 112, stride))
        assert len(got) == len(want) == 112 // stride + 1
        for g, w in zip(got, want):
            assert g.time == w.time
            assert np.array_equal(g.phi.values, w.phi.values)
            assert np.array_equal(g.phi_t.values, w.phi_t.values)

    # the first band is 64 cells, then 256, 1024 and 4096: past four bands
    # the scan reads from offset 5440 on
    @given(case=window_cases())
    # the first active cell past the first band, and past four
    @example(case=(256, 2, 254, 0.0, 0, [(100, "f_cur", 1e-3)]))
    @example(case=(8192, 2, 8190, 0.0, 0, [(6000, "f_prev", 2e-12)]))
    @example(case=(8192, 2, 8190, 2.0 * np.pi, 6000, []))
    # no active cell
    @example(case=(8192, 40, 8000, 0.0, 38, []))
    # a NaN past the first band
    @example(case=(256, 10, 250, 0.0, 8, [(90, "f_prev", np.nan)]))
    @example(case=(8192, 2, 8190, 0.0, 0, [(70, "f_cur", np.nan),
                                          (7000, "f_prev", -5e-12)]))
    @settings(max_examples=100, deadline=None)
    def test_window_scan_from_the_edges(self, case):
        args = window_case(*case)
        assert _window(*args) == full_grid_window(*args[:4])
        assert _window(*args) == parent_window(*args)

    def test_frozen_cells_hold_one_value(self, grid):
        # phi_t = 1e-11 moves a cell 3e-13 in a step, below _QUIET: a frozen
        # cell takes f_cur's value in all three buffers, so it stays put
        # and yields phi_t = 0 exactly, on every step
        s0 = small_state(grid)
        s0 = State(s0.phi, Field(grid, s0.phi_t.values + 1e-11), 0.0,
                   Topology.ZERO)
        dt = grid.dx / 2
        states = evolve(s0, Scheme(SchemeKind.LEAPFROG, dt), 8 * dt,
                        snapshot_every=dt).states[1:]
        far = np.abs(grid.x) > 10.0
        for s in states:
            assert not np.any(s.phi_t.values[far])
            assert np.array_equal(s.phi.values[far], states[0].phi.values[far])

    def test_data_at_rest_step_an_empty_window(self, grid):
        # 0 on every cell: no cell is active, the window is empty, and a
        # step writes nothing
        zeros = np.zeros(grid.n)
        s0 = State(Field(grid, zeros), Field(grid, zeros), 0.0, Topology.ZERO)
        lo, hi = _window(zeros, zeros, 0.0, 0.0, 2, grid.n - 2)
        assert lo == hi
        dt = grid.dx / 2
        for s in snapshots(s0, Scheme(SchemeKind.LEAPFROG, dt), 40 * dt,
                           8 * dt):
            assert not np.any(s.phi.values) and not np.any(s.phi_t.values)

    @given(amp=st.floats(-0.05, 0.05), center=st.floats(-20.0, 20.0),
           width=st.floats(0.3, 4.0), beta=st.floats(-0.7, 0.7))
    @settings(max_examples=10, deadline=None)
    def test_window_matches_reference_on_random_bumps(self, grid, amp, center,
                                                      width, beta):
        s0 = kink_state(grid, beta=beta)
        bump = amp * np.exp(-((grid.x - center) / width) ** 2)
        s0 = State(Field(grid, s0.phi.values + bump),
                   Field(grid, s0.phi_t.values + bump), 0.0, Topology.KINK)
        dt = grid.dx / 2
        end = evolve(s0, Scheme(SchemeKind.LEAPFROG, dt), 480 * dt,
                     snapshot_every=480 * dt).states[-1]
        [(phi, pt)] = reference_leapfrog(s0, dt, 480, 480)
        assert np.max(np.abs(end.phi.values - phi)) < 1e-11
        assert np.max(np.abs(end.phi_t.values - pt)) < 1e-11

    @pytest.mark.parametrize("stride", range(1, 9))
    def test_final_state_independent_of_stride(self, grid, stride):
        # recording copies out of the rotating buffers and never writes
        # them, and the window is re-derived on the run's own step count:
        # 256 steps are 16 re-derivations around a growing front
        s0 = perturbed_kink_state(grid)
        dt = grid.dx / 2
        scheme = Scheme(SchemeKind.LEAPFROG, dt)
        ref = evolve(s0, scheme, 256 * dt, snapshot_every=256 * dt)
        traj = evolve(s0, scheme, 256 * dt, snapshot_every=stride * dt)
        assert traj.times[-1] == ref.times[-1]
        assert np.array_equal(traj.states[-1].phi.values,
                              ref.states[-1].phi.values)
        assert np.array_equal(traj.states[-1].phi_t.values,
                              ref.states[-1].phi_t.values)

    def test_recorded_arrays_share_no_memory(self, grid):
        s0 = perturbed_kink_state(grid)
        phi0, pt0 = s0.phi.values.copy(), s0.phi_t.values.copy()
        dt = grid.dx / 2
        traj = evolve(s0, Scheme(SchemeKind.LEAPFROG, dt), 8 * dt,
                      snapshot_every=dt)
        assert traj.states[0] is s0
        arrays = [a for s in traj.states for a in (s.phi.values, s.phi_t.values)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        assert np.array_equal(s0.phi.values, phi0)
        assert np.array_equal(s0.phi_t.values, pt0)


class TestComposition:
    """The spectral schemes against an unfused complex-FFT reference."""

    @pytest.mark.parametrize("kind", list(_WEIGHTS))
    def test_matches_reference_at_every_snapshot(self, grid, kind):
        s0 = breather_state(grid)
        dt = grid.dx / 2
        traj = evolve(s0, Scheme(kind, dt), 2.0, snapshot_every=0.5)
        phi, pt = s0.phi.values, s0.phi_t.values
        for state in traj.states[1:]:
            phi, pt = reference_steps(phi, pt, grid, _WEIGHTS[kind], dt, 16)
            assert np.max(np.abs(state.phi.values - phi)) < 1e-11
            assert np.max(np.abs(state.phi_t.values - pt)) < 1e-11

    @pytest.mark.parametrize("n", [2048, 1023])
    @pytest.mark.parametrize("kind", list(_WEIGHTS))
    def test_matches_reference_with_nonzero_means(self, kind, n):
        grid = Grid(-64.0, 64.0, n)
        s0 = shifted_breather_state(grid)
        dt = 1.0 / 32
        traj = evolve(s0, Scheme(kind, dt), 2.0, snapshot_every=0.5)
        phi, pt = s0.phi.values, s0.phi_t.values
        for state in traj.states[1:]:
            phi, pt = reference_steps(phi, pt, grid, _WEIGHTS[kind], dt, 16)
            assert np.max(np.abs(state.phi.values - phi)) < 1e-11
            assert np.max(np.abs(state.phi_t.values - pt)) < 1e-11
        assert abs(np.mean(traj.states[-1].phi.values)
                   - np.mean(s0.phi.values)) > 1e-3

    @pytest.mark.parametrize("kind", list(_WEIGHTS))
    def test_exact_on_small_data(self, grid, kind):
        # the drift is the exact Klein-Gordon flow and the kick phi - sin phi
        # is cubic, so at amplitude 1e-6 even dt = 1/2 is exact to rounding
        s0, exact = free_state(grid, 1e-6, 0.0), free_state(grid, 1e-6, 4.0)
        end = evolve(s0, Scheme(kind, 0.5), 4.0, snapshot_every=4.0).states[-1]
        for a, b in ((end.phi, exact.phi), (end.phi_t, exact.phi_t)):
            scale = np.max(np.abs(b.values))
            assert np.max(np.abs(a.values - b.values)) < 1e-11 * scale

    def test_steps_between_records_allocate_no_grid_array(self):
        n, k = 4096, 40
        grid = make_grid(-128.0, 128.0, n)
        run = _composition_run(_WEIGHTS[SchemeKind.YOSHIDA4_SPECTRAL],
                               small_state(grid), grid.dx / 2, 2 * k, k)
        next(run)
        next(run)  # set-up and one stride: every buffer exists and is warm
        box = run.gi_frame.f_locals["box"]
        assert box.shape[1] < n
        peaks = []

        def before_snapshot(frame, event, arg):
            # a recording step allocates its snapshot with np.zeros; the peak
            # traced until then covers the k - 1 steps that record nothing,
            # two of which check the box, and the drifts of the k-th
            if event == "c_call" and arg is np.zeros and not peaks:
                peaks.append(tracemalloc.get_traced_memory()[1])

        tracemalloc.start()
        sys.setprofile(before_snapshot)
        try:
            next(run)
        finally:
            sys.setprofile(None)
            tracemalloc.stop()
        assert peaks, "no snapshot allocation seen"
        assert peaks[0] < 8 * n
        # no restart in the stride: a restart allocates a new box buffer
        assert run.gi_frame.f_locals["box"] is box

    @pytest.mark.parametrize("n", [2048, 1023])
    @pytest.mark.parametrize("stride", [1, 3, 8])
    @pytest.mark.parametrize("kind", list(_WEIGHTS))
    def test_bit_identical_to_public_fft_kicks(self, kind, stride, n):
        # 36 steps: stride 8 leaves a forced last record after step 32.  An
        # odd n (a Grid that make_grid would refuse) takes rfft_n_odd.  Data
        # that fill the grid run on the whole grid.
        grid = Grid(-64.0, 64.0, n)
        s0 = shifted_breather_state(grid)
        dt = grid.dx / 2
        run = boxed_run(kind, s0, dt, 36, stride)
        ref = reference_composition(_WEIGHTS[kind], s0, dt, 36, stride)
        assert {box for _, box in run} == {(0, n)}
        assert_close_to_reference(run, ref, tol=0.0)

    @pytest.mark.parametrize("maker", [seam_bump_state, edge_bump_state,
                                       rough_bump_state])
    @pytest.mark.parametrize("kind", list(_WEIGHTS))
    def test_unboxed_data_are_bit_identical(self, grid, kind, maker):
        # a box would cross the periodic seam, or the data are not resolved
        s0 = maker(grid)
        dt = grid.dx / 2
        run = boxed_run(kind, s0, dt, 36, 3)
        ref = reference_composition(_WEIGHTS[kind], s0, dt, 36, 3)
        assert {box for _, box in run} == {(0, grid.n)}
        assert_close_to_reference(run, ref, tol=0.0)

    @pytest.mark.parametrize("maker", [centred_gaussian_state,
                                       off_centre_gaussian_state,
                                       two_bumps_state])
    @pytest.mark.parametrize("kind", list(_WEIGHTS))
    def test_box_matches_whole_grid_reference(self, grid, kind, maker):
        s0 = maker(grid)
        dt = grid.dx / 2
        run = boxed_run(kind, s0, dt, 96, 8)
        ref = reference_composition(_WEIGHTS[kind], s0, dt, 96, 8)
        assert all(nb < grid.n for _, (_, nb) in run)
        assert_close_to_reference(run, ref, tol=1e-12 * data_sup(s0))

    @pytest.mark.parametrize("maker", [centred_gaussian_state,
                                       faint_gaussian_state])
    @pytest.mark.parametrize("kind", list(_WEIGHTS))
    def test_box_restarts_as_the_front_spreads(self, grid, kind, maker):
        # stride 16 records every check; at dt = dx/2 a box has 48 cells
        # between its last active cell and its edge band, which the front
        # crosses in about 96 steps
        s0 = maker(grid)
        dt = grid.dx / 2
        run = boxed_run(kind, s0, dt, 512, 16)
        ref = reference_composition(_WEIGHTS[kind], s0, dt, 512, 16)
        widths = [nb for _, (_, nb) in run]
        assert sum(b != c for b, c in zip(widths, widths[1:])) >= 3
        assert widths == sorted(widths) and widths[-1] < grid.n
        assert_close_to_reference(run, ref, tol=1e-12 * data_sup(s0))

    @pytest.mark.parametrize("maker", [right_moving_gaussian_state,
                                       left_moving_gaussian_state])
    @pytest.mark.parametrize("kind", list(_WEIGHTS))
    def test_box_edges_stay_quiet(self, grid, kind, maker):
        # stride 16 records every check: a box kept past a check had quiet
        # bands at both of its edges there
        s0 = maker(grid)
        dt = grid.dx / 2
        run = boxed_run(kind, s0, dt, 512, 16)
        band = int(np.ceil(_WINDOW_STEPS * dt / grid.dx)) + _BOX_SLACK
        quiet = _BOX_QUIET * data_sup(s0)
        kept = [(state, a, nb) for (state, (a, nb)), (_, box)
                in zip(run, run[1:]) if box == (a, nb)]
        assert len(kept) < len(run) - 3
        for state, a, nb in kept:
            for lo in (a, a + nb - band):
                for values in (state.phi.values, state.phi_t.values):
                    assert np.max(np.abs(values[lo:lo + band])) <= quiet

    @given(kind=st.sampled_from(list(_WEIGHTS)), shift=st.integers(-400, 400),
           width=st.integers(1, 40), seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_shifted_data_shift_the_run(self, grid, kind, shift, width, seed):
        # the box follows the data, through 160 steps and a restart; the
        # data are three Gaussians wide enough for a box to take them
        rng = np.random.default_rng(seed)
        cells = np.arange(grid.n)
        rows = np.zeros((2, grid.n))
        for c, w, amp in zip(rng.uniform(1000, 1000 + width, 3),
                             rng.uniform(8.0, 12.0, 3),
                             0.1 * rng.standard_normal((3, 2))):
            rows += np.multiply.outer(amp, np.exp(-((cells - c) / w) ** 2))
        dt = grid.dx / 2
        runs = [boxed_run(kind, State(Field(grid, phi), Field(grid, pt), 0.0,
                                      Topology.ZERO), dt, 160, 16)
                for phi, pt in (rows, np.roll(rows, shift, axis=1))]
        boxes = [box for _, box in runs[0]]
        assert len(set(boxes)) > 1 and boxes[-1][1] < grid.n
        for (s, (a, nb)), (r, box) in zip(*runs, strict=True):
            assert box == (a + shift, nb)
            assert r.time == s.time
            assert np.array_equal(r.phi.values, np.roll(s.phi.values, shift))
            assert np.array_equal(r.phi_t.values,
                                  np.roll(s.phi_t.values, shift))

    def test_box_sizes_are_even_and_5_smooth(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        sizes = [k for k in range(2, 3000, 2) if smooth(k)]
        for m in range(1, 2900):
            assert _fft_size(m) == next(k for k in sizes if k >= m)

    @pytest.mark.parametrize("n", [16, 270, 1440, 2000, 2048, 2700, 8192])
    def test_fft_gufuncs_match_public_calls(self, n):
        # the private kernels behind np.fft.rfft and np.fft.irfft, with the
        # kick weight as the forward normalisation factor, at whole-grid
        # sizes and at even 5-smooth box sizes
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        z = np.fft.rfft(x)
        z_in = z.copy()
        out = np.empty(n)
        pfu.irfft(z, 1.0 / n, out=out)
        assert np.array_equal(out, np.fft.irfft(z_in, n))
        assert np.array_equal(z, z_in)  # the input is not written
        s = np.empty(n // 2 + 1, complex)
        for w in (1.0, 0.3, -0.7, -_YOSHIDA_W1 / 64):
            pfu.rfft_n_even(x, w, out=s)
            assert np.array_equal(s, w * np.fft.rfft(x))

    def test_recorded_arrays_share_no_memory(self, grid):
        s0 = small_state(grid)
        phi0, pt0 = s0.phi.values.copy(), s0.phi_t.values.copy()
        states, buffers = [], []
        dt = grid.dx / 2
        run = _composition_run(_WEIGHTS[SchemeKind.YOSHIDA4_SPECTRAL], s0, dt,
                               256, 8)
        boxes = set()
        for state in run:
            # the routine's scratch arrays, read from its suspended frame
            # after each step that records: 256 steps take in a restart,
            # which makes new ones
            f_locals = run.gi_frame.f_locals
            if state is not s0:
                buffers.extend(f_locals[k] for k in ("x", "box", "g_hat",
                                                     "ph", "U", "z"))
                buffers.extend(f_locals["phases"])
                boxes.add(id(f_locals["box"]))
            states.append((state, state.phi.values.copy(),
                           state.phi_t.values.copy()))
        assert len(boxes) > 1
        assert states[0][0] is s0
        arrays = [a for state, _, _ in states
                  for a in (state.phi.values, state.phi_t.values)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:] + buffers:
                assert not np.shares_memory(a, b)
        # nothing yielded is written after it was yielded
        for state, phi, pt in states:
            assert np.array_equal(state.phi.values, phi)
            assert np.array_equal(state.phi_t.values, pt)
        assert np.array_equal(s0.phi.values, phi0)
        assert np.array_equal(s0.phi_t.values, pt0)

    def test_refuses_weights_that_are_not_a_palindrome(self, grid):
        # a recording step reuses the tail half-kick's spectrum as the head's
        run = _composition_run((0.3, 0.7), breather_state(grid), grid.dx / 2,
                               4, 1)
        with pytest.raises(ValueError, match="palindrome"):
            next(run)

    @given(kind=st.sampled_from(list(_WEIGHTS)),
           maker=st.sampled_from([breather_state, centred_gaussian_state]),
           stride=st.integers(1, 40))
    @example(kind=SchemeKind.YOSHIDA4_SPECTRAL, maker=centred_gaussian_state,
             stride=24)
    @example(kind=SchemeKind.STRANG_SPLIT_SPECTRAL,
             maker=centred_gaussian_state, stride=7)
    @settings(max_examples=10, deadline=None)
    def test_final_state_independent_of_stride(self, grid, kind, maker,
                                               stride):
        # the box is checked on the run's own step count: 128 steps are 7
        # checks and, for the Gaussian, a restart, at the same step for
        # every stride
        s0 = maker(grid)
        dt = grid.dx / 2
        ref = boxed_run(kind, s0, dt, 128, 1)
        run = boxed_run(kind, s0, dt, 128, stride)
        boxes = {state.time: box for state, box in ref}
        assert all(boxes[state.time] == box for state, box in run)
        (end, _), (ref_end, _) = run[-1], ref[-1]
        assert end.time == ref_end.time
        for a, b in ((end.phi, ref_end.phi), (end.phi_t, ref_end.phi_t)):
            assert np.max(np.abs(a.values - b.values)) < 1e-12


class TestSnapshots:
    """The generator behind evolve: same states, refusals raised eagerly."""

    @pytest.mark.parametrize("stride", [1, 3, 5, 16])
    @pytest.mark.parametrize("kind", list(SchemeKind))
    def test_bit_equal_to_evolve(self, grid, kind, stride):
        # 16 steps: strides 3 and 5 leave a forced last snapshot
        maker = (perturbed_kink_state if kind is SchemeKind.LEAPFROG
                 else breather_state)
        s0 = maker(grid)
        dt = grid.dx / 2
        args = (s0, Scheme(kind, dt), 16 * dt, stride * dt)
        streamed = list(snapshots(*args))
        held = evolve(*args).states
        assert len(streamed) == len(held) == 1 + -(-16 // stride)
        assert streamed[0] is s0 and held[0] is s0
        for a, b in zip(streamed, held):
            assert a.time == b.time
            assert np.array_equal(a.phi.values, b.phi.values)
            assert np.array_equal(a.phi_t.values, b.phi_t.values)

    @pytest.mark.parametrize("kind,t_end,every,match", [
        (SchemeKind.STRANG_SPLIT_SPECTRAL, 1.0, 0.6, "t_end"),
        (SchemeKind.STRANG_SPLIT_SPECTRAL, 1.2, 0.5, "snapshot_every"),
        (SchemeKind.LEAPFROG, 1.2, 0.6, "CFL"),
        (SchemeKind.YOSHIDA4_SPECTRAL, 1.2, 0.6, "zero topology"),
    ])
    def test_refuses_before_iteration(self, grid, kind, t_end, every, match):
        # dt = 0.3: 1.2 and 0.6 are 4 and 2 steps, 1.0 and 0.5 are not whole;
        # dt is above the leapfrog's CFL bound at dx = 1/16
        s0 = (small_state(grid) if kind is SchemeKind.STRANG_SPLIT_SPECTRAL
              else kink_state(grid))
        with pytest.raises(ValueError, match=match):
            snapshots(s0, Scheme(kind, 0.3), t_end, every)

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("name", ["t_end", "snapshot_every"])
    def test_refuses_non_finite_spans(self, grid, name, value):
        # round() raised OverflowError on inf and "cannot convert float NaN
        # to integer" on NaN; snapshots names t_end's span from s0
        spans = {"t_end": 1.2, "snapshot_every": 0.6, name: value}
        label = {"t_end": "t_end - s0.time"}.get(name, name)
        with pytest.raises(ValueError, match=re.escape(
                f"{label}={value} is not a positive whole number of steps "
                "dt=0.3")):
            snapshots(small_state(grid),
                      Scheme(SchemeKind.STRANG_SPLIT_SPECTRAL, 0.3),
                      spans["t_end"], spans["snapshot_every"])

    @given(kind=st.sampled_from([SchemeKind.LEAPFROG,
                                 SchemeKind.YOSHIDA4_SPECTRAL]),
           t0=st.floats(0.0, 50.0), dt=st.sampled_from([1 / 16, 0.1, 0.03]),
           steps=st.integers(1, 40), stride=st.integers(1, 12))
    @example(kind=SchemeKind.LEAPFROG, t0=0.0, dt=1 / 16, steps=10, stride=3)
    @example(kind=SchemeKind.YOSHIDA4_SPECTRAL, t0=0.0, dt=1 / 16, steps=10,
             stride=3)
    @settings(max_examples=25, deadline=None)
    def test_snapshot_times_are_the_yielded_times(self, kind, t0, dt, steps,
                                                  stride):
        # stride need not divide steps: 10 steps with stride 3 yield steps
        # 0, 3, 6, 9 and 10
        grid = make_grid(-16.0, 16.0, 256)  # dx = 1/8, dt below the CFL bound
        p = 0.05 * np.exp(-grid.x**2)
        s0 = State(Field(grid, p), Field(grid, p.copy()), t0, Topology.ZERO)
        yielded = [s.time for s in snapshots(s0, Scheme(kind, dt),
                                             t0 + steps * dt, stride * dt)]
        times = _snapshot_times(t0, dt, steps, stride)
        assert times.tobytes() == np.array(yielded).tobytes()
        if (steps, stride) == (10, 3):
            assert np.array_equal(times, t0 + np.array([0, 3, 6, 9, 10]) * dt)


def centered(traj, t):
    """Index of the snapshot at t and the gap to either neighbour.

    Centered differences need equal gaps; the forced last snapshot leaves a
    shorter one when snapshot_every does not divide the span.
    """
    times = traj.times
    i = traj._index_at(t)
    if i == 0 or i == len(times) - 1:
        raise ValueError("t must have snapshot neighbors on both sides")
    before, after = times[i] - times[i - 1], times[i + 1] - times[i]
    if abs(after - before) > 1e-9:
        raise ValueError(f"unequal snapshot gaps {before} and {after} around "
                         f"t={times[i]}; centered differences need equal gaps")
    return i, after


def pde_residual(traj, t):
    """f_tt - f_xx + sin f by centered differences across snapshots."""
    i, dt = centered(traj, t)
    fm, f0, fp = (traj.states[j].phi.values for j in (i - 1, i, i + 1))
    f_tt = (fp - 2.0 * f0 + fm) / dt**2
    f_xx = _fd_stencil(f0, traj.states[i].grid.dx, 2)
    return f_tt - f_xx + np.sin(f0)


def em_conservation_residual(traj, t):
    """r0 = dT00/dt - dT10/dx, r1 = dT01/dt - dT11/dx at snapshot time t."""

    def em_tensor(s):
        pt = s.phi_t.values
        px = spatial_derivative(s.phi, 1).values
        potential = 2.0 * np.sin(0.5 * s.phi.values) ** 2  # 1 - cos phi
        half = 0.5 * (pt**2 + px**2)
        return half + potential, pt * px, half - potential

    i, dt = centered(traj, t)
    grid = traj.states[i].grid
    (t00m, t01m, _), (_, t01, t11), (t00p, t01p, _) = (
        em_tensor(traj.states[j]) for j in (i - 1, i, i + 1))
    return {"r0": (t00p - t00m) / (2.0 * dt)
            - spatial_derivative(Field(grid, t01), 1).values,
            "r1": (t01p - t01m) / (2.0 * dt)
            - spatial_derivative(Field(grid, t11), 1).values}


class TestPdeResidual:
    def test_small_on_resolved_run(self, grid):
        traj = evolve(small_state(grid),
                      Scheme(SchemeKind.STRANG_SPLIT_SPECTRAL, grid.dx / 2),
                      2.0, snapshot_every=0.0625)
        res = pde_residual(traj, 1.0)
        interior = slice(8, -8)
        assert np.max(np.abs(res[interior])) < 1e-3

    def test_rejects_unequal_snapshot_gaps(self):
        # snapshots at 0, 0.375, 0.75 and the forced last one at 1.0
        grid = make_grid(-16.0, 16.0, 512)
        traj = evolve(small_state(grid, eps=0.1),
                      Scheme(SchemeKind.YOSHIDA4_SPECTRAL, 1.0 / 32), 1.0,
                      snapshot_every=0.375)
        assert np.max(np.abs(pde_residual(traj, 0.375)[8:-8])) < 0.05
        with pytest.raises(ValueError, match="unequal snapshot gaps"):
            pde_residual(traj, 0.75)
        with pytest.raises(ValueError, match="unequal snapshot gaps"):
            em_conservation_residual(traj, 0.75)


class TestConservedQuantities:
    def test_kink_energy_and_momentum(self, grid):
        beta, gamma = 0.2, 1.0 / np.sqrt(1.0 - 0.04)
        q = conserved_quantities(kink_state(grid, beta=beta))
        assert q["E0"] == pytest.approx(8.0 * gamma, rel=1e-6)
        # P = int (1/2) f_t f_x = -4 beta gamma for the kink
        assert q["P"] == pytest.approx(-4.0 * beta * gamma, rel=1e-6)
        assert q["E2"] != 0.0 and q["E4"] != 0.0

    @given(base=st.sampled_from(["zero", "kink"]), beta=st.floats(-0.6, 0.6),
           amp=st.floats(-0.1, 0.1), amp_t=st.floats(-0.1, 0.1),
           width=st.floats(0.5, 3.0), center=st.floats(-4.0, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference(self, grid, base, beta, amp, amp_t, width,
                               center):
        bump = np.exp(-((grid.x - center) / width) ** 2)
        if base == "kink":
            s0 = kink_state(grid, beta=beta)
        else:
            s0 = State(Field(grid, np.zeros(grid.n)),
                       Field(grid, np.zeros(grid.n)), 0.0, Topology.ZERO)
        s = State(Field(grid, s0.phi.values + amp * bump),
                  Field(grid, s0.phi_t.values + amp_t * bump), 0.0,
                  s0.topology)
        q, ref = conserved_quantities(s), reference_conserved(s)
        for key in ("E0", "P", "E2", "E4"):
            assert abs(q[key] - ref[key]) <= 1e-13 * max(abs(ref[key]), 1.0), key

    def test_reuses_its_workspace(self):
        # the conserve benchmark's breather; after one warm-up call the
        # intermediates live in the cached workspace, so a call's own
        # temporaries stay below 12 grid-length arrays
        grid = make_grid(-64.0, 64.0, 4096)
        s = sample_state(Breather(BreatherParams(0.0, 0.8, 0.0, 0.0)), grid,
                         0.0)
        conserved_quantities(s)
        tracemalloc.start()
        try:
            conserved_quantities(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * grid.n * 8

    @pytest.mark.parametrize("maker,scheme", [
        ("kink", SchemeKind.LEAPFROG),
        ("breather", SchemeKind.YOSHIDA4_SPECTRAL),
    ])
    def test_short_drift(self, grid, maker, scheme):
        if maker == "kink":
            s0 = kink_state(grid)
        else:
            s0 = sample_state(Breather(BreatherParams(0.0, 0.8, 0.0, 0.0)),
                              grid, 0.0)
        traj = evolve(s0, Scheme(scheme, grid.dx / 2), 5.0, snapshot_every=1.0)
        qs = [conserved_quantities(s) for s in traj.states]
        for key, tol in (("E0", 1e-6), ("P", 1e-6), ("E2", 1e-4), ("E4", 1e-4)):
            scale = max(abs(qs[0][key]), 1.0)
            drift = max(abs(q[key] - qs[0][key]) for q in qs) / scale
            assert drift < tol, key

    # The kick phi - sin phi is cubic, so the splitting error of both schemes
    # falls with the data.  At dt=1/32 Yoshida4 sits on the FD diagnostic's
    # own floor at dx=1/32 (up to 4.2e-7, width-1 bumps of amplitude 0.1) and
    # Strang adds its own error there (up to 7.8e-7).  The examples at
    # amplitude 1e-6 hold only because E0's potential is formed as
    # 2 sin^2(phi/2): 1 - cos(phi) cancels there, and read 4e-5 to 1e-4.
    @pytest.mark.parametrize("kind", list(_WEIGHTS))
    @given(amp=st.floats(0.02, 0.1), sign=st.sampled_from([-1.0, 1.0]),
           amp_t=st.floats(-0.1, 0.1), width=st.floats(1.0, 2.0),
           center=st.floats(-2.0, 2.0))
    @example(amp=1e-6, sign=1.0, amp_t=0.0, width=1.0, center=0.0)
    @example(amp=1e-6, sign=-1.0, amp_t=1e-6, width=1.0, center=0.0)
    @settings(max_examples=5, deadline=None)
    def test_spectral_conserves_small_bumps(self, kind, amp, sign, amp_t,
                                            width, center):
        # E0 and P drift relative to E0 (|P| <= E0/2), to t=4 every 0.5
        grid = make_grid(-16.0, 16.0, 1024)
        bump = np.exp(-((grid.x - center) / width) ** 2)
        s0 = State(Field(grid, sign * amp * bump), Field(grid, amp_t * bump),
                   0.0, Topology.ZERO)
        traj = evolve(s0, Scheme(kind, 1.0 / 32), 4.0, snapshot_every=0.5)
        qs = [conserved_quantities(s) for s in traj.states]
        for key in ("E0", "P"):
            drift = max(abs(q[key] - qs[0][key]) for q in qs) / qs[0]["E0"]
            assert drift < 1e-6, key


class TestEmConservation:
    def test_residual_small_for_exact_run(self, grid):
        sol = Breather(BreatherParams(0.0, 0.8, 0.0, 0.0))
        s0 = sample_state(sol, grid, 0.0)
        traj = evolve(s0, Scheme(SchemeKind.YOSHIDA4_SPECTRAL, grid.dx / 2),
                      1.0, snapshot_every=0.25)
        res = em_conservation_residual(traj, 0.5)
        interior = slice(8, -8)
        worst = max(np.max(np.abs(res["r0"][interior])),
                    np.max(np.abs(res["r1"][interior])))
        assert worst < 1e-2
