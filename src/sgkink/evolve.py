"""Time evolution of f_tt - f_xx + sin f = 0 and conservation diagnostics.

Two backends: a leapfrog finite-difference scheme that handles kink-topology
(non-periodic) fields, each step one fused in-place update of three rotating
preallocated buffers on the window of cells the solution has reached (finite
speed of propagation: outside it the field sits at its end value to 1e-12;
the window is re-derived every 16 steps), and one kick-drift-kick composition
routine for zero-topology fields, split at the Klein-Gordon operator: each
drift is exact, one in-place complex multiplication of the one-way waves
phi_t^ +- i<xi> phi^ of the numpy.fft half spectra, and each kick, by
phi - sin phi, is cubic in phi.  Strang splitting is its one-weight case and
the 4th-order Yoshida scheme its three-weight case; adjacent half-kicks are
fused, and the blow-up guard runs once per recorded snapshot.  Its kicks call
numpy's pocketfft gufuncs (the kernels behind np.fft.rfft and np.fft.irfft)
on preallocated buffers, which skips the wrappers' fixed per-call cost and
gives the same bits.  Its FFTs are only as wide as the radiation: it runs on
a periodic box of the grid that holds every cell above a quiet level tied to
the data, plus a light-cone margin, checks the box's edges every 16 steps and
restarts on a larger box when they are not quiet; the whole grid is the
largest box (see _composition_run).  Both backends are generators:
`snapshots` yields each State as it is reached, and `evolve` holds them all
in a Trajectory.
Conserved quantities E0, P and the higher invariants E2, E4 are functionals
of a single State: time derivatives beyond phi_t are eliminated through the
equation itself (phi_tt = phi_xx - sin phi).  E2 and E4 sum their two null
families in closed form, from three stacked finite-difference calls whose
results, and the other named intermediates, fill one workspace cached per
grid size.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .fields import Field, State, Topology, _fd_stencil, _trapezoid

__all__ = [
    "SchemeKind",
    "Scheme",
    "Trajectory",
    "snapshots",
    "evolve",
    "conserved_quantities",
]

_BLOWUP = 1e6
# the leapfrog's light-cone window: re-derived every _WINDOW_STEPS steps,
# around the cells more than _QUIET from their end value (see _leapfrog_run)
_WINDOW_STEPS = 16
_QUIET = 1e-12
# _window scans inward from each edge of the last window, first this many
# cells, then 4 times as many at each band
_SCAN_BAND = 64
# the spectral schemes' box (see _composition_run): cells are quiet at most
# _BOX_QUIET times the data's sup; a box keeps _BOX_BANDS bands of
# _WINDOW_STEPS dt/dx + _BOX_SLACK cells a side, and takes only data whose
# spectrum's top quarter is at most _BOX_RESOLVED times its peak
_BOX_QUIET = 1e-13
_BOX_SLACK = 8
_BOX_BANDS = 4
_BOX_RESOLVED = 1e-9


class SchemeKind(Enum):
    LEAPFROG = "leapfrog"
    STRANG_SPLIT_SPECTRAL = "strang"
    # Yoshida triple-jump composition of the Strang step: 4th order in time,
    # needed where 2nd-order truncation would swamp a conservation tolerance
    YOSHIDA4_SPECTRAL = "yoshida4"


# drift weights per composition; Yoshida: w1, 1-2*w1, w1, w1 = 1/(2-2^(1/3))
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_DRIFT_WEIGHTS = {
    SchemeKind.STRANG_SPLIT_SPECTRAL: (1.0,),
    SchemeKind.YOSHIDA4_SPECTRAL: (_W1, 1.0 - 2.0 * _W1, _W1),
}


@dataclass(frozen=True)
class Scheme:
    kind: SchemeKind
    dt: float

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


@dataclass
class Trajectory:
    states: list

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])

    def _index_at(self, t: float) -> int:
        times = self.times
        i = int(np.argmin(np.abs(times - t)))
        if abs(times[i] - t) > 1e-9:
            raise ValueError(f"no snapshot at t={t}; nearest is {times[i]}")
        return i

    def state_at(self, t: float) -> State:
        return self.states[self._index_at(t)]


def _guard(arr: np.ndarray) -> None:
    """Raise on |value| > 1e6, and on NaN, which fails every comparison."""
    if not np.max(np.abs(arr)) <= _BLOWUP:
        raise RuntimeError("blow-up detected (|value| > 1e6); check setup")


def _whole_steps(span: float, dt: float, name: str) -> int:
    steps = span / dt
    if (not np.isfinite(steps) or abs(steps - round(steps)) > 1e-9
            or round(steps) < 1):
        raise ValueError(f"{name}={span} is not a positive whole number of "
                         f"steps dt={dt}")
    return int(round(steps))


def _run_steps(scheme: Scheme, dx: float, topology: Topology, span: float,
               snapshot_every: float, span_name: str) -> tuple[int, int]:
    """(steps, stride) of a run over span, or ValueError for a run that
    snapshots would refuse: span and snapshot_every must be whole multiples
    of dt (to 1e-9 steps), rather than rounded; the leapfrog refuses
    dt >= 2/sqrt(16/(3 dx^2) + 1), its stability limit (the stencil's symbol
    is at most 16/(3 dx^2), sin adds 1); the spectral schemes refuse kink
    topology."""
    dt = scheme.dt
    n_steps = _whole_steps(span, dt, span_name)
    stride = _whole_steps(snapshot_every, dt, "snapshot_every")
    if scheme.kind is SchemeKind.LEAPFROG:
        bound = 2.0 * (16.0 / (3.0 * dx * dx) + 1.0) ** -0.5
        if dt >= bound:
            raise ValueError(f"CFL violation: dt={float(dt)!r} >= 2/sqrt(16/"
                             f"(3 dx^2) + 1) = {bound!r} at dx={dx!r}")
    elif topology is Topology.KINK:
        raise ValueError("spectral scheme requires zero topology")
    return n_steps, stride


def _snapshot_times(t0: float, dt: float, steps: int,
                    stride: int) -> np.ndarray:
    """The times at which a run of steps steps of dt from t0 yields, each
    t0 + step dt: step 0, every stride steps, and the last step."""
    return t0 + np.append(np.arange(0, steps, stride), steps) * dt


def snapshots(s0: State, scheme: Scheme, t_end: float,
              snapshot_every: float) -> Iterator[State]:
    """Integrate s0 to t_end, yielding a snapshot every snapshot_every.

    s0 comes first and the last step is always yielded.  The blow-up guard
    checks each yielded snapshot only, so detection can lag by up to one
    snapshot stride.  Every refusal (see _run_steps) is raised by this call,
    before the returned generator runs.
    """
    n_steps, stride = _run_steps(scheme, s0.grid.dx, s0.topology,
                                 t_end - s0.time, snapshot_every,
                                 "t_end - s0.time")
    if scheme.kind is SchemeKind.LEAPFROG:
        return _leapfrog_run(s0, scheme.dt, n_steps, stride)
    return _composition_run(_DRIFT_WEIGHTS[scheme.kind], s0, scheme.dt,
                            n_steps, stride)


def evolve(s0: State, scheme: Scheme, t_end: float,
           snapshot_every: float) -> Trajectory:
    """Every snapshot of snapshots(s0, scheme, t_end, snapshot_every), held."""
    return Trajectory(list(snapshots(s0, scheme, t_end, snapshot_every)))


def _window(f_prev: np.ndarray, f_cur: np.ndarray, left: float,
            right: float, lo: int, hi: int) -> tuple[int, int]:
    """The cells [lo, hi) that the next _WINDOW_STEPS leapfrog steps update,
    given the window [lo, hi) of the last ones ((2, n - 2) at the start).

    A cell is active when f_cur or f_prev is more than _QUIET from the
    clamped end value on its side: left for the first active cell, right
    for the last; NaN counts as active.  The window is the active span
    widened by the stencil's reach over _WINDOW_STEPS steps, 2 cells a step
    and 2 more for the stencil itself, clipped to the interior [2, n - 2).

    Only [lo - 2, hi + 2) is scanned, which takes in the clamped cells when
    lo = 2.  The cells outside it were quiet towards their own side when
    the last window was derived and have been frozen since, so the scan
    finds what a scan of the whole grid would, unless the two end values
    differ by 2 _QUIET or less without being equal.  Each end is scanned
    inward from its own edge (see _edge_scan), so a window whose active
    span starts near its edges reads a band of cells at each end, not the
    whole window twice.
    """
    n = f_cur.size
    reach = 2 * _WINDOW_STEPS + 2
    a, b = max(lo - 2, 0), min(hi + 2, n)
    first = _edge_scan(f_prev, f_cur, left, a, b, True)
    last = _edge_scan(f_prev, f_cur, right, a, b, False)
    lo = min(max(first - reach, 2), n - 2)
    hi = max(min(last + 1 + reach, n - 2), lo)
    return int(lo), int(hi)


def _edge_scan(f_prev: np.ndarray, f_cur: np.ndarray, end: float, a: int,
               b: int, from_left: bool) -> int:
    """The first cell of [a, b) active towards end (see _window), or n if
    none is; from the right, the last one, or -1.  The scan reads bands of
    _SCAN_BAND cells inward from the edge, each 4 times the last, and stops
    at the first band that holds an active cell."""
    width = _SCAN_BAND
    while a < b:
        s, e = (a, min(a + width, b)) if from_left else (max(b - width, a), b)
        # np.maximum propagates NaN, and NaN <= _QUIET is False
        far = np.abs(f_cur[s:e] - end)
        np.maximum(far, np.abs(f_prev[s:e] - end), out=far)
        hits = np.flatnonzero(~(far <= _QUIET))
        if hits.size:
            return s + int(hits[0] if from_left else hits[-1])
        a, b = (e, b) if from_left else (a, s)
        width *= 4
    return f_cur.size if from_left else -1


def _leapfrog_run(s0: State, dt: float, n_steps: int, stride: int):
    """f_next = 2f - f_prev + dt^2 (f_xx - sin f), 4th-order f_xx, in place.

    f_prev, f_cur and f_next are three preallocated buffers that rotate each
    step.  A step writes the active window [lo, hi) of f_next with 11
    ufuncs, positional outputs and one scratch array; the two
    stencil-starved cells at either end hold s0's values in all three
    buffers.  The slice views a step reads and writes, each buffer's window
    and its shifts by 1 and 2 cells a side, are built once per window and
    rotate with their buffers, so a step slices nothing.

    The window follows the solution's light cone.  Every _WINDOW_STEPS steps,
    counted from the start of the run and not from the yields, so the window
    does not depend on the recording stride, _window re-derives it from
    f_prev and f_cur, scanning inward from the last window's edges, and
    f_cur's values outside it are copied into the other two buffers: a
    frozen cell keeps one value through the rotation, and its yielded phi_t
    is exactly 0.

    _QUIET = 1e-12 sits just above the rounding drift of a field at its end
    value: a uniform 2 pi field stepped on every cell at dx = 1/16 moves by
    up to 9.4e-13 in 1,000 steps.  On kink-stability over [-128, 128) with
    n = 4096 to t = 100, 1e-14 lets that drift widen the window (58% of the
    cells stepped on average, against 46%), and 1e-10 steps 45% but moves
    the sup-norm ratio by 3.0e-10 from the full-grid run, against 1.3e-11.
    Re-deriving every 16 steps keeps the scan, of bands at the last window's
    edges, to a sixteenth of the steps, and the widening it costs, 34 cells
    a side, is small next to the cone.  Data that fill the grid get the
    whole interior.  Yielded states own their arrays.
    """
    grid = s0.grid
    f_prev = np.array(s0.phi.values, dtype=float)
    accel0 = _fd_stencil(f_prev, grid.dx, 2) - np.sin(f_prev)
    f_cur = f_prev + dt * s0.phi_t.values + 0.5 * dt * dt * accel0
    # tail values are constants of the motion
    f_cur[:2], f_cur[-2:] = f_prev[:2], f_prev[-2:]
    f_next = f_prev.copy()
    left, right = f_prev[0], f_prev[-1]
    scratch = np.empty(grid.n - 4)
    # the interior rows of _fd_stencil's order-2 stencil, times dt^2
    c = (dt / grid.dx) ** 2 / 12.0
    c16, c_mid, neg_dt2 = 16.0 * c, 2.0 - 30.0 * c, -(dt * dt)
    lo, hi = 2, grid.n - 2
    yield s0
    t0 = s0.time
    for step in range(1, n_steps + 1):
        if (step - 1) % _WINDOW_STEPS == 0:
            lo, hi = _window(f_prev, f_cur, left, right, lo, hi)
            for buf in (f_prev, f_next):
                buf[:lo], buf[hi:] = f_cur[:lo], f_cur[hi:]
            tmp = scratch[:hi - lo]
            # each buffer's window and its shifts by -1, +1, -2, +2 cells
            v_prev, v_cur, v_next = ((b[lo:hi], b[lo - 1:hi - 1],
                                      b[lo + 1:hi + 1], b[lo - 2:hi - 2],
                                      b[lo + 2:hi + 2])
                                     for b in (f_prev, f_cur, f_next))
        inner, mid, m1, p1, m2, p2 = v_next[0], *v_cur
        np.sin(mid, inner)
        np.multiply(inner, neg_dt2, inner)
        np.subtract(inner, v_prev[0], inner)
        np.add(m1, p1, tmp)
        np.multiply(tmp, c16, tmp)
        np.add(inner, tmp, inner)
        np.add(m2, p2, tmp)
        np.multiply(tmp, c, tmp)
        np.subtract(inner, tmp, inner)
        np.multiply(mid, c_mid, tmp)
        np.add(inner, tmp, inner)
        if step % stride == 0 or step == n_steps:
            _guard(f_next)
            phi_t = (f_next - f_prev) / (2.0 * dt)
            yield State(Field(grid, f_cur.copy()), Field(grid, phi_t),
                        t0 + step * dt, s0.topology)
        f_prev, f_cur, f_next = f_cur, f_next, f_prev
        v_prev, v_cur, v_next = v_cur, v_next, v_prev


def _fft_size(m: int) -> int:
    """The smallest even 2^p 3^q 5^r that is at least m."""
    k = max(m + m % 2, 2)
    while True:
        r = k
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return k
        k += 2


def _active(phi: np.ndarray, phi_t: np.ndarray, quiet: float) -> np.ndarray:
    """The cells where |phi| or |phi_t| is more than quiet; NaN counts."""
    return np.flatnonzero(~((np.abs(phi) <= quiet) & (np.abs(phi_t) <= quiet)))


def _box_quiet(phi: np.ndarray, phi_t: np.ndarray) -> float:
    """The level at which a cell of the data (phi, phi_t) is quiet: _BOX_QUIET
    times the larger of their sup norms."""
    return _BOX_QUIET * max(np.max(np.abs(phi)), np.max(np.abs(phi_t)))


def _box(phi: np.ndarray, phi_t: np.ndarray, offset: int, quiet: float,
         margin: int, n: int) -> tuple[int, int]:
    """The box [a, a + nb) of an n-cell grid, as (a, nb), for a state whose
    phi and phi_t fill the cells [offset, offset + phi.size).

    The active cells (see _active), widened by margin cells a side, must
    lie in [0, n); nb is the smallest even 5-smooth size that holds them,
    and the box is centred on them and then moved inside the grid.  No
    active cell, a widened span past either end of the grid, or nb >= n
    gives the whole grid, (0, n).
    """
    active = _active(phi, phi_t, quiet)
    if not active.size:
        return 0, n
    lo = offset + int(active[0]) - margin
    hi = offset + int(active[-1]) + 1 + margin
    if lo < 0 or hi > n:
        return 0, n
    nb = _fft_size(hi - lo)
    if nb >= n:
        return 0, n
    return min(max(lo - (nb - (hi - lo)) // 2, 0), n - nb), nb


def _composition_run(weights: tuple, s0: State, dt: float, n_steps: int,
                     stride: int):
    """Composition of kick-drift-kick Strang steps of sizes w*dt, w in weights.

    A drift by h is the exact flow of phi_tt = phi_xx - phi, a kick
    phi_t -= h (sin phi - phi).  The state is the two one-way waves
    U+- = phi_t^ +- i<xi> phi^, <xi> = sqrt(1 + xi^2), of the rfft half
    spectra, one (2, nb//2+1) array, so a drift is one in-place
    multiplication by [e^{i<xi>h}, e^{-i<xi>h}].  Kick: phi^ = (U+ - U-)
    (-i/(2<xi>)) is formed in a preallocated buffer, then one irfft,
    sin phi - phi and one rfft, each written into a preallocated buffer by
    the gufunc that np.fft itself calls; the kick weight is the rfft's
    normalisation factor, and the spectrum is added to both rows.  Adjacent
    half-kicks are fused, across steps too (first-same-as-last), and split
    only on steps that yield or check the box; such a step inverts
    phi_t^ = (U+ + U-)/2 once, between the two halves of the kick, so its
    phi_t is synchronised with phi.  weights must be a palindrome, so both
    halves are the same spectrum.

    The spectra are those of a periodic box, the cells [a, a + nb) of the
    grid with nb even and 5-smooth, and the field is taken as 0 outside it.
    A cell is quiet when |phi| and |phi_t| are at most _BOX_QUIET times the
    larger of s0's two sup norms: a level tied to the data, so a run at
    amplitude 1e-6 is as exact as one at 1e-1.  A box holds the cells that
    are not quiet and _BOX_BANDS bands of ceil(_WINDOW_STEPS dt/dx) +
    _BOX_SLACK cells a side (see _box): a band is how far the light cone
    travels between two checks, plus the reach of the drift's kernel.
    Every _WINDOW_STEPS steps, counted from the start of the run so that
    the boxes do not depend on the recording stride, the band at each edge
    of the box is checked; if either is not quiet, the run restarts on the
    box of the synchronised (phi, phi_t), which is zero-padded onto it and
    transformed as s0 is at the start.  A box also needs data resolved on
    it: for data with content near the Nyquist mode, the drift's kernel
    reaches across any margin in one step, so a box whose U, over the top
    quarter of its modes, is more than _BOX_RESOLVED times its peak is
    refused.  Data that fill the grid, sit across its periodic seam,
    outgrow it or are not resolved run on the whole grid, with no checks:
    from there on the arithmetic is the whole-grid routine's, bit for bit.
    A boxed run drops only quiet cells.  On smooth data it differs from a
    whole-grid run by about 1e-14 times the data's sup (Gaussians of width
    1 in x, at dx = 1/8 and 1/16), by at most 5e-14 times the sup on the
    narrowest Gaussians a box takes (standard deviation 3.5 cells), and by
    1.6e-12 in phi on the conservation config's breather (sup 3.7).

    Yielded states own fresh full-grid arrays, zero outside the box.
    """
    if weights != weights[::-1]:
        raise ValueError(f"composition weights {weights} are not a palindrome")
    # numpy loads numpy.fft on first use; importing it here keeps it out of
    # `import sgkink`
    from numpy.fft import _pocketfft_umath as pfu

    grid, n = s0.grid, s0.grid.n
    inner = [0.5 * (a + b) * dt for a, b in zip(weights, weights[1:])]
    head, tail = 0.5 * weights[0] * dt, 0.5 * weights[-1] * dt
    src, offset = (s0.phi.values, s0.phi_t.values), 0
    quiet = _box_quiet(*src)
    band = math.ceil(_WINDOW_STEPS * dt / grid.dx) + _BOX_SLACK
    margin = _BOX_BANDS * band
    a, nb = _box(*src, offset, quiet, margin, n)

    def kick(weight, phi_out):
        # U -= weight * rfft(sin(phi) - phi) on both rows, phi in phi_out
        np.subtract(up, um, out=ph)
        np.multiply(ph, inv, out=ph)
        pfu.irfft(ph, 1.0 / nb, out=phi_out)
        np.sin(phi_out, out=x)
        np.subtract(x, phi_out, out=x)
        rfft(x, -weight, out=g_hat)
        # row by row: a broadcast add allocates a copy of U
        np.add(up, g_hat, out=up)
        np.add(um, g_hat, out=um)

    yield s0
    step = 0
    while step < n_steps:
        # (re)start on [a, a + nb): src zero-padded onto the box, with the
        # head half-kick of the next step, then transformed; box then holds
        # each split step's (phi, phi_t)
        box = np.zeros((2, nb))
        lo, hi = max(a, offset), min(a + nb, offset + src[0].size)
        for row, values in zip(box, src):
            row[lo - a:hi - a] = values[lo - offset:hi - offset]
        box[1] -= head * (np.sin(box[0]) - box[0])
        z = np.fft.rfft(box)
        jxi = np.hypot(1.0, 2.0 * np.pi * np.fft.rfftfreq(nb, d=grid.dx))
        phases = [np.exp(np.multiply.outer((1j, -1j), jxi * (w * dt)))
                  for w in weights]
        inv = -0.5j / jxi
        U = z[1] + np.multiply.outer((1j, -1j), jxi) * z[0]
        if nb < n and not (np.max(np.abs(U[:, 3 * (nb // 8):]))
                           <= _BOX_RESOLVED * np.max(np.abs(U))):
            a, nb = 0, n
            continue
        up, um = U
        ph, g_hat = np.empty_like(z)
        x = np.empty(nb)
        rfft = pfu.rfft_n_even if nb % 2 == 0 else pfu.rfft_n_odd
        for step in range(step + 1, n_steps + 1):
            for i, phase in enumerate(phases):
                if i:
                    kick(inner[i - 1], box[0])
                np.multiply(U, phase, out=U)
            recording = step % stride == 0 or step == n_steps
            checking = (nb < n and step % _WINDOW_STEPS == 0
                        and step != n_steps)
            if not (recording or checking):
                kick(tail + head, box[0])
                continue
            kick(tail, box[0])
            # phi_t^ = (U+ + U-)/2, the 1/2 carried by the normalisation factor
            np.add(up, um, out=ph)
            pfu.irfft(ph, 0.5 / nb, out=box[1])
            if recording:
                _guard(box)
                snap = np.zeros((2, n))
                snap[:, a:a + nb] = box
                yield State(Field(grid, snap[0]), Field(grid, snap[1]),
                            s0.time + step * dt, s0.topology)
            # NaN fails both comparisons and restarts
            if checking and not (np.max(np.abs(box[:, :band])) <= quiet
                                 and np.max(np.abs(box[:, -band:])) <= quiet):
                src, offset = box, a
                a, nb = _box(*box, a, quiet, margin, n)
                break
            # the head half-kick, whose spectrum rfft(x, -head) is g_hat
            np.add(up, g_hat, out=up)
            np.add(um, g_hat, out=um)


# ---------------------------------------------------------------------------
# Conserved quantities


@lru_cache(maxsize=1)
def _workspace(n: int) -> np.ndarray:
    """The scratch rows of conserved_quantities, one buffer per grid size
    shared by every call, so conserved_quantities is not reentrant."""
    return np.empty((15, n))


def conserved_quantities(s: State) -> dict:
    """Energy E0, momentum P, and the higher invariants E2, E4.

    E2 and E4 integrate the energy currents of the two null directions
    d_s = (d_t + s d_x)/sqrt(2), s = -1, +1.  Each density is a polynomial
    in s, so the sum of the two families is twice its even part, written
    here in closed form with a = phi_t, b = phi_x, S = a^2 + b^2, T = 2ab,
    C = phi_tt + phi_xx, C2 = C^2 + 4 phi_tx^2, E = phi_ttt + 3 phi_txx and
    F = 3 phi_ttx + phi_xxx:

      j2 = C2/2 - (S^2 + T^2)/8 + S cos(phi)/2
      j4 = (E^2 + F^2)/4 + 5/8 (S C2 + 4 T C phi_tx)
           + 5/12 ((S a + T b) 4 phi_txx + (S b + T a) 2 (phi_ttx + phi_xxx))
           + (S^3 + 3 S T^2)/32 - 3/16 (S^2 + T^2) cos(phi)
           + 3/4 (S C + 2 T phi_tx) sin(phi) + C2 cos(phi)/4

    Time derivatives beyond phi_t come from the equation.  The named
    intermediates live in one cached workspace (see _workspace).
    """
    dx = s.grid.dx
    w = _workspace(s.grid.n)
    # each stacked derivative reads and writes two adjacent rows
    (pt, phi, ptx, px, ptxx, pxx, ptt, pxxx, pttx,
     cosphi, sinphi, sin_half, pttt, S, T) = w
    pt[:], phi[:] = s.phi_t.values, s.phi.values
    _fd_stencil(w[0:2], dx, 1, out=w[2:4])
    _fd_stencil(w[0:2], dx, 2, out=w[4:6])
    np.cos(phi, out=cosphi)
    np.sin(phi, out=sinphi)
    np.sin(0.5 * phi, out=sin_half)
    np.subtract(pxx, sinphi, out=ptt)
    _fd_stencil(w[5:7], dx, 1, out=w[7:9])
    np.subtract(ptxx, pt * cosphi, out=pttt)
    np.add(pt * pt, px * px, out=S)
    np.multiply(pt, 2.0 * px, out=T)

    # 1 - cos phi as 2 sin^2(phi/2): no cancellation for small phi
    e0 = _trapezoid(0.5 * S + 2.0 * sin_half * sin_half, dx)
    p_mom = 0.25 * _trapezoid(T, dx)

    C = ptt + pxx
    C2 = C * C + 4.0 * ptx * ptx
    Q = S * S + T * T
    j2 = 0.5 * C2 - 0.125 * Q + 0.5 * S * cosphi
    j4 = 0.25 * ((pttt + 3.0 * ptxx) ** 2 + (3.0 * pttx + pxxx) ** 2)
    j4 += 0.625 * (S * C2 + 4.0 * T * C * ptx)
    j4 += (5.0 / 12.0) * ((S * pt + T * px) * (4.0 * ptxx)
                          + (S * px + T * pt) * (2.0 * (pttx + pxxx)))
    j4 += S * (S * S + 3.0 * T * T) / 32.0
    j4 += (0.25 * C2 - 0.1875 * Q) * cosphi
    j4 += 0.75 * (S * C + 2.0 * T * ptx) * sinphi

    return {"E0": e0, "P": p_mom, "E2": _trapezoid(j2, dx),
            "E4": _trapezoid(j4, dx)}
