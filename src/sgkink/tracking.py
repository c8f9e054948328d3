"""Kink-center selection, velocity estimation, and decay diagnostics.

solve_center finds the orthogonality center, int (f - Q(.; beta, c))
sech(gamma(x - beta t - c)) dx = 0, by Newton with its analytic slope, and
pi_level_center the pi-level center f(beta t + c) = pi; track follows the
first.  Their mutual distance is itself a diagnostic: for small
perturbations it decays like t^(-1/2).  The center solve sums only the
window of cells where its sech weight is above 8.5e-18, found by index
arithmetic on the uniform grid.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .exact import KinkParams, kink_identities
from .fields import (
    Field,
    State,
    _fd_stencil,
    _l2plus_linf,
    _local_poly,
    _pair_energy,
    _trapezoid,
    norm,  # noqa: F401 -- perfbench's tracer test reads sgkink.tracking.norm
    spatial_derivative,
)

__all__ = [
    "TrackRecord",
    "solve_center",
    "pi_level_center",
    "center_velocity",
    "track",
    "fit_decay_exponent",
]

_MIN_FIT_SAMPLES = 10  # fit_decay_exponent's fewest points in its window
# The half-width of _orthogonality's window in z = gamma (x - beta t - c).
# sech(z) <= 2 e^(-|z|), so past it the weight is below 8.5e-18 and the
# window drops at most about 4 e^(-40) = 1.7e-17 times sup|f - Q| from g
# (over gamma) and from dg/dc: far below solve_center's 1e-12 and the
# rounding of the sums it keeps.
_SECH_REACH = 40.0


@dataclass(frozen=True)
class TrackRecord:
    time: float
    center: float
    center_velocity: float
    diff_linf: float
    diff_deriv_l2plinf: float
    diff_pair_energy: float
    exterior_l2: float | None  # L2 of the difference over |x| >= t
    exterior_sup: tuple | None  # (sup of |d0|+|d1|+|d2| there, |x|-t at it)
    state: State = field(compare=False, repr=False)  # the snapshot read
    # the snapshot's phi_x, _fd_stencil(phi, dx, 1), for callers that need it
    f_x: np.ndarray = field(compare=False, repr=False)


def _orthogonality(f: Field, beta: float, t: float, c: float) -> tuple:
    """Grid sums g = int (f - Q) sech(z), z = gamma(x - beta t - c), which is
    F3 since int Q sech = pi^2/gamma, and dg/dc = int (Q_x - gamma (f - Q)
    cos(Q/2)) sech(z), 4 at a kink.

    Both are trapezoid sums over the cells with |z| <= _SECH_REACH only, a
    slice of the grid found from the center and dx with no scan; the
    rule's half weights fall only where the slice meets a grid end.
    """
    p, grid = KinkParams(beta, c), f.grid
    mid = (beta * t + c - grid.x_min) / grid.dx  # the center, in cells
    reach = _SECH_REACH / (p.gamma * grid.dx)
    lo = min(max(math.ceil(mid - reach), 0), grid.n)
    hi = min(max(math.floor(mid + reach) + 1, lo), grid.n)
    ids = kink_identities(p, t, grid.x[lo:hi])
    # sech(z), the weight of both sums; sliced below, as the window is
    # empty when the center is more than 40/gamma off the grid
    w = ids["sin_half"]
    if lo == 0:
        w[:1] *= 0.5
    if hi == grid.n:
        w[-1:] *= 0.5
    diff = f.values[lo:hi] - ids["Q"]
    slope = ids["Q_x"] - p.gamma * diff * ids["cos_half"]
    return (float(grid.dx * np.dot(diff, w)),
            float(grid.dx * np.dot(slope, w)))


def solve_center(f: Field, beta: float, t: float, guess: float) -> float:
    """The orthogonality center: Newton on _orthogonality from guess."""
    c = guess
    for _ in range(80):
        g_val, slope = _orthogonality(f, beta, t, c)
        if abs(g_val) < 1e-12:
            return c
        if abs(slope) < 1.0:
            raise RuntimeError(f"degenerate center slope {slope:.3e}")
        c -= g_val / slope
    if abs(_orthogonality(f, beta, t, c)[0]) > 1e-10:
        raise RuntimeError("orthogonality center solve did not converge")
    return c


def pi_level_center(f: Field, beta: float, t: float, guess: float) -> float:
    """The sign change of f - pi nearest beta t + guess, at most 6 away, then
    Newton on the local quintic kept inside that cell (bisection)."""
    x, g, xc = f.grid.x, f.values - np.pi, beta * t + guess
    cells = np.flatnonzero((g[:-1] * g[1:] <= 0.0) & (x[1:] >= xc - 6.0)
                           & (x[:-1] <= xc + 6.0))
    if not cells.size:
        raise RuntimeError("no sign change bracketing the pi-level center")
    k = cells[np.argmin(np.abs(x[cells] + 0.5 * f.grid.dx - xc))]
    lo, hi, rising = x[k], x[k + 1], g[k + 1] > g[k]
    c = 0.5 * (lo + hi)
    for _ in range(100):
        val = _local_poly(x, g, c)[0]
        if (val < 0.0) == rising:
            lo = c
        else:
            hi = c
        new = c - val / _local_poly(x, g, c, nu=1)[0]
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        if abs(new - c) <= 1e-13:
            return float(new) - beta * t
        c = new
    raise RuntimeError("pi-level center solve did not converge")


def center_velocity(f: State, beta: float, center: float) -> float:
    ids = kink_identities(KinkParams(beta, center), f.time, f.grid.x)
    f_x = spatial_derivative(f.phi, 1).values
    return _center_velocity(f.phi_t.values, f_x, ids["sin_half"], beta,
                            f.grid.dx)


def _center_velocity(phi_t: np.ndarray, f_x: np.ndarray, w: np.ndarray,
                     beta: float, dx: float) -> float:
    """center_velocity on raw samples, with w = sin(Q/2) at the center."""
    num = _trapezoid(phi_t + beta * f_x, dx, w)
    den = _trapezoid(f_x, dx, w)
    if abs(den) < 1.0:
        raise RuntimeError(f"center-velocity denominator too small: {den:.3e}")
    return -num / den


def track(states: Iterable[State], beta: float, x0_guess: float,
          exterior: bool = False) -> Iterator[TrackRecord]:
    """One TrackRecord per snapshot, yielded as soon as that snapshot is
    read: solve_center with continuation seeding.

    states is any iterable of States in time order, such as the generator
    of evolve.snapshots; each is read once and kept only by its record.

    After the center solve, each snapshot takes one set of kink identities
    at the center and two derivatives, D phi and D Q, and every record field
    reads the differences d0 = phi - Q, d1 = D phi - D Q, d2 = phi_t - Q_t;
    the record keeps D phi as f_x.  exterior adds the norms over |x| >= t
    to each record (else None).
    """
    guess = x0_guess  # from the first record on, the last center
    for i, s in enumerate(states):
        c = solve_center(s.phi, beta, s.time, guess)
        if i and abs(c - guess) > 0.5:
            raise RuntimeError(
                f"center jumped by {abs(c - guess):.3f} at t={s.time}; "
                "continuation broken"
            )
        guess = c
        x, dx = s.grid.x, s.grid.dx
        ids = kink_identities(KinkParams(beta, c), s.time, x)
        phi, phi_t = s.phi.values, s.phi_t.values
        f_x = _fd_stencil(phi, dx, 1)
        d0 = phi - ids["Q"]
        d1 = f_x - _fd_stencil(ids["Q"], dx, 1)
        d2 = phi_t - ids["Q_t"]
        ext = sup = None
        if exterior:
            dens = d0 * d0 + d1 * d1 + d2 * d2
            ext = float(np.sqrt(np.sum(dens[np.abs(x) >= s.time]) * dx))
            sup = _exterior_sup(x, s.time, d0, d1, d2)
        yield TrackRecord(
            time=s.time,
            center=c,
            center_velocity=_center_velocity(phi_t, f_x, ids["sin_half"],
                                             beta, dx),
            diff_linf=float(np.max(np.abs(d0))),
            diff_deriv_l2plinf=_l2plus_linf(d1, dx) + _l2plus_linf(d2, dx),
            diff_pair_energy=_pair_energy(d0, d1, d2, dx),
            exterior_l2=ext,
            exterior_sup=sup,
            state=s,
            f_x=f_x,
        )


def _exterior_sup(x: np.ndarray, t: float, d0: np.ndarray, d1: np.ndarray,
                  d2: np.ndarray):
    """(sup of |d0| + |d1| + |d2| over |x| >= t, |x| - t where it is
    taken), or None if that region is empty."""
    mask = np.abs(x) >= t
    if not np.any(mask):
        return None
    total = (np.abs(d0) + np.abs(d1) + np.abs(d2))[mask]
    idx = int(np.argmax(total))
    return float(total[idx]), float(np.abs(x[mask][idx]) - t)


def _decay_bound(t: float, r: float, s: float) -> float:
    """min(t^(-1/4) <r>^(-1/4), <r>^(-s)) at r = |x| - t."""
    jap = np.sqrt(1.0 + r * r)
    return float(min(t ** (-0.25) * jap ** (-0.25), jap ** (-s)))


def fit_decay_exponent(series, window) -> dict:
    """Least-squares slope of log(value) against log(t) inside the window."""
    arr = np.asarray(series, dtype=float)
    t1, t2 = window
    mask = (arr[:, 0] >= t1) & (arr[:, 0] <= t2)
    pts = arr[mask]
    if len(pts) < _MIN_FIT_SAMPLES:
        raise ValueError(f"need >= {_MIN_FIT_SAMPLES} samples in window, "
                         f"got {len(pts)}")
    if np.any(pts[:, 1] <= 0):
        raise ValueError("values must be positive for a log-log fit")
    lt, lv = np.log(pts[:, 0]), np.log(pts[:, 1])
    slope, intercept = np.polyfit(lt, lv, 1)
    pred = slope * lt + intercept
    ss_res = float(np.sum((lv - pred) ** 2))
    ss_tot = float(np.sum((lv - np.mean(lv)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"exponent": float(slope), "r2": r2}
