"""The Backlund transform in both directions and its constructive solves.

forward_transform builds a kink-topology solution from a small zero-topology
state.  With w = tan(f/4) the first Backlund equation is a Riccati equation,
so f is the direction of a linear 2x2 system in x pinned at f(center) = pi;
the system's matrix M is filled in place, and the RK4 one-step matrices of
every cell outward from the anchor (the stable direction: the tails attract)
are composed by a blocked scan: in order within blocks of cells, shorter
where an entry is large enough to overflow a block's product, and the block
totals by a rescaled doubling.
inverse_transform recovers (delta, y, phi) from a near-kink state in stages
on F = (F1, F2, F3): quasi-Newton on F2 against a linearization prepared once
per call, F1 explicit, and F3 by the orthogonality center solve of tracking;
the closing residual |F| is read off what the stages computed.  The
linearized F2 solve, the I-operator and the difference reconstruction are
one kink-weighted integral: a damped linear sweep on each side of the kink
center, on slices of the grid, inward from the ends for F2 and outward from
the center for I.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .exact import KinkParams, kink_identities, sech
from .fields import (Field, Lp, State, Topology, _fd_stencil, _local_poly,
                     _lp, norm, spatial_derivative)
from .tracking import _orthogonality, solve_center

__all__ = [
    "BacklundConvergenceError",
    "FTriple",
    "InverseResult",
    "backlund_residual",
    "forward_transform",
    "eval_F",
    "solve_linearized_F2",
    "inverse_transform",
    "operator_I",
    "reconstruct_difference",
]


_INVERSE_TOL, _INVERSE_MAX_ITER = 1e-10, 50  # inverse_transform stage (i)


class BacklundConvergenceError(RuntimeError):
    """inverse_transform stalled or did not reach its tolerance."""


def _beta(a: float) -> float:
    """Kink velocity of the Backlund parameter a; KinkParams.a inverts it."""
    return (a**2 - 1.0) / (a**2 + 1.0)


def _check_a(a: float) -> float:
    """a itself, once it is known to be a valid Backlund parameter."""
    if not 0.0 < a < np.inf:
        raise ValueError(f"a must be positive and finite, got {a}")
    return a


@dataclass(frozen=True)
class FTriple:
    F1: Field
    F2: Field
    F3: float


@dataclass(frozen=True)
class InverseResult:
    """The recovered kink is the base kink moved by y at phi.time, with
    Backlund parameter a = base.a + delta."""

    delta: float
    y: float
    phi: State
    residual_norm: float
    base: KinkParams
    residual_history: tuple  # F2 L2 norm at the start and after each step

    @property
    def newton_steps(self) -> int:
        """Accepted stage-(i) steps."""
        return len(self.residual_history) - 1

    @property
    def a(self) -> float:
        return self.base.a + self.delta

    @property
    def beta(self) -> float:
        return _beta(self.a)

    @property
    def center(self) -> float:
        """The recovered kink's x0 in KinkParams' frame: its position at
        phi.time, base.x0 + base.beta t + y, less beta t."""
        return (self.base.x0 + self.y
                + (self.base.beta - self.beta) * self.phi.time)

    def to_json(self) -> str:
        return json.dumps(
            {
                "delta": self.delta,
                "y": self.y,
                "beta": self.beta,
                "center": self.center,
                "residual_norm": self.residual_norm,
                "phi_l2": norm(self.phi.phi, Lp(2)),
                "phi_linf": norm(self.phi.phi, Lp(np.inf)),
                "phi_t_l2": norm(self.phi.phi_t, Lp(2)),
                "newton_steps": self.newton_steps,
                "residual_history": list(self.residual_history),
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# The first-order system and its residual


def _pair(f: np.ndarray, phi: np.ndarray, a: float) -> tuple:
    """Right-hand sides (P, M) of the Backlund pair on raw samples:
    f_x - phi_t = P = sin((f+phi)/2)/a + a sin((f-phi)/2) and
    f_t - phi_x = M = sin((f+phi)/2)/a - a sin((f-phi)/2)."""
    sp = np.sin(0.5 * (f + phi)) / a
    sm = a * np.sin(0.5 * (f - phi))
    return sp + sm, sp - sm


def backlund_residual(f: State, phi: State, a: float) -> dict:
    _check_a(a)
    if f.grid != phi.grid:
        raise ValueError("grid mismatch")
    if abs(f.time - phi.time) > 1e-12:
        raise ValueError("time mismatch")
    fv, dx = f.phi.values, f.grid.dx
    r1, r2 = _residual(fv, _fd_stencil(fv, dx, 1), f.phi_t.values,
                       phi.phi.values, phi.phi_t.values, a, dx)
    return {"R1": Field(f.grid, r1), "R2": Field(f.grid, r2)}


def _residual(f: np.ndarray, f_x: np.ndarray, f_t: np.ndarray,
              phi: np.ndarray, phi_t: np.ndarray, a: float,
              dx: float) -> tuple:
    """backlund_residual's (R1, R2) on raw samples, unchecked, with f_x
    f's _fd_stencil derivative, which a caller may already hold."""
    P, M = _pair(f, phi, a)
    return f_x - phi_t - P, f_t - _fd_stencil(phi, dx, 1) - M


# ---------------------------------------------------------------------------
# The forward transform: a Riccati equation, composed as 2x2 matrices


def _matmul(p, q):
    """Product of 2x2 matrices held as components (m11, m12, m21, m22)."""
    return (p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
            p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3])


def _rk4_matrices(h, m0, mm, m1):
    """RK4 one-step matrices of y' = M y from M at cell start, mid and end."""
    def stage(m, k, s):  # m (I + s k)
        return _matmul(m, (1.0 + s * k[0], s * k[1], s * k[2], 1.0 + s * k[3]))
    k2 = stage(mm, m0, 0.5 * h)
    k3 = stage(mm, k2, 0.5 * h)
    k4 = stage(m1, k3, h)
    out = np.empty((4, np.size(m0[0])))  # one column for scalar stages
    for row, eye, c1, c2, c3, c4 in zip(out, (1, 0, 0, 1), m0, k2, k3, k4):
        row[...] = eye + (h / 6.0) * (c1 + 2.0 * (c2 + c3) + c4)
    return out


def _prefix_products(r):
    """Column i becomes r_i ... r_0 over (4, m) components, by log-depth
    doubling; each pass divides the new partial products by their largest
    entry, which keeps their direction and rules out overflow on any grid."""
    s = 1
    while s < r.shape[1]:
        prod = np.array(_matmul(r[:, s:], r[:, :-s]))
        r[:, s:] = prod / np.abs(prod).max(axis=0)
        s *= 2
    return r


_BLOCK = 16  # cells per block of _blocked_scan, unless its entries are large


def _blocked_scan(r, y):
    """(y, r_0 y, r_1 r_0 y, ...) up to a positive factor per column, as
    (2, m + 1), for m step matrices r over (4, m), in linear work: blocks of
    b cells multiply in order, all blocks at once, the block totals compose
    by _prefix_products, and a column is its in-block product applied to its
    block's start vector.  With e >= 1 the largest |entry| of r and y, no
    product exceeds 2 (2e)^(2b), so b is _BLOCK cut until (2e)^(2b) <=
    2^1000."""
    m = r.shape[1]
    e = max(r.max(initial=1.0), -r.min(initial=0.0), *np.abs(y))
    b = int(min(_BLOCK, max(1, 500 // np.log2(2.0 * e))))
    nb = -(-m // b)
    q = np.empty((4, nb * b))
    q[:, :m], q[:, m:] = r, [[1.0], [0.0], [0.0], [1.0]]  # identity padding
    q = q.reshape(4, nb, b)
    for j in range(1, b):
        q[:, :, j] = _matmul(q[:, :, j], q[:, :, j - 1])
    # with y as the matrix (y y), column k is T_(k-1) ... T_0 y, T the totals
    s = _prefix_products(np.c_[np.repeat(y, 2), q[:, :-1, -1]])[::2]
    cols = q[0::2] * s[0, :, None] + q[1::2] * s[1, :, None]
    return np.c_[y, cols.reshape(2, -1)[:, :m]]


def forward_transform(phi: State, a: float, center: float) -> State:
    """Backlund transform of a small zero-topology state: a kink-type State.

    f' = phi_t + A sin(f/2) + B cos(f/2), A = (a + 1/a) cos(phi/2), B =
    (1/a - a) sin(phi/2) is a Riccati equation for tan(f/4): f = 4 atan2(y)
    for y' = My, M = [[A, phi_t + B], [B - phi_t, -A]] / 4, y(center) = (1, 1).
    Each side's partial cell at the anchor samples the local quintic and
    gives the start vector; the full cells' RK4 one-step matrices, outward
    from it, compose by a blocked scan: in order within blocks of _BLOCK
    cells, fewer where a large entry could overflow a block's product, and
    the block totals by a rescaled doubling.
    """
    if phi.topology is Topology.KINK:
        raise ValueError("forward_transform needs a zero-topology state")
    _check_a(a)
    grid = phi.grid
    if not (grid.x[0] <= center <= grid.x[-1]):
        raise ValueError("anchor outside grid")
    pv = phi.phi.values
    fvals = _forward_f(grid, pv, phi.phi_t.values, a, center)
    if abs(fvals[0]) > 1e-3 or abs(fvals[-1] - 2.0 * np.pi) > 1e-3:
        raise ValueError(
            f"tails did not converge to (0, 2pi): ({fvals[0]:.3e}, "
            f"{fvals[-1]:.3e}); phi too large or grid too narrow"
        )
    f_t = spatial_derivative(phi.phi, 1).values + _pair(fvals, pv, a)[1]
    return State(Field(grid, fvals), Field(grid, f_t), phi.time, Topology.KINK)


def _forward_f(grid, pv: np.ndarray, ptv: np.ndarray, a: float,
               center: float) -> np.ndarray:
    """forward_transform's f on raw samples (phi, phi_t), unchecked."""
    x, dx, n = grid.x, grid.dx, grid.n
    k0 = int(np.searchsorted(x, center))  # first node >= center
    h_r, h_l = x[k0] - center, x[k0 - 1] - center  # h_l unused if k0 = 0
    at = center + np.array([0.0, 0.5 * h_r, h_r, 0.5 * h_l, h_l])
    # (phi, phi_t) at the nodes, the cell midpoints (cubic rule) and `at`
    pp = np.empty((2, 2 * n + 4))
    v, mid = pp[:, :n], pp[:, n:2 * n - 1]
    v[0], v[1] = pv, ptv
    np.add(v[:, 1:-2], v[:, 2:-1], out=mid[:, 1:-1])
    mid[:, 1:-1] *= 9.0
    mid[:, 1:-1] -= v[:, :-3]
    mid[:, 1:-1] -= v[:, 3:]
    mid[:, 0] = v[:, :4] @ [5.0, 15.0, -5.0, 1.0]
    mid[:, -1] = v[:, -4:] @ [1.0, -5.0, 15.0, 5.0]
    mid /= 16.0
    pp[:, 2 * n - 1:] = _local_poly(x, v, at)
    p, pt = pp
    # M's rows A, B + phi_t/4, B - phi_t/4, -A; row 3 holds p/2, then phi_t/4
    M = np.empty((4, 2 * n + 4))
    np.multiply(0.5, p, out=M[3])
    np.cos(M[3], out=M[0])
    np.sin(M[3], out=M[1])
    M[0] *= 0.25 * (a + 1.0 / a)
    M[1] *= 0.25 * (1.0 / a - a)
    np.multiply(0.25, pt, out=M[3])
    np.subtract(M[1], M[3], out=M[2])
    M[1] += M[3]
    np.negative(M[0], out=M[3])
    def side(h, anc, r):  # from the anchor: its partial cell, then r's cells
        y = _rk4_matrices(h, M[:, 2 * n - 1], M[:, anc], M[:, anc + 1])
        return 4.0 * np.arctan2(*_blocked_scan(r, y.reshape(2, 2).sum(axis=1)))
    fvals = np.empty(n)
    fvals[k0:] = side(h_r, 2 * n, _rk4_matrices(
        dx, M[:, k0:n - 1], M[:, n + k0:2 * n - 1], M[:, k0 + 1:n]))
    if k0 > 0:  # the cells left of x[k0 - 1], built in ascending order
        fvals[k0 - 1::-1] = side(h_l, 2 * n + 2, _rk4_matrices(
            -dx, M[:, 1:k0], M[:, n:n + k0 - 1], M[:, :k0 - 1])[:, ::-1])
    return fvals


# ---------------------------------------------------------------------------
# The functional F and its linearized solve


def eval_F(delta: float, y: float, v0: Field, v1: Field, u0: Field,
           u1: Field, base: KinkParams, t: float) -> FTriple:
    """F1, F2: the Backlund pair of f = Q(base, t) + u0 and phi = v0 at
    a = base.a + delta; F3: orthogonality at velocity beta(a), center the
    base kink's position at t plus y."""
    grid = u0.grid
    a_d = _check_a(base.a + delta)
    ids = kink_identities(base, t, grid.x)
    f = u0.values + ids["Q"]
    P, M = _pair(f, v0.values, a_d)
    f1 = ids["Q_x"] + spatial_derivative(u0, 1).values - v1.values - P
    f2 = ids["Q_t"] + u1.values - spatial_derivative(v0, 1).values - M
    f3, _ = _orthogonality(Field(grid, f), _beta(a_d), 0.0,
                           base.x0 + base.beta * t + y)
    return FTriple(Field(grid, f1), Field(grid, f2), f3)


def _cell_integrals(h: np.ndarray, dx: float, q: float) -> np.ndarray:
    """int_{x_j}^{x_{j+1}} q^((x_{j+1}-x)/dx) h(x) dx over each cell, 4th order.

    Cubic interpolation of the integrand through the four surrounding nodes
    (one-sided at the ends); on the damped integrand the weights are powers
    of q.
    """
    inc = np.empty(len(h) - 1)
    inc[1:-1] = (dx / 24.0) * (-q * q * h[:-3] + 13.0 * q * h[1:-2]
                               + 13.0 * h[2:-1] - h[3:] / q)
    inc[0] = (dx / 24.0) * (9.0 * q * h[0] + 19.0 * h[1] - 5.0 * h[2] / q
                            + h[3] / (q * q))
    inc[-1] = (dx / 24.0) * (9.0 * h[-1] + 19.0 * q * h[-2]
                             - 5.0 * q * q * h[-3] + q**3 * h[-4])
    return inc


def _damped_cumsum(r: np.ndarray, q: float) -> np.ndarray:
    """J_0 = r_0, J_k = q J_(k-1) + r_k for 0 < q < 1, by log-depth doubling:
    pass s adds q^s times the partial sums s places back, which cannot
    overflow."""
    J, s = np.array(r, dtype=float), 1
    while s < len(J):
        J[s:] += q**s * J[:-s]
        s *= 2
    return J


@functools.cache
def _gauss_legendre4() -> tuple:
    """4-point Gauss-Legendre nodes and weights on [-1, 1].  Only outward
    sweeps need them, so numpy.polynomial loads at the first of those.
    Every caller shares the two arrays, so they are read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(4)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _kink_sweep(grid, c: float, gamma: float):
    """sweep(fv, outward): outward, int_c^x cosh(z_y)/cosh(z_x) fv(y) dy;
    inward, the bounded int_(+-inf)^x cosh(z_x)/cosh(z_y) fv(y) dy from the
    end on x's side.  The geometry of (grid, c, gamma) is formed here, once.

    z = gamma (x - c).  On one side of c, cosh(z_y)/cosh(z_x) =
    e^{-gamma|x-y|} (1+e^{-2|z_y|}) / (1+e^{-2|z_x|}), so the integral times
    (1+e^{-2|z|})^(-+1) is a damped sweep, kernel e^{-gamma dx} per node, of
    each side on its own (the weight has a corner at c).  The short outward
    cell from c to the nearest node takes Gauss-Legendre on the local quintic.
    """
    x, dx, n = grid.x, grid.dx, grid.n
    k0 = int(np.searchsorted(x, c))  # first node >= c
    q = np.exp(-gamma * dx)
    # each side's nodes as a slice ordered away from c, reaching back across
    # c so that every cell has its 4-point stencil, and the position of the
    # first node past c in it; signed z keeps the integrand smooth there
    lo, hi = max(0, min(k0 - 1, n - 4)), min(n - 1, max(k0, 3))
    sides = []
    for sign, nodes, first, size in ((1.0, slice(lo, n), k0 - lo, n - lo),
                                     (-1.0, slice(hi, None, -1), hi - k0 + 1,
                                      hi + 1)):
        if first < size:
            z = gamma * sign * (x[nodes] - c)
            sides.append((sign, nodes, first, z, 1.0 + np.exp(-2.0 * z)))

    def sweep(fv: np.ndarray, outward: bool) -> np.ndarray:
        out = np.zeros(n)
        for sign, nodes, first, z, e in sides:
            side = out[nodes]  # a view: writes land in out
            if outward:
                gl_nodes, gl_weights = _gauss_legendre4()
                cell = z[first] / gamma  # distance from c to the nearest node
                u = 0.5 * cell * (gl_nodes + 1.0)
                short = 0.5 * cell * np.sum(
                    gl_weights * np.exp(-gamma * (cell - u))
                    * (1.0 + np.exp(-2.0 * gamma * u))
                    * _local_poly(x, fv, c + sign * u))
                J = _damped_cumsum(np.concatenate(
                    [[short], _cell_integrals(e * fv[nodes], dx, q)[first:]]),
                    q)
                side[first:] = sign * J / e[first:]
            else:  # from the far end back to the first node past c
                cells = _cell_integrals((fv[nodes] / e)[::-1], dx, q)
                J = _damped_cumsum(np.r_[0.0, cells[:len(e) - first - 1]],
                                   q)
                side[first:] = -sign * e[first:] * J[::-1]
        return out
    return sweep


def _linearized_F2(grid, base: KinkParams, t: float):
    """solve(g): solve_linearized_F2 on raw g, as (lambda, w).  The sech
    weight, the solvability denominator and the sweep's geometry depend only
    on (grid, base, t), so they are formed here, once."""
    center = base.x0 + base.beta * t
    s = sech(base.gamma * (grid.x - center))
    c_lam = 1.0 + 1.0 / base.a**2
    denom = c_lam * float(np.trapezoid(s * s, dx=grid.dx))
    sweep = _kink_sweep(grid, center, base.gamma)

    def solve(g: np.ndarray) -> tuple:
        lam = float(np.trapezoid(g * s, dx=grid.dx)) / denom
        return lam, sweep(c_lam * lam * s - g, False)
    return solve


def solve_linearized_F2(g: Field, base: KinkParams, t: float) -> dict:
    """Bounded solution (lambda, w) of the linearized F2 equation.

    -w_x - gamma0 cos(Q0/2) w + lambda (1 + a0^-2) sin(Q0/2) = g, Q0 the
    base kink at time t, with lambda fixed by the solvability condition that
    makes w decay at both ends.  Rearranged, w_x = gamma0 tanh(z) w + r: w
    is the inward kink-weighted sweep of r from each end toward the kink
    center.
    """
    lam, w = _linearized_F2(g.grid, base, t)(g.values)
    return {"lambda": lam, "w": Field(g.grid, w)}


def inverse_transform(f: State, beta0: float, x0_guess: float) -> InverseResult:
    """Recover (delta, y, phi) with f the Backlund transform of phi.

    The base kink is KinkParams(beta0, x0_guess) at f.time.  Staged solve:
    (i) quasi-Newton on F2 = 0 in (delta, v0) with the linearization frozen
    at the base kink, and so prepared once, damped by step halving;
    _INVERSE_MAX_ITER bounds this stage only; (ii) v1 read off from F1 = 0;
    (iii) F3 = 0 in y, the orthogonality center solve of tracking at
    velocity beta(a0 + delta).  residual_norm is eval_F's |(F1, F2, F3)| at
    the result, read off the stages: F2 is the last accepted Newton residual.
    Each BacklundConvergenceError names gamma*dx, the base kink's Lorentz
    factor times the grid spacing: stage (i) slows as it grows.
    """
    grid, dx, t = f.grid, f.grid.dx, f.time
    base = KinkParams(beta0, x0_guess)
    at = f"(gamma*dx = {base.gamma * dx:.3f})"
    a0, c0 = base.a, base.x0 + base.beta * t
    ids = kink_identities(base, t, grid.x)
    u0 = f.phi.values - ids["Q"]
    # f = Q + u0, f_x and f_t = Q_t + u1 (u1 = f_t - Q_t) formed as eval_F
    # forms them, so that the last Newton residual is eval_F's F2 bit for bit
    fv = u0 + ids["Q"]
    f_x = ids["Q_x"] + _fd_stencil(u0, dx, 1)
    f_t = ids["Q_t"] + (f.phi_t.values - ids["Q_t"])
    def f2(d, v):
        return f_t - _fd_stencil(v, dx, 1) - _pair(fv, v, _check_a(a0 + d))[1]

    solve = _linearized_F2(grid, base, t)
    delta, v0 = 0.0, np.zeros(grid.n)
    r = f2(delta, v0)
    history = [_lp(r, dx, 2.0)]
    while not history[-1] < _INVERSE_TOL:  # NaN-safe
        if len(history) > _INVERSE_MAX_ITER:
            raise BacklundConvergenceError(
                f"Newton on F2 failed to reach {_INVERSE_TOL}: "
                f"{history[-1]:.3e} {at}")
        lam, w = solve(-r)
        for s in (0.5**k for k in range(10)):  # step halving
            trial = (delta + s * lam, v0 + s * w)
            r_new = f2(*trial)
            if (res := _lp(r_new, dx, 2.0)) < history[-1]:
                (delta, v0), r = trial, r_new
                history.append(res)
                break
        else:
            raise BacklundConvergenceError(
                f"Newton on F2 stalled at residual {history[-1]:.3e}; data "
                f"outside the convergence neighborhood {at}")

    # stage (ii): v1 explicit from F1 = 0
    a_d = _check_a(a0 + delta)
    P = _pair(fv, v0, a_d)[0]
    v1 = f_x - P

    # stage (iii): F3 = 0 is the orthogonality center condition
    f_field, beta = Field(grid, fv), _beta(a_d)
    try:
        y = solve_center(f_field, beta, 0.0, c0) - c0
    except RuntimeError as exc:
        raise BacklundConvergenceError(f"F3 center solve: {exc} {at}") from exc

    f3, _ = _orthogonality(f_field, beta, 0.0, c0 + y)
    residual = float(np.sqrt(_lp(f_x - v1 - P, dx, 2.0) ** 2
                             + history[-1] ** 2 + f3**2))
    phi = State(Field(grid, v0), Field(grid, v1), t, Topology.ZERO)
    return InverseResult(delta, y, phi, residual, base, tuple(history))


# ---------------------------------------------------------------------------
# The I-operator and the reconstruction identity


def operator_I(F: Field, beta: float, center: float, t: float) -> Field:
    """(I F)(x) = int_cbar^x cosh(g(y-cbar))/cosh(g(x-cbar)) F(y) dy, the
    outward kink-weighted sweep of F from cbar = beta t + center."""
    cbar = beta * t + center
    if not (F.grid.x[0] <= cbar <= F.grid.x[-1]):
        raise ValueError(f"center {cbar} outside grid")
    gamma = KinkParams(beta, 0.0).gamma
    return Field(F.grid, _kink_sweep(F.grid, cbar, gamma)(F.values, True))


def _reconstruct(F: Field, beta: float, center: float, t: float) -> Field:
    """I F - (gamma/2) <I F, sech z> sech z, z = gamma(x - beta t - center),
    is I F less its sech z component.  Reading the coupling off F instead,
    as int sign(z) e^{-|z|} F / gamma, puts a corner at c in the trapezoid."""
    grid = F.grid
    gamma = KinkParams(beta, center).gamma
    i_f = operator_I(F, beta, center, t).values
    weight = sech(gamma * (grid.x - beta * t - center))
    coupling = float(np.trapezoid(i_f * weight, dx=grid.dx))
    return Field(grid, i_f - 0.5 * gamma * coupling * weight)


def reconstruct_difference(phi: State, beta: float, center: float) -> Field:
    """Leading-order prediction of f - Q(.; beta, center) from phi alone."""
    if phi.topology is Topology.KINK:
        raise ValueError("reconstruction needs a zero-topology state")
    grid, t = phi.grid, phi.time
    p = KinkParams(beta, center)
    # cos(Q/2) alone, from the z that kink_identities forms
    cos_half = -np.tanh(p.gamma * (grid.x - p.beta * t - p.x0))
    f_arr = phi.phi_t.values - beta * p.gamma * cos_half * phi.phi.values
    return _reconstruct(Field(grid, f_arr), beta, center, t)
