"""The Backlund transform in both directions and its constructive solves.

forward_transform builds a kink-topology solution from a small zero-topology
state.  With w = tan(f/4) the first Backlund equation is a Riccati equation,
so f is the direction of a linear 2x2 system in x pinned at f(center) = pi;
the RK4 one-step matrices of every cell outward from the anchor (the stable
direction: the tails attract) are composed by a rescaled prefix scan.
inverse_transform recovers (delta, y, phi) from a near-kink state in stages
on F = (F1, F2, F3): quasi-Newton on F2 with a closed-form linearized solve,
F1 explicit, and F3 by the orthogonality center solve of tracking.
The I-operator, a damped linear sweep outward from the kink center, and the
difference reconstruction implement the integral identities used to convert
the phi-decay into decay of f minus the recentered kink.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .exact import KinkParams, kink_identities, sech
from .fields import (Field, Lp, State, Topology, _fd_stencil, _local_cubic,
                     _lp, norm, spatial_derivative)
from .tracking import _orthogonality, solve_center

__all__ = [
    "BacklundConvergenceError",
    "BacklundParam",
    "FContext",
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


class BacklundConvergenceError(RuntimeError):
    """inverse_transform stalled or did not reach its tolerance."""


@dataclass(frozen=True)
class BacklundParam:
    a: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("a must be positive")

    @property
    def beta(self) -> float:
        return (self.a**2 - 1.0) / (self.a**2 + 1.0)

    @property
    def gamma(self) -> float:
        return 1.0 / np.sqrt(1.0 - self.beta**2)


@dataclass(frozen=True)
class FContext:
    """Base point of the functional: kink parameters (beta0, x0) at time t."""

    beta0: float
    t: float
    x0: float

    @property
    def params(self) -> KinkParams:
        return KinkParams(self.beta0, self.x0)

    @property
    def a0(self) -> float:
        return self.params.a

    @property
    def gamma0(self) -> float:
        return self.params.gamma

    @property
    def center(self) -> float:
        return self.x0 + self.beta0 * self.t


@dataclass(frozen=True)
class FTriple:
    F1: Field
    F2: Field
    F3: float


@dataclass(frozen=True)
class InverseResult:
    delta: float
    y: float
    phi: State
    residual_norm: float
    context: FContext
    newton_steps: int  # accepted stage-(i) steps
    residual_history: tuple  # F2 L2 norm at the start and after each step

    @property
    def beta(self) -> float:
        return BacklundParam(self.context.a0 + self.delta).beta

    @property
    def center(self) -> float:
        return self.context.x0 + self.y

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
    if f.grid != phi.grid:
        raise ValueError("grid mismatch")
    if abs(f.time - phi.time) > 1e-12:
        raise ValueError("time mismatch")
    P, M = _pair(f.phi.values, phi.phi.values, a)
    r1 = spatial_derivative(f.phi, 1).values - phi.phi_t.values - P
    r2 = f.phi_t.values - spatial_derivative(phi.phi, 1).values - M
    return {"R1": Field(f.grid, r1), "R2": Field(f.grid, r2)}


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
    return np.array([eye + (h / 6.0) * (c1 + 2.0 * (c2 + c3) + c4) for
                     eye, c1, c2, c3, c4 in zip((1, 0, 0, 1), m0, k2, k3, k4)])


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


def forward_transform(phi: State, a: float, center: float) -> State:
    """Backlund transform of a small zero-topology state: a kink-type State.

    f' = phi_t + A sin(f/2) + B cos(f/2), A = (a + 1/a) cos(phi/2), B =
    (1/a - a) sin(phi/2) is a Riccati equation for tan(f/4): f = 4 atan2(y)
    for y' = My, M = [[A, phi_t + B], [B - phi_t, -A]] / 4, y(center) = (1, 1).
    Each side's RK4 one-step matrices, outward from the anchor, are composed
    by a prefix scan; the partial cells off it sample the local cubic.
    """
    if phi.topology is Topology.KINK:
        raise ValueError("forward_transform needs a zero-topology state")
    grid = phi.grid
    x, dx, n = grid.x, grid.dx, grid.n
    if not (x[0] <= center <= x[-1]):
        raise ValueError("anchor outside grid")
    pv = phi.phi.values
    v = np.array([pv, phi.phi_t.values])
    k0 = int(np.searchsorted(x, center))  # first node >= center
    h_r, h_l = x[k0] - center, x[k0 - 1] - center  # h_l unused if k0 = 0
    at = center + np.array([0.0, 0.5 * h_r, h_r, 0.5 * h_l, h_l])
    # (phi, phi_t) at the nodes, the cell midpoints (cubic rule) and `at`
    mid = np.c_[v[:, :4] @ [5.0, 15.0, -5.0, 1.0],
                9.0 * (v[:, 1:-2] + v[:, 2:-1]) - v[:, :-3] - v[:, 3:],
                v[:, -4:] @ [1.0, -5.0, 15.0, 5.0]] / 16.0
    p, pt = np.c_[v, mid, _local_cubic(x, v, at)]
    A = 0.25 * (a + 1.0 / a) * np.cos(0.5 * p)
    B = 0.25 * (1.0 / a - a) * np.sin(0.5 * p)
    M = np.array([A, B + 0.25 * pt, B - 0.25 * pt, -A])
    fvals = np.empty(n)
    for k, h, fwd in [(k0, h_r, True)] + [(k0 - 1, h_l, False)] * (k0 > 0):
        cells = np.arange(k0, n - 1) if fwd else np.arange(k0 - 2, -1, -1)
        anc = 2 * n if fwd else 2 * n + 2  # the partial cell's mid and end
        r = _rk4_matrices(np.r_[h, np.full(len(cells), dx if fwd else -dx)],
                          M[:, np.r_[2 * n - 1, cells + (not fwd)]],
                          M[:, np.r_[anc, n + cells]],
                          M[:, np.r_[anc + 1, cells + fwd]])
        P = _prefix_products(r)
        fvals[k::1 if fwd else -1] = 4.0 * np.arctan2(P[0] + P[1], P[2] + P[3])
    if abs(fvals[0]) > 1e-3 or abs(fvals[-1] - 2.0 * np.pi) > 1e-3:
        raise ValueError(
            f"tails did not converge to (0, 2pi): ({fvals[0]:.3e}, "
            f"{fvals[-1]:.3e}); phi too large or grid too narrow"
        )
    f_t = spatial_derivative(phi.phi, 1).values + _pair(fvals, pv, a)[1]
    return State(Field(grid, fvals), Field(grid, f_t), phi.time, Topology.KINK)


# ---------------------------------------------------------------------------
# The functional F and its linearized solve


def _a_delta(ctx: FContext, delta: float) -> float:
    a = ctx.a0 + delta
    if a <= 0:
        raise ValueError(f"a0 + delta must stay positive, got {a}")
    return a


def eval_F(delta: float, y: float, v0: Field, v1: Field, u0: Field,
           u1: Field, ctx: FContext) -> FTriple:
    """F1, F2: the Backlund pair of f = Q0 + u0 and phi = v0 at a0 + delta;
    F3: orthogonality at velocity beta(a0 + delta), center ctx.center + y."""
    grid = u0.grid
    a_d = _a_delta(ctx, delta)
    ids = kink_identities(ctx.params, ctx.t, grid.x)
    f = u0.values + ids["Q"]
    P, M = _pair(f, v0.values, a_d)
    f1 = ids["Q_x"] + spatial_derivative(u0, 1).values - v1.values - P
    f2 = ids["Q_t"] + u1.values - spatial_derivative(v0, 1).values - M
    f3, _ = _orthogonality(Field(grid, f), BacklundParam(a_d).beta, 0.0,
                           ctx.center + y)
    return FTriple(Field(grid, f1), Field(grid, f2), f3)


def _cell_integrals(h: np.ndarray, dx: float, q: float = 1.0) -> np.ndarray:
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


def _cumulative_integrals(h: np.ndarray, dx: float):
    """(prefix, suffix) integrals of samples h, 4th-order increments.

    prefix[i] integrates from the left end to x_i accumulating from the left;
    suffix[i] integrates from x_i to the right end accumulating from the
    right.  Separate accumulation directions keep the rounding error of each
    value relative to its own (possibly exponentially small) magnitude.
    """
    inc = _cell_integrals(h, dx)
    prefix = np.concatenate([[0.0], np.cumsum(inc)])
    suffix = np.concatenate([np.cumsum(inc[::-1])[::-1], [0.0]])
    return prefix, suffix


def _log_cosh(z: np.ndarray) -> np.ndarray:
    az = np.abs(z)
    return az + np.log1p(np.exp(-2.0 * az)) - np.log(2.0)


def _stable_cosh_times(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """cosh(z) * v without overflow: the product is assumed bounded."""
    out = np.zeros_like(v)
    nz = v != 0.0
    out[nz] = np.sign(v[nz]) * np.exp(_log_cosh(z[nz]) + np.log(np.abs(v[nz])))
    return out


def solve_linearized_F2(g: Field, ctx: FContext) -> dict:
    """Bounded solution (lambda, w) of the linearized F2 equation.

    -w_x - gamma0 cos(Q0/2) w + lambda (1 + a0^-2) sin(Q0/2) = g, with
    lambda fixed by the solvability condition that makes w decay at both
    ends.  Substituting w = cosh(gamma0 z) v turns the ODE into a plain
    antiderivative for v; the cosh growth is cancelled analytically, with
    the product evaluated in log space.
    """
    grid = g.grid
    g0 = ctx.gamma0
    z = g0 * (grid.x - ctx.center)
    s = sech(z)
    c_lam = 1.0 + 1.0 / ctx.a0**2
    denom = c_lam * float(np.trapezoid(s * s, dx=grid.dx))
    lam = float(np.trapezoid(g.values * s, dx=grid.dx)) / denom
    # rearranged ODE: w_x = gamma0 tanh(z) w + r
    r = c_lam * lam * s - g.values
    prefix, suffix = _cumulative_integrals(r * s, grid.dx)
    # v = -int_x^inf r sech (right of center) = int_-inf^x r sech (left)
    k0 = int(np.searchsorted(grid.x, ctx.center))
    v = np.empty(grid.n)
    v[:k0] = prefix[:k0]
    v[k0:] = -suffix[k0:]
    w = _stable_cosh_times(z, v)
    return {"lambda": lam, "w": Field(grid, w)}


def inverse_transform(f: State, beta0: float, x0_guess: float,
                      tol: float = 1e-10, max_iter: int = 50) -> InverseResult:
    """Recover (delta, y, phi) with f the Backlund transform of phi.

    Staged solve: (i) quasi-Newton on F2 = 0 in (delta, v0) with the
    linearization frozen at the base point, damped by step halving; max_iter
    bounds this stage only; (ii) v1 read off from F1 = 0; (iii) F3 = 0 in y,
    the orthogonality center solve of tracking at velocity beta(a0 + delta).
    """
    grid, dx = f.grid, f.grid.dx
    ctx = FContext(beta0, f.time, x0_guess)
    ids = kink_identities(ctx.params, ctx.t, grid.x)
    u0 = Field(grid, f.phi.values - ids["Q"])
    u1 = Field(grid, f.phi_t.values - ids["Q_t"])
    fv = u0.values + ids["Q"]  # f, f_x and f_t as eval_F forms them
    f_x = ids["Q_x"] + _fd_stencil(u0.values, dx, 1)
    f_t = ids["Q_t"] + u1.values
    def f2(d, v):
        return f_t - _fd_stencil(v, dx, 1) - _pair(fv, v, _a_delta(ctx, d))[1]

    delta, v0 = 0.0, np.zeros(grid.n)
    r = f2(delta, v0)
    history = [_lp(r, dx, 2.0)]
    while not history[-1] < tol:  # NaN-safe
        if len(history) > max_iter:
            raise BacklundConvergenceError(
                f"Newton on F2 failed to reach {tol}: {history[-1]:.3e}")
        sol = solve_linearized_F2(Field(grid, -r), ctx)
        for s in (0.5**k for k in range(10)):  # step halving
            trial = (delta + s * sol["lambda"], v0 + s * sol["w"].values)
            r_new = f2(*trial)
            if (res := _lp(r_new, dx, 2.0)) < history[-1]:
                (delta, v0), r = trial, r_new
                history.append(res)
                break
        else:
            raise BacklundConvergenceError(
                f"Newton on F2 stalled at residual {history[-1]:.3e}; data "
                "outside the convergence neighborhood")

    # stage (ii): v1 explicit from F1 = 0
    a_d = _a_delta(ctx, delta)
    v1 = Field(grid, f_x - _pair(fv, v0, a_d)[0])

    # stage (iii): F3 = 0 is the orthogonality center condition
    try:
        y = solve_center(Field(grid, fv), BacklundParam(a_d).beta, 0.0,
                         ctx.center) - ctx.center
    except RuntimeError as exc:
        raise BacklundConvergenceError(f"F3 center solve: {exc}") from exc

    phi = State(Field(grid, v0), v1, f.time, Topology.ZERO)
    tri = eval_F(delta, y, phi.phi, v1, u0, u1, ctx)
    residual = float(np.sqrt(norm(tri.F1, Lp(2)) ** 2
                             + norm(tri.F2, Lp(2)) ** 2 + tri.F3**2))
    return InverseResult(delta, y, phi, residual, ctx, len(history) - 1,
                         tuple(history))


# ---------------------------------------------------------------------------
# The I-operator and the reconstruction identity


def _damped_cumsum(r: np.ndarray, q: float) -> np.ndarray:
    """J_0 = r_0, J_k = q J_(k-1) + r_k for 0 < q < 1, by log-depth doubling:
    pass s adds q^s times the partial sums s places back, which cannot
    overflow."""
    J, s = np.array(r, dtype=float), 1
    while s < len(J):
        J[s:] += q**s * J[:-s]
        s *= 2
    return J


def operator_I(F: Field, beta: float, center: float, t: float) -> Field:
    """(I F)(x) = int_cbar^x cosh(g(y-cbar))/cosh(g(x-cbar)) F(y) dy.

    With z = g(x - cbar) and y, x on one side of cbar,
    cosh(z_y)/cosh(z_x) = e^{-g|x-y|} (1+e^{-2|z_y|}) / (1+e^{-2|z_x|}), so
    (1+e^{-2|z|}) I is a damped sweep outward from cbar with kernel
    e^{-g dx} per node, and no cosh is ever evaluated.  Each side is swept
    on its own, since (1+e^{-2|z|}) F has a corner at cbar; the short cell
    from cbar to the nearest node takes Gauss-Legendre on the local cubic of
    F around cbar.
    """
    grid = F.grid
    x, dx, n = grid.x, grid.dx, grid.n
    cbar = beta * t + center
    if not (x[0] <= cbar <= x[-1]):
        raise ValueError(f"center {cbar} outside grid")
    gamma = BacklundParam(KinkParams(beta, 0.0).a).gamma
    fv = F.values
    k0 = int(np.searchsorted(x, cbar))  # first node >= cbar
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(4)
    out = np.zeros(n)
    # node indices in sweep order, reaching back across cbar so that every
    # cell has its 4-point stencil; signed z keeps each side's h smooth there
    right = np.arange(max(0, min(k0 - 1, n - 4)), n)
    left = np.arange(min(n - 1, max(k0, 3)), -1, -1)
    for sign, idx, first in ((1.0, right, k0 - right[0]),
                             (-1.0, left, left[0] - k0 + 1)):
        if first >= len(idx):
            continue
        z = gamma * sign * (x[idx] - cbar)
        h = (1.0 + np.exp(-2.0 * z)) * fv[idx]
        cell = z[first] / gamma  # distance from cbar to the nearest node
        u = 0.5 * cell * (gl_nodes + 1.0)
        short = 0.5 * cell * np.sum(
            gl_weights * np.exp(-gamma * (cell - u))
            * (1.0 + np.exp(-2.0 * gamma * u))
            * _local_cubic(x, fv, cbar + sign * u))
        q = np.exp(-gamma * dx)
        J = _damped_cumsum(np.concatenate(
            [[short], _cell_integrals(h, dx, q)[first:]]), q)
        out[idx[first:]] = sign * J / (1.0 + np.exp(-2.0 * z[first:]))
    return Field(grid, out)


def reconstruct_difference(phi: State, beta: float, center: float) -> Field:
    """Leading-order prediction of f - Q(.; beta, center) from phi alone."""
    if phi.topology is Topology.KINK:
        raise ValueError("reconstruction needs a zero-topology state")
    grid = phi.grid
    t = phi.time
    p = KinkParams(beta, center)
    ids = kink_identities(p, t, grid.x)
    gamma = p.gamma
    f_arr = phi.phi_t.values - beta * gamma * ids["cos_half"] * phi.phi.values
    i_f = operator_I(Field(grid, f_arr), beta, center, t)
    weight = ids["sin_half"]  # sech(gamma(x - beta t - center))
    coupling = float(np.trapezoid(i_f.values * weight, dx=grid.dx))
    return Field(grid, i_f.values - 0.5 * gamma * coupling * weight)
