"""Closed-form sine-Gordon solutions: kinks, breathers, wobbling kinks.

These evaluators are the oracles for everything else: integrator accuracy,
Backlund residuals, tracking, and the conserved-quantity checks all compare
against them.  Derivatives are closed-form for the kink family, complex-step
for the breather, and complex-argument differentiation for the wobbler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field, Grid, State, Topology

__all__ = [
    "KinkParams",
    "BreatherParams",
    "ExactSolution",
    "Kink",
    "Breather",
    "WobblingKink",
    "sech",
    "sample_state",
    "kink_identities",
]


def sech(z):
    """Overflow-safe sech."""
    return _sech(np.exp(-np.abs(z)))


def _sech(e):
    """sech z from e = exp(-|z|)."""
    return 2.0 * e / (1.0 + e * e)


def _arctan_exp(z, e):
    """arctan(e^z) without overflow, from e = exp(-|z|): uses arctan(e^z) +
    arctan(e^-z) = pi/2."""
    small = np.arctan(e)
    return np.where(z > 0, 0.5 * np.pi - small, small)


@dataclass(frozen=True)
class KinkParams:
    beta: float
    x0: float

    def __post_init__(self):
        if not abs(self.beta) < 1:
            raise ValueError(f"|beta| must be < 1, got {self.beta}")

    @property
    def gamma(self) -> float:
        return 1.0 / np.sqrt(1.0 - self.beta**2)

    @property
    def a(self) -> float:
        return np.sqrt((1.0 + self.beta) / (1.0 - self.beta))


@dataclass(frozen=True)
class BreatherParams:
    v: float
    beta: float
    x1: float
    x2: float

    def __post_init__(self):
        if not abs(self.v) < 1:
            raise ValueError(f"|v| must be < 1, got {self.v}")
        if not 0 < self.beta < self.gamma_v:
            raise ValueError(f"beta must lie in (0, gamma_v), got {self.beta}")

    @property
    def gamma_v(self) -> float:
        return 1.0 / np.sqrt(1.0 - self.v**2)

    @property
    def alpha(self) -> float:
        return np.sqrt(self.gamma_v**2 - self.beta**2)


class ExactSolution:
    """Base class; subclasses provide evaluate(t, x) -> (f, f_t, f_x)."""

    topology: Topology = Topology.ZERO

    def evaluate(self, t, x):
        raise NotImplementedError


class Kink(ExactSolution):
    topology = Topology.KINK

    def __init__(self, params: KinkParams):
        self.params = params

    def evaluate(self, t, x):
        ids = kink_identities(self.params, t, x)
        return ids["Q"], ids["Q_t"], ids["Q_x"]


class Breather(ExactSolution):
    """B = 4 arctan(beta cos(alpha(t - vx - x1)) / (alpha cosh(beta(x - vt - x2))))."""

    topology = Topology.ZERO

    def __init__(self, params: BreatherParams):
        self.params = params

    def _value(self, t, x):
        p = self.params
        num = p.beta * np.cos(p.alpha * (t - p.v * x - p.x1))
        den = p.alpha * np.cosh(p.beta * (x - p.v * t - p.x2))
        return 4.0 * np.arctan(num / den)

    def evaluate(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        f = self._value(t, x)
        # formula is real-analytic in (t, x): complex-step derivatives
        h = 1e-100
        f_t = self._value(t + 1j * h, x).imag / h
        f_x = self._value(t, x + 1j * h).imag / h
        return f, f_t, f_x

    @property
    def period(self) -> float:
        """Temporal period in the lab frame (rest frame for v=0)."""
        p = self.params
        return 2.0 * np.pi / p.alpha


class WobblingKink(ExactSolution):
    """W = 4 arg(U + iV), a kink at rest with an internal oscillation.

    U = cosh(bx) + b sinh(bx) - b e^x cos(t sqrt(1-b^2))
    V = e^x (cosh(bx) - b sinh(bx) - b e^{-x} cos(t sqrt(1-b^2)))

    The curve x -> (U, V) never crosses the negative-U axis, so the
    two-argument arctangent is already continuous in x; no unwrap step is
    needed beyond the principal branch.
    """

    topology = Topology.KINK

    def __init__(self, beta: float):
        if not abs(beta) < 1:
            raise ValueError(f"|beta| must be < 1, got {beta}")
        self.beta = beta

    def _uv(self, t, x):
        b = self.beta
        omega = np.sqrt(1.0 - b * b)
        c = np.cos(omega * t)
        ex = np.exp(x)
        U = np.cosh(b * x) + b * np.sinh(b * x) - b * ex * c
        V = ex * (np.cosh(b * x) - b * np.sinh(b * x)) - b * c
        # x-derivatives
        U_x = b * np.sinh(b * x) + b * b * np.cosh(b * x) - b * ex * c
        V_x = ex * (np.cosh(b * x) - b * np.sinh(b * x)) \
            + ex * (b * np.sinh(b * x) - b * b * np.cosh(b * x))
        # t-derivatives
        s = np.sin(omega * t)
        U_t = b * omega * ex * s
        V_t = b * omega * s
        return U, V, U_x, V_x, U_t, V_t

    def evaluate(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        # beyond |x| ~ 300/(1+b) the profile is constant to double precision
        # while U^2 + V^2 overflows, so evaluate at clipped positions
        x_cap = 300.0 / (1.0 + abs(self.beta))
        x = np.clip(x, -x_cap, x_cap)
        U, V, U_x, V_x, U_t, V_t = self._uv(t, x)
        f = 4.0 * np.arctan2(V, U)
        den = U * U + V * V
        f_x = 4.0 * (V_x * U - U_x * V) / den
        f_t = 4.0 * (V_t * U - U_t * V) / den
        return f, f_t, f_x


def sample_state(sol: ExactSolution, grid: Grid, t: float) -> State:
    f, f_t, _ = sol.evaluate(t, grid.x)
    f = np.atleast_1d(np.asarray(f, float))
    f_t = np.atleast_1d(np.asarray(f_t, float))
    if sol.topology is Topology.KINK:
        right = 2.0 * np.pi * np.round(f[-1] / (2.0 * np.pi))
        left = 0.0
    else:
        left = right = 0.0
    tol = 1e-12
    if abs(f[0] - left) > tol or abs(f[-1] - right) > tol:
        raise ValueError(
            f"grid too narrow: tails ({f[0]:.3e}, {f[-1]:.3e}) not within "
            f"{tol} of asymptotic constants ({left}, {right})"
        )
    return State(Field(grid, f), Field(grid, f_t), float(t), sol.topology)


def kink_identities(p: KinkParams, t, x) -> dict:
    """Q, Q_x, Q_t, sin(Q/2), cos(Q/2) through the closed sech/tanh forms,
    which share one exp(-|z|)."""
    z = p.gamma * (np.asarray(x, float) - p.beta * t - p.x0)
    e = np.exp(-np.abs(z))
    s = _sech(e)
    return {
        "Q": 4.0 * _arctan_exp(z, e),
        "Q_x": 2.0 * p.gamma * s,
        "Q_t": -2.0 * p.beta * p.gamma * s,
        "sin_half": s,
        "cos_half": -np.tanh(z),
    }
