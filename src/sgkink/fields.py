"""Grids, fields, states, derivatives, Fourier multipliers, and norms.

Everything downstream (integrators, Backlund solves, tracking, scattering
diagnostics) is built on the uniform grid defined here.  Fields of interest
either decay exponentially or reach constant tails, so a uniform grid with
trapezoid quadrature is accurate well past the tolerances we care about.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "State",
    "Topology",
    "Lp",
    "L2PlusLinf",
    "WeightedSobolev",
    "PairEnergy",
    "make_grid",
    "spatial_derivative",
    "bessel_multiplier",
    "norm",
    "save_field_csv",
    "load_field_csv",
    "save_field_sgf",
    "load_field_sgf",
]


class Topology(Enum):
    ZERO = "zero"
    KINK = "kink"


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid with n samples on [x_min, x_max); n a power of two.

    The right endpoint is excluded so the layout is directly usable by the
    FFT-based multipliers (periodic convention).
    """

    x_min: float
    x_max: float
    n: int

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @cached_property
    def x(self) -> np.ndarray:
        """The sample points, built on first use and read-only."""
        x = self.x_min + self.dx * np.arange(self.n)
        x.flags.writeable = False
        return x

    @property
    def length(self) -> float:
        return self.x_max - self.x_min


def make_grid(x_min: float, x_max: float, n: int) -> Grid:
    if not x_max > x_min:
        raise ValueError(f"degenerate interval [{x_min}, {x_max}]")
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two >= 16, got {n}")
    return Grid(float(x_min), float(x_max), int(n))


@dataclass(frozen=True)
class Field:
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != (self.grid.n,):
            raise ValueError(f"values shape {vals.shape} != ({self.grid.n},)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", vals)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)


def _kink_jump(values: np.ndarray) -> float:
    """Wrap-around jump of the periodic extension; large for kink topology."""
    return float(np.abs(values[0] - values[-1]))


@dataclass(frozen=True)
class State:
    """Pair (phi, phi_t) at a fixed time, tagged by tail topology."""

    phi: Field
    phi_t: Field
    time: float
    topology: Topology

    def __post_init__(self):
        if self.phi.grid != self.phi_t.grid:
            raise ValueError("phi and phi_t must share a grid")
        if self.topology is Topology.KINK:
            left = self.phi.values[0]
            right = self.phi.values[-1]
            # antikink tails sit at -2*pi; both signs are legitimate kinks
            if abs(left) > 1e-3 or abs(abs(right) - 2.0 * np.pi) > 1e-3:
                raise ValueError(
                    f"kink topology requires tails near 0 and +-2pi, "
                    f"got ({left:.3e}, {right:.3e})"
                )

    @property
    def grid(self) -> Grid:
        return self.phi.grid


# 4th-order finite difference stencils, in twelfths.  Interior: central
# 5-point.  Boundaries: one-sided 5/6-point stencils of the same order, the
# columns of an (m, 2) matrix acting on the m edge samples read inwards; the
# right edge is mirrored, with an odd derivative's sign.
_D1_LEFT = np.array([[-25.0, -3.0], [48.0, -10.0], [-36.0, 18.0],
                     [16.0, -6.0], [-3.0, 1.0]])
_D2_LEFT = np.array([[45.0, 10.0], [-154.0, -15.0], [214.0, -4.0],
                     [-156.0, 14.0], [61.0, -6.0], [-10.0, 1.0]])
_EDGES = {1: (_D1_LEFT, -_D1_LEFT), 2: (_D2_LEFT, _D2_LEFT)}


def spatial_derivative(f: Field, order: int) -> Field:
    """4th-order finite-difference d^k/dx^k, one-sided at the boundaries."""
    return Field(f.grid, _fd_stencil(f.values, f.grid.dx, order))


def _fd_stencil(v: np.ndarray, dx: float, order: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """spatial_derivative on raw samples, for hot loops that skip Field checks.

    A stacked v, (..., n), is differentiated row by row, each row's bits as
    in a call on that row alone.  out, if given, must not overlap v.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if out is None:
        out = np.empty_like(v, dtype=complex if np.iscomplexobj(v) else float)
    inner = out[..., 2:-2]
    tmp = np.empty_like(inner)
    if order == 1:
        np.subtract(v[..., 3:-1], v[..., 1:-3], out=inner)
        inner *= 8.0
        np.subtract(v[..., 4:], v[..., :-4], out=tmp)
        inner -= tmp
    else:
        np.add(v[..., 3:-1], v[..., 1:-3], out=inner)
        inner *= 16.0
        np.add(v[..., 4:], v[..., :-4], out=tmp)
        inner -= tmp
        np.multiply(v[..., 2:-2], 30.0, out=tmp)
        inner -= tmp
    # each row's edge is its own (1, m) @ (m, 2) product in matmul's outer
    # loop, so a row's bits do not depend on how many rows are stacked
    left, right = _EDGES[order]
    m = len(left)
    np.matmul(v[..., None, :m], left, out=out[..., None, :2])
    np.matmul(v[..., None, :-m - 1:-1], right, out=out[..., None, :-3:-1])
    out /= 12.0 * dx**order
    return out


def _local_poly(x: np.ndarray, v: np.ndarray, at, nu: int = 0) -> np.ndarray:
    """Degree-5 Lagrange polynomial through the 6 nodes around each point of
    `at`, evaluated there, or its slope for nu=1.

    A point's window is the 3 nodes on either side of its cell, shifted to
    stay inside x.  The weights are products of node differences, so no
    system is solved.  v is (n,) or (rows, n), real or complex; the result
    is v.shape[:-1] + (len(at),).
    """
    x, v = np.asarray(x, dtype=float), np.asarray(v)
    at = np.atleast_1d(np.asarray(at, dtype=float))
    n = len(x)
    if n < 6:
        raise ValueError(f"6-node interpolation needs n >= 6 nodes, got {n}")
    start = np.clip(np.searchsorted(x, at, side="right") - 3, 0, n - 6)
    w = start[:, None] + np.arange(6)
    xw, d, eye = x[w], at[:, None] - x[w], np.eye(6, dtype=bool)
    # l_j = prod_(k != j) (at - x_k) / (x_j - x_k); its slope sums, over
    # m != j, the same products with factor m left out as well
    den = np.prod(np.where(eye, 1.0, xw[:, :, None] - xw[:, None, :]), -1)
    if nu == 0:
        num = np.prod(np.where(eye, 1.0, d[:, None, :]), -1)
    else:
        skip = eye[:, None, :] | eye[None, :, :]
        num = np.sum(np.prod(np.where(skip, 1.0, d[:, None, None, :]), -1),
                     -1, where=~eye)
    out = np.sum(num / den * v.reshape(-1, n)[:, w], -1)
    return out.reshape(v.shape[:-1] + (len(at),))


def _check_zero_topology(f: Field) -> None:
    jump = _kink_jump(f.values)
    scale = max(1.0, float(np.max(np.abs(f.values))))
    if jump > 1e-2 * scale + 1e-8:
        raise ValueError(
            f"field has a topological jump ({jump:.3e}) across the periodic "
            "wrap; spectral multipliers need zero topology"
        )


def bessel_multiplier(f: Field, l: float) -> Field:
    """<D>^l f via FFT with symbol (1+xi^2)^(l/2); zero-topology fields only."""
    _check_zero_topology(f)
    xi = 2.0 * np.pi * np.fft.fftfreq(f.grid.n, d=f.grid.dx)
    symbol = (1.0 + xi**2) ** (l / 2.0)
    out = np.fft.ifft(symbol * np.fft.fft(f.values))
    if not f.is_complex:
        out = out.real
    return Field(f.grid, out)


# ---------------------------------------------------------------------------
# Norms


@dataclass(frozen=True)
class Lp:
    p: float

    def __post_init__(self):
        if not (self.p >= 1):
            raise ValueError("p must lie in [1, inf]")


@dataclass(frozen=True)
class L2PlusLinf:
    pass


@dataclass(frozen=True)
class WeightedSobolev:
    m: float
    s: float

    def __post_init__(self):
        if not 0.0 <= self.m < np.inf:
            raise ValueError(f"m must be finite and >= 0, got {self.m}")
        if not 0.0 <= self.s < np.inf:
            raise ValueError(f"s must be finite and >= 0, got {self.s}")


@dataclass(frozen=True)
class PairEnergy:
    """H1 x L2 size of a State relative to a reference State."""

    reference: State


NormSpec = Union[Lp, L2PlusLinf, WeightedSobolev, PairEnergy]


def _trapezoid(v: np.ndarray, dx: float, w: np.ndarray | None = None) -> float:
    """The trapezoid rule for int v dx, or for int v w dx with w given, on
    raw samples: a sum or one np.dot, without np.trapezoid's n-length
    temporaries."""
    if w is None:
        return float(dx * (v.sum() - 0.5 * (v[0] + v[-1])))
    return float(dx * (np.dot(v, w) - 0.5 * (v[0] * w[0] + v[-1] * w[-1])))


def _lp(values: np.ndarray, dx: float, p: float) -> float:
    if p == 2.0:
        return _trapezoid(values, dx, values) ** 0.5
    a = np.abs(values)
    if np.isinf(p):
        return float(np.max(a))
    return float(np.trapezoid(a**p, dx=dx) ** (1.0 / p))


def _l2plus_linf(values: np.ndarray, dx: float) -> float:
    """min over lam >= 0 of ||(|g|-lam)_+||_2 + lam (clamped-split family).

    Exact minimiser.  With the top k of |g| sorted in descending order and
    S0, S1, S2 their cumulative trapezoid-weighted sums of 1, |g| and |g|^2,
    the objective on the interval where the top j samples are active is
    sqrt(S2 - 2 lam S1 + lam^2 S0) + lam, stationary (for S0 > 1) at
    lam = (S1 - sqrt((S0 S2 - S1^2) / (S0 - 1))) / S0.  The objective is
    convex, so a stationary point that lies in its own interval is the
    global minimiser; the candidates are those points and the ends lam = 0
    and lam = max|g|.

    Only samples above the minimiser are active there, so the sort is
    partial: np.argpartition gives the top k and the (k+1)-th value, the
    lower end of the last interval.  k starts at max(64, 4/dx), as S0 > 1
    needs more than 1/dx samples, and grows 4-fold, up to a full sort,
    while no stationary point lies in its own interval or the (k+1)-th
    value ties the k-th.  A tie takes k past all the tied samples at once:
    on a plateau the rounding in S0 S2 - S1^2 puts stationary points on
    every sample of it.  lam = 0 is the minimiser when the slope there,
    1 - ||g||_1 / ||g||_2, is >= 0; the full-grid sums show that, with a
    margin for their rounding, before any sort.  The value returned is the
    objective evaluated at the minimiser directly, which keeps the
    cancellation in S0 S2 - S1^2 out of it.
    """
    a = np.abs(values)
    n = a.size
    l1 = dx * (np.sum(a) - 0.5 * (a[0] + a[-1]))
    l2sq = dx * (np.dot(a, a) - 0.5 * (a[0] * a[0] + a[-1] * a[-1]))
    best = 0.0
    if l1 * l1 > (1.0 - 1e-9) * l2sq:
        k = max(64, math.ceil(4.0 / dx))
        while True:
            if k < n:
                part = np.argpartition(a, n - k - 1)[n - k - 1:]
                order = part[1:][np.argsort(a[part[1:]])[::-1]]
                floor = a[part[0]]
            else:
                order, floor = np.argsort(a)[::-1], 0.0
            s_a = a[order]
            # rows w, w |g| and w |g|^2, w = dx but dx/2 at the end cells,
            # which are in order only if they reach floor
            sums = np.empty((3, s_a.size))
            sums[0] = dx
            if max(a[0], a[-1]) >= floor:
                sums[0, (order == 0) | (order == n - 1)] = 0.5 * dx
            np.multiply(sums[0], s_a, sums[1])
            np.multiply(sums[1], s_a, sums[2])
            s0, s1, s2 = np.cumsum(sums, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                root = np.sqrt(np.maximum(s0 * s2 - s1 * s1, 0.0) / (s0 - 1.0))
                lam = (s1 - root) / s0
            # s_a[:j+1] active on [lower[j], s_a[j]]
            lower = np.append(s_a[1:], floor)
            ok = (s0 > 1.0) & (lam >= lower) & (lam <= s_a)
            if k >= n or (ok.any() and floor < s_a[-1]):
                break
            # past every sample tied with the (k+1)-th, if that is further
            k = max(4 * k, int(np.count_nonzero(a >= floor)))
        lams = np.concatenate([[0.0, s_a[0]], lam[ok]])
        objs = np.concatenate([[np.sqrt(s2[-1] if k >= n else l2sq), s_a[0]],
                               lam[ok] + root[ok]])
        best = float(lams[np.argmin(objs)])
    # ||(|g| - best)_+||_2 by np.trapezoid's arithmetic, in place on a
    np.subtract(a, best, a)
    np.maximum(a, 0.0, out=a)
    np.multiply(a, a, a)
    pairs = a[1:] + a[:-1]
    np.multiply(pairs, dx, pairs)
    np.divide(pairs, 2.0, pairs)
    return float(np.sqrt(pairs.sum())) + best


def _weighted_sobolev(f: Field, m: float, s: float) -> float:
    """||<D>^m (<x>^s f)||_2 for every m >= 0; zero-topology fields only."""
    weighted = Field(f.grid, (1.0 + f.grid.x**2) ** (s / 2.0) * f.values)
    return _lp(bessel_multiplier(weighted, m).values, f.grid.dx, 2.0)


def _pair_energy(d0: np.ndarray, d1: np.ndarray, d2: np.ndarray,
                 dx: float) -> float:
    """H1 x L2 size from the differences of phi, phi_x and phi_t."""
    return math.sqrt(_trapezoid(d0, dx, d0) + _trapezoid(d1, dx, d1)
                     + _trapezoid(d2, dx, d2))


def norm(x: Union[Field, State], spec: NormSpec) -> float:
    if isinstance(spec, PairEnergy):
        if not isinstance(x, State):
            raise TypeError("PairEnergy norm applies to a State")
        ref = spec.reference
        if x.grid != ref.grid:
            raise ValueError("grid mismatch in PairEnergy")
        d0 = x.phi.values - ref.phi.values
        return _pair_energy(d0, _fd_stencil(d0, x.grid.dx, 1),
                            x.phi_t.values - ref.phi_t.values, x.grid.dx)
    if not isinstance(x, Field):
        raise TypeError(f"expected Field for {type(spec).__name__} norm")
    if isinstance(spec, Lp):
        return _lp(x.values, x.grid.dx, spec.p)
    if isinstance(spec, L2PlusLinf):
        return _l2plus_linf(x.values, x.grid.dx)
    if isinstance(spec, WeightedSobolev):
        return _weighted_sobolev(x, spec.m, spec.s)
    raise TypeError(f"unknown norm spec {spec!r}")


# ---------------------------------------------------------------------------
# Serialization

_SGF_MAGIC = b"SGF1"


def save_field_csv(f: Field, path) -> None:
    x = f.grid.x
    if f.is_complex:
        header = "x,re,im"
        data = np.column_stack([x, f.values.real, f.values.imag])
    else:
        header = "x,value"
        data = np.column_stack([x, f.values])
    np.savetxt(path, data, delimiter=",", header=header, comments="")


def load_field_csv(path) -> Field:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    x = data[:, 0]
    n = len(x)
    # the spacing from the end nodes, so that no node's rounding is
    # multiplied by n on the way to x_max
    grid = make_grid(x[0], x[0] + n * ((x[-1] - x[0]) / (n - 1)), n)
    if data.shape[1] == 3:
        return Field(grid, data[:, 1] + 1j * data[:, 2])
    return Field(grid, data[:, 1].copy())


def save_field_sgf(f: Field, path) -> None:
    """Binary snapshot: magic 'SGF1', little-endian doubles throughout."""
    with open(path, "wb") as fh:
        fh.write(_SGF_MAGIC)
        fh.write(struct.pack("<BQdd", int(f.is_complex), f.grid.n,
                             f.grid.x_min, f.grid.x_max))
        if f.is_complex:
            data = np.empty(2 * f.grid.n)
            data[0::2] = f.values.real
            data[1::2] = f.values.imag
        else:
            data = np.asarray(f.values, dtype=float)
        fh.write(data.astype("<f8").tobytes())


def load_field_sgf(path) -> Field:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _SGF_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {_SGF_MAGIC!r}")
        is_complex, n, x_min, x_max = struct.unpack("<BQdd", fh.read(25))
        count = 2 * n if is_complex else n
        data = np.frombuffer(fh.read(8 * count), dtype="<f8").astype(float)
    grid = make_grid(x_min, x_max, n)
    if is_complex:
        return Field(grid, data[0::2] + 1j * data[1::2])
    return Field(grid, data)
