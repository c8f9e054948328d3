"""Wave-packet testing: complex reduction, profile extraction, predictors.

The radiation part of a perturbed kink is reduced to the complex unknown
u = phi + i <D>^{-1} phi_t.  Pairing u against almost-orthogonal wave packets
concentrated along rays x = vt yields a profile gamma(t, v) whose modulus
converges; removing the logarithmic phase drift gives the scattering profile
W(xi) with xi = v/sqrt(1-v^2).  Wave packets are the one way W is read; which
xi a grid lets a packet read at time t is answered here too
(_max_reachable_xi).  From W, the pointwise large-time shape of the
radiation, and of the kink difference itself, can be predicted and compared
against live runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backlund import _reconstruct
from .exact import kink_identities, KinkParams
from .fields import Field, Grid, State, Topology, bessel_multiplier

__all__ = [
    "ProfileW",
    "U",
    "KinkDiff",
    "KinkDerivDiff",
    "to_complex_u",
    "wave_packet",
    "gamma_profile",
    "extract_W",
    "predict_asymptotics",
]

_MIN_EXTRACTION_TIME = 100.0
_CHI_RADIUS = 0.1  # c, the wave-packet bump's radius


def _chi(y):
    """Bump chi(y) = (1 - (y/c)^2)^4 / (256 c / 315) supported on (-c, c)."""
    u = np.asarray(y, dtype=float) / _CHI_RADIUS
    inside = np.abs(u) < 1.0
    vals = np.where(inside, (1.0 - np.minimum(u * u, 1.0)) ** 4, 0.0)
    return vals / (_CHI_RADIUS * 256.0 / 315.0)


@dataclass(frozen=True)
class ProfileW:
    xi_grid: np.ndarray
    W: np.ndarray
    extraction_time: float

    def interpolate(self, xi):
        """Linear interpolation in xi; zero beyond the sampled range."""
        xi = np.asarray(xi, dtype=float)
        re = np.interp(xi, self.xi_grid, self.W.real, left=0.0, right=0.0)
        im = np.interp(xi, self.xi_grid, self.W.imag, left=0.0, right=0.0)
        return re + 1j * im


def to_complex_u(phi: State) -> Field:
    """u = phi + i <D>^{-1} phi_t; the first-order reduction of the flow."""
    if phi.topology is not Topology.ZERO:
        raise ValueError("complex reduction requires zero-topology states")
    half = bessel_multiplier(phi.phi_t, -1)
    return Field(phi.grid, phi.phi.values + 1j * half.values)


def _packet_support(t: float, v: float) -> tuple:
    """Psi_v's support (lo, hi) = vt -+ c sqrt(t) / <xi_v>^{3/2}."""
    jap = 1.0 / np.sqrt(1.0 - v * v)  # <xi_v> for xi_v = v/sqrt(1-v^2)
    half_width = _CHI_RADIUS * np.sqrt(t) / jap**1.5
    return v * t - half_width, v * t + half_width


def _max_reachable_xi(grid: Grid, t: float) -> float:
    """Largest xi whose packets at -xi and xi pass wave_packet's support
    checks at time t: within the grid's nodes and inside the light cone."""
    edge = min(grid.x[-1], -grid.x[0])

    def fits(xi):
        v = xi / np.sqrt(1.0 + xi * xi)  # as extract_W maps xi to v
        hi = _packet_support(t, v)[1]  # the packet at -v ends at -hi
        return hi <= edge and hi < t

    lo, hi = 0.0, 1.0 - 1e-12  # bisection in v: fits holds on [0, v*)
    for _ in range(60):
        v = 0.5 * (lo + hi)
        lo, hi = (v, hi) if fits(v / np.sqrt(1.0 - v * v)) else (lo, v)
    return lo / np.sqrt(1.0 - lo * lo)


def wave_packet(grid: Grid, t: float, v: float) -> Field:
    """Psi_v = <xi_v>^{3/2} chi(t^{-1/2}<xi_v>^{3/2}(x - vt)) e^{-i sqrt(t^2-x^2)}."""
    if not abs(v) < 1:
        raise ValueError(f"|v| must be < 1, got {v}")
    scale = (1.0 / np.sqrt(1.0 - v * v)) ** 1.5
    lo, hi = _packet_support(t, v)
    if lo < grid.x[0] or hi > grid.x[-1]:
        raise ValueError(f"packet support [{lo:.2f}, {hi:.2f}] leaks off grid")
    if hi >= t or lo <= -t:
        raise ValueError("packet support leaks outside the light cone")
    x = grid.x
    env = scale * _chi(scale * (x - v * t) / np.sqrt(t))
    phase = np.where(np.abs(x) < t, np.sqrt(np.maximum(t * t - x * x, 0.0)), 0.0)
    return Field(grid, env * np.exp(-1j * phase))


def gamma_profile(u: Field, t: float, v_list) -> np.ndarray:
    """gamma(t, v) = int u conj(Psi_v) dx for each v."""
    if t < 1.0:
        raise ValueError(f"need t >= 1, got {t}")
    out = np.empty(len(v_list), dtype=complex)
    for k, v in enumerate(v_list):
        psi = wave_packet(u.grid, t, float(v))
        out[k] = np.trapezoid(u.values * np.conj(psi.values), dx=u.grid.dx)
    return out


def _log_phase(w: np.ndarray, jap: np.ndarray, t: float) -> np.ndarray:
    """The long-range phase |w|^2 ln t / (32 <xi>) of small-data radiation
    of profile w, <xi> = jap; the one place its coefficient is written."""
    return 1.0 / (32.0 * jap) * np.abs(w) ** 2 * np.log(t)


def _remove_log_phase(raw: np.ndarray, xi: np.ndarray, t: float) -> np.ndarray:
    return raw * np.exp(-1j * _log_phase(raw, np.sqrt(1.0 + xi * xi), t))


def extract_W(s: State, xi_grid) -> ProfileW:
    """The scattering profile W(xi) read off the final state s by wave
    packets along the rays v = xi/<xi>."""
    t = s.time
    if t < _MIN_EXTRACTION_TIME:
        raise ValueError(
            f"final time {t} too small; extraction needs t >= "
            f"{_MIN_EXTRACTION_TIME}"
        )
    xi_grid = np.asarray(xi_grid, dtype=float)
    v = xi_grid / np.sqrt(1.0 + xi_grid * xi_grid)
    raw = gamma_profile(to_complex_u(s), t, v)
    return ProfileW(xi_grid, _remove_log_phase(raw, xi_grid, t), t)


@dataclass(frozen=True)
class U:
    """Radiation predictor phi + i <D>^{-1} phi_t, the complex u."""


@dataclass(frozen=True)
class KinkDiff:
    beta: float
    center: float


@dataclass(frozen=True)
class KinkDerivDiff:
    beta: float
    center: float


def _cone_xi(t: float, x: np.ndarray):
    """(inside, rho, xi) at the points x: inside is |x| < t, rho is
    sqrt(t^2 - x^2) and xi = x/rho inside the light cone, 0 outside."""
    inside = np.abs(x) < t
    rho = np.sqrt(np.maximum(t * t - x * x, 0.0))
    xi = np.where(inside, x / np.where(rho > 0, rho, 1.0), 0.0)
    return inside, rho, xi


def _beyond_profile(xi_grid: np.ndarray, inside: np.ndarray,
                    xi: np.ndarray) -> bool:
    """Whether a point inside the light cone reads xi past xi_grid's range."""
    return bool(np.any(inside & (np.abs(xi) > np.max(np.abs(xi_grid)))))


def _oscillator(W: ProfileW, t: float, x: np.ndarray):
    """Common factor W(xi) exp(-i rho + i/(32<xi>)|W|^2 ln t) inside |x| < t."""
    inside, rho, xi = _cone_xi(t, x)
    jap = np.sqrt(1.0 + xi * xi)
    Wv = W.interpolate(xi)
    phase = np.exp(-1j * rho + 1j * _log_phase(Wv, jap, t))
    return inside, xi, jap, Wv * phase


def _grid_from_samples(x: np.ndarray) -> Grid:
    if x.size < 2 or not np.allclose(np.diff(x), x[1] - x[0]):
        raise ValueError("integral predictors need an equispaced array of x")
    dx = x[1] - x[0]
    return Grid(float(x[0]), float(x[0] + len(x) * dx), len(x))


def _AB_fields(W: ProfileW, t: float, x: np.ndarray, beta: float,
               center: float):
    inside, xi, jap, osc = _oscillator(W, t, x)
    gamma = KinkParams(beta, 0.0).gamma
    cos_half = kink_identities(KinkParams(beta, center), t, x)["cos_half"]
    pref = t**-0.5 * inside
    A = pref * ((-1j * jap - beta * gamma * cos_half) * osc).real
    B = pref * ((1j * xi + gamma * cos_half) * osc).real
    return A, B, cos_half, gamma


def predict_asymptotics(W: ProfileW, t: float, x, target):
    """Large-time predictors; exactly 0 outside the light cone.  U is
    pointwise; KinkDiff and KinkDerivDiff need an equispaced array x."""
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(target, U):
        inside, xi, jap, osc = _oscillator(W, t, x)
        if _beyond_profile(W.xi_grid, inside, xi):
            raise ValueError("requested xi outside the sampled profile range")
        out = np.where(inside, t**-0.5 * osc, 0.0 + 0.0j)
        return complex(out[0]) if scalar else out
    if isinstance(target, (KinkDiff, KinkDerivDiff)):
        A, B, cos_half, gamma = _AB_fields(W, t, x, target.beta, target.center)
        diff = _reconstruct(Field(_grid_from_samples(x), A), target.beta,
                            target.center, t).values
        if isinstance(target, KinkDiff):
            return diff
        return (A + gamma * cos_half * diff,
                B - target.beta * gamma * cos_half * diff)
    raise TypeError(f"unknown prediction target {target!r}")

