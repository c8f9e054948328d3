"""Wave-packet testing: complex reduction, profile extraction, predictors.

The radiation part of a perturbed kink is reduced to the complex unknown
u = phi + i <D>^{-1} phi_t.  Pairing u against almost-orthogonal wave packets
concentrated along rays x = vt yields a profile gamma(t, v) whose modulus
converges; removing the logarithmic phase drift gives the scattering profile
W(xi) with xi = v/sqrt(1-v^2).  From W, the pointwise large-time shape of the
radiation, and of the kink difference itself, can be predicted and compared
against live runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .backlund import _reconstruct
from .exact import kink_identities, KinkParams
from .fields import (Field, Grid, State, Topology, _local_cubic,
                     bessel_multiplier)

__all__ = [
    "WavePacketSpec",
    "ExtractionMethod",
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


@dataclass(frozen=True)
class WavePacketSpec:
    """Bump chi(y) = (1 - (y/c)^2)^4 / (256 c / 315) supported on (-c, c)."""

    chi_radius: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.chi_radius < 0.25:
            raise ValueError(
                f"chi_radius must lie in (0, 0.25), got {self.chi_radius}"
            )

    def chi(self, y):
        y = np.asarray(y, dtype=float)
        u = y / self.chi_radius
        inside = np.abs(u) < 1.0
        vals = np.where(inside, (1.0 - np.minimum(u * u, 1.0)) ** 4, 0.0)
        return vals / (self.chi_radius * 256.0 / 315.0)


class ExtractionMethod(Enum):
    WAVE_PACKET = "wave-packet"
    STATIONARY_PHASE = "stationary-phase"


@dataclass(frozen=True)
class ProfileW:
    xi_grid: np.ndarray
    W: np.ndarray
    extraction_time: float
    method: ExtractionMethod

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


def wave_packet(grid: Grid, t: float, v: float, spec: WavePacketSpec) -> Field:
    """Psi_v = <xi_v>^{3/2} chi(t^{-1/2}<xi_v>^{3/2}(x - vt)) e^{-i sqrt(t^2-x^2)}."""
    if not abs(v) < 1:
        raise ValueError(f"|v| must be < 1, got {v}")
    jap = 1.0 / np.sqrt(1.0 - v * v)  # <xi_v> for xi_v = v/sqrt(1-v^2)
    scale = jap**1.5
    half_width = spec.chi_radius * np.sqrt(t) / scale
    lo, hi = v * t - half_width, v * t + half_width
    if lo < grid.x[0] or hi > grid.x[-1]:
        raise ValueError(f"packet support [{lo:.2f}, {hi:.2f}] leaks off grid")
    if hi >= t or lo <= -t:
        raise ValueError("packet support leaks outside the light cone")
    x = grid.x
    env = scale * spec.chi(scale * (x - v * t) / np.sqrt(t))
    phase = np.where(np.abs(x) < t, np.sqrt(np.maximum(t * t - x * x, 0.0)), 0.0)
    return Field(grid, env * np.exp(-1j * phase))


def gamma_profile(u: Field, t: float, v_list, spec: WavePacketSpec) -> np.ndarray:
    """gamma(t, v) = int u conj(Psi_v) dx for each v."""
    if t < 1.0:
        raise ValueError(f"need t >= 1, got {t}")
    out = np.empty(len(v_list), dtype=complex)
    for k, v in enumerate(v_list):
        psi = wave_packet(u.grid, t, float(v), spec)
        out[k] = np.trapezoid(u.values * np.conj(psi.values), dx=u.grid.dx)
    return out


def _remove_log_phase(raw: np.ndarray, xi: np.ndarray, t: float) -> np.ndarray:
    jap = np.sqrt(1.0 + xi * xi)
    return raw * np.exp(-1j / (32.0 * jap) * np.abs(raw) ** 2 * np.log(t))


def extract_W(s: State, xi_grid, spec: WavePacketSpec,
              method: ExtractionMethod = ExtractionMethod.WAVE_PACKET) -> ProfileW:
    """The scattering profile W(xi) read off the final state s."""
    t = s.time
    if t < _MIN_EXTRACTION_TIME:
        raise ValueError(
            f"final time {t} too small; extraction needs t >= "
            f"{_MIN_EXTRACTION_TIME}"
        )
    xi_grid = np.asarray(xi_grid, dtype=float)
    jap = np.sqrt(1.0 + xi_grid * xi_grid)
    v = xi_grid / jap
    u = to_complex_u(s)
    if method is ExtractionMethod.WAVE_PACKET:
        raw = gamma_profile(u, t, v, spec)
    else:
        uv = _local_cubic(u.grid.x, u.values, v * t)
        rho = t / jap  # rho = sqrt(t^2 - (vt)^2)
        raw = np.sqrt(t) * np.exp(1j * rho) * uv
    return ProfileW(xi_grid, _remove_log_phase(raw, xi_grid, t), t, method)


@dataclass(frozen=True)
class U:
    """Radiation predictor <D>^l phi + i <D>^{l-1} phi_t."""

    l: float = 0.0


@dataclass(frozen=True)
class KinkDiff:
    beta: float
    center: float


@dataclass(frozen=True)
class KinkDerivDiff:
    beta: float
    center: float


def _oscillator(W: ProfileW, t: float, x: np.ndarray):
    """Common factor W(xi) exp(-i rho + i/(32<xi>)|W|^2 ln t) inside |x| < t."""
    inside = np.abs(x) < t
    rho = np.sqrt(np.maximum(t * t - x * x, 0.0))
    xi = np.where(inside, x / np.where(rho > 0, rho, 1.0), 0.0)
    jap = np.sqrt(1.0 + xi * xi)
    Wv = W.interpolate(xi)
    phase = np.exp(-1j * rho + 1j / (32.0 * jap) * np.abs(Wv) ** 2 * np.log(t))
    return inside, xi, jap, Wv * phase


def _grid_from_samples(x: np.ndarray) -> Grid:
    dx = x[1] - x[0]
    if not np.allclose(np.diff(x), dx):
        raise ValueError("integral predictors need equispaced samples")
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
    """Pointwise large-time predictors; exactly 0 outside the light cone."""
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(target, U):
        inside, xi, jap, osc = _oscillator(W, t, x)
        if np.any(inside & (np.abs(xi) > np.max(np.abs(W.xi_grid)))):
            raise ValueError("requested xi outside the sampled profile range")
        out = np.where(inside, t**-0.5 * jap**target.l * osc, 0.0 + 0.0j)
        return complex(out[0]) if scalar else out
    if isinstance(target, (KinkDiff, KinkDerivDiff)):
        A, B, cos_half, gamma = _AB_fields(W, t, x, target.beta, target.center)
        diff = _reconstruct(Field(_grid_from_samples(x), A), target.beta,
                            target.center, t).values
        if isinstance(target, KinkDiff):
            return float(diff[0]) if scalar else diff
        dx_pred = A + gamma * cos_half * diff
        dt_pred = B - target.beta * gamma * cos_half * diff
        if scalar:
            return float(dx_pred[0]), float(dt_pred[0])
        return dx_pred, dt_pred
    raise TypeError(f"unknown prediction target {target!r}")

