"""The benchmark's four workloads: seeded inputs, pre-flight, run, accuracy.

Each workload draws its physical inputs from fixed ranges with a
`random.Random(seed)`; for the experiment workloads, seed 0 gives the
canonical values of the matching acceptance fixture.  Every value inside the ranges passes the experiment's
own checks (README.md records the range ends that were run).  The library
only ever sees the resulting config or states.

Importing this module imports all of sgkink, so `probe.py` can time the
import as part of set-up.  Timed code calls sgkink through module attributes
(`sgkink.cli.main`, `backlund.forward_transform`) so that the tracer's
wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sgkink.cli
from sgkink import backlund, experiments
from sgkink.exact import KinkParams, kink_identities
from sgkink.experiments import ExperimentConfig
from sgkink.fields import Field, Lp, State, Topology, make_grid, norm

# Radius beyond which the Gaussian data e^{-x^2} is below 1e-15: used for
# the light-cone checks (radiation moves at speed at most 1).
_DATA_RADIUS = 6.0


class PreflightError(ValueError):
    """A workload config that would fail or be silently wrong if run."""


def _multiple(value: float, step: float) -> bool:
    q = value / step
    return abs(q - round(q)) < 1e-9


# ---------------------------------------------------------------------------
# Experiment workloads: one `sgkink run` of one config per iteration


@dataclass(frozen=True)
class ExperimentWorkload:
    name: str
    why: str
    base: dict          # the fixed part of the config
    canonical: dict     # seed 0
    ranges: dict        # parameter -> (low, high), drawn uniformly
    tiny: dict          # overrides for the fast self-test size

    def params(self, seed: int) -> dict:
        if seed == 0:
            return dict(self.canonical)
        rng = random.Random(f"{self.name}:{seed}")
        return {k: rng.uniform(lo, hi) for k, (lo, hi) in sorted(self.ranges.items())}

    def range_ends(self) -> list:
        """Every corner of the parameter box."""
        corners = [{}]
        for k, (lo, hi) in sorted(self.ranges.items()):
            corners = [dict(c, **{k: v}) for c in corners for v in (lo, hi)]
        return corners

    def config(self, params: dict, tiny: bool = False) -> dict:
        cfg = dict(self.base, **params)
        if tiny:
            cfg.update(self.tiny)
        return cfg

    def preflight(self, cfg: dict) -> None:
        """Validate through the library, then check what the library
        only finds out after integrating (or never)."""
        try:
            ec = ExperimentConfig(**json.loads(json.dumps(cfg)))
        except (TypeError, ValueError) as exc:
            raise PreflightError(f"{self.name}: {exc}") from exc
        dt, t_end, every = ec.time_step, ec.t_end, ec.snapshot_every
        if not (_multiple(t_end, dt) and _multiple(every, dt)):
            raise PreflightError(
                f"{self.name}: dt={dt} must divide t_end={t_end} and "
                f"snapshot_every={every}; evolve would round the step count")
        if not _multiple(t_end, every):
            raise PreflightError(
                f"{self.name}: snapshot_every={every} must divide t_end={t_end}")
        if ec.scheme == "leapfrog" and dt > 0.9 * ec.grid.dx:
            raise PreflightError(f"{self.name}: CFL violation dt={dt}")
        half = min(-ec.x_min, ec.x_max) - abs(ec.x0)
        if t_end + _DATA_RADIUS > half:
            raise PreflightError(
                f"{self.name}: radiation reaches the domain edge before "
                f"t_end={t_end} (half-width {half})")
        if ec.name == "small-data-scattering":
            if t_end < 100:
                raise PreflightError(f"{self.name}: profile extraction needs t_end >= 100")
            for frac in (0.375, 0.75):
                if not _multiple(frac * t_end, every):
                    raise PreflightError(
                        f"{self.name}: predictor time {frac * t_end} is not a "
                        f"snapshot time (snapshot_every={every})")
        if ec.name == "kink-stability" and t_end < 100:
            raise PreflightError(f"{self.name}: linf_late_over_early needs t_end >= 100")
        try:
            self.build(cfg)
        except ValueError as exc:
            raise PreflightError(f"{self.name}: initial data: {exc}") from exc

    def build(self, cfg: dict):
        """The config and initial data, built by the code `sgkink run` uses."""
        ec = ExperimentConfig(**json.loads(json.dumps(cfg)))
        if ec.name == "small-data-scattering":
            dphi, dphi_t = experiments._perturbation(ec)
            return ec, State(Field(ec.grid, dphi), Field(ec.grid, dphi_t), 0.0,
                             Topology.ZERO)
        if ec.name == "conservation":
            return ec, experiments._conservation_data(ec)
        return ec, experiments._perturbed_kink(ec)

    def prepare(self, cfg: dict, workdir: Path):
        path = workdir / f"{self.name}.json"
        path.write_text(json.dumps(cfg, sort_keys=True))
        return path

    def run(self, job: Path, workdir: Path):
        """One timed iteration: the user's entry point, called in-process."""
        out = Path(tempfile.mkdtemp(prefix="out-", dir=workdir))
        with contextlib.redirect_stdout(io.StringIO()):
            code = sgkink.cli.main(["run", str(job), "--out", str(out)])
        return code, out

    def accuracy(self, cfg: dict, job: Path, output) -> tuple[dict, list]:
        code, out = output
        doc = json.loads((out / "report.json").read_text())
        nbytes = sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out)
        violations = [f"experiment check failed: {msg}" for msg in doc["failures"]]
        if code != 0:
            violations.append(f"sgkink run exited with {code}")
        s = doc["summary"]
        values = {}
        for key, bound in _TOLERANCES[self.name]:
            val = _lookup(s, key)
            values[key] = val
            if not bound(val, cfg):
                violations.append(f"{key}={val!r} outside its tolerance")
        return {"values": values, "report_bytes": nbytes}, violations


def _lookup(summary: dict, key: str):
    node = summary
    for part in key.split("/"):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _within(lo: float, hi: float, per_epsilon: bool = False):
    """Check lo <= value <= hi, with hi scaled by the config's epsilon."""
    def check(v, cfg):
        top = hi * cfg["epsilon"] if per_epsilon else hi
        return isinstance(v, float) and math.isfinite(v) and lo <= v <= top
    return check


# The experiments' tolerances (sgkink.experiments and the acceptance
# criteria); sup_W has none and is only required to be finite and positive.
_TOLERANCES = {
    "scatter": [
        ("decay_exponent", _within(-0.6, -0.4)),
        ("predictor_ratio/45.0", _within(0.0, 0.25)),
        ("predictor_ratio/90.0", _within(0.0, 0.25)),
        ("sup_W", _within(1e-300, math.inf)),
    ],
    "kink": [
        ("max_pair_energy_over_eps", _within(0.0, 10.0)),
        ("center_excursion", _within(0.0, 10.0, per_epsilon=True)),
        ("linf_late_over_early", _within(0.0, 0.5)),
        ("inverse/residual_norm", _within(0.0, 1e-8)),
    ],
    "conserve": [
        ("drift_E0", _within(0.0, 1e-6)),
        ("drift_P", _within(0.0, 1e-6)),
        ("drift_E2", _within(0.0, 1e-4)),
        ("drift_E4", _within(0.0, 1e-4)),
    ],
}


# ---------------------------------------------------------------------------
# The library-level Backlund batch


def _gaussian_state(grid, eps: float) -> State:
    p = eps * np.exp(-grid.x**2)
    return State(Field(grid, p), Field(grid, p.copy()), 0.0, Topology.ZERO)


@dataclass(frozen=True)
class TransformWorkload:
    name: str
    why: str
    grid: tuple
    triples: int
    tiny_grid: tuple
    ranges = {"beta": (-0.5, 0.5), "epsilon": (0.01, 0.1), "anchor": (-0.5, 0.5)}

    def params(self, seed: int) -> dict:
        """(beta, epsilon, anchor) triples; the first always has epsilon 0."""
        rng = random.Random(f"{self.name}:{seed}")
        b, e, a = (self.ranges[k] for k in ("beta", "epsilon", "anchor"))
        rows = [[rng.uniform(*b), 0.0, rng.uniform(*a)]] + [
            [rng.uniform(*b), rng.uniform(*e), rng.uniform(*a)]
            for _ in range(1, self.triples)
        ]
        return {"triples": rows}

    def range_ends(self) -> list:
        (b0, b1), (e0, e1), (a0, a1) = (self.ranges[k] for k in ("beta", "epsilon", "anchor"))
        return [{"triples": [[b, 0.0, a] for b in (b0, b1) for a in (a0, a1)]
                 + [[b, e, a] for b in (b0, b1) for e in (e0, e1) for a in (a0, a1)]}]

    def config(self, params: dict, tiny: bool = False) -> dict:
        if tiny:
            return {"grid": list(self.tiny_grid), "triples": params["triples"][:2]}
        return {"grid": list(self.grid), "triples": params["triples"]}

    def preflight(self, cfg: dict) -> None:
        try:
            grid = make_grid(*cfg["grid"])
        except ValueError as exc:
            raise PreflightError(f"{self.name}: {exc}") from exc
        for beta, eps, anchor in cfg["triples"]:
            if not abs(beta) < 1:
                raise PreflightError(f"{self.name}: |beta| must be < 1, got {beta}")
            if not 0.0 <= eps <= 0.1:
                raise PreflightError(f"{self.name}: epsilon {eps} outside [0, 0.1]")
            if not grid.x_min + 8 <= anchor <= grid.x_max - 8:
                raise PreflightError(f"{self.name}: anchor {anchor} too near the grid edge")
        if not any(eps == 0.0 for _, eps, _ in cfg["triples"]):
            raise PreflightError(f"{self.name}: the batch must include epsilon = 0")
        try:
            self.build(cfg)
        except ValueError as exc:
            raise PreflightError(f"{self.name}: initial data: {exc}") from exc

    def build(self, cfg: dict):
        grid = make_grid(*cfg["grid"])
        return [(_gaussian_state(grid, eps), beta, KinkParams(beta, 0.0).a, anchor)
                for beta, eps, anchor in cfg["triples"]]

    def prepare(self, cfg: dict, workdir: Path):
        return self.build(cfg)

    def run(self, job, workdir: Path):
        out = []
        for phi, beta, a, anchor in job:
            f = backlund.forward_transform(phi, a, anchor)
            inv = backlund.inverse_transform(f, beta, anchor)
            rd = backlund.reconstruct_difference(inv.phi, inv.beta, inv.center)
            out.append((f, inv, rd))
        return out

    def accuracy(self, cfg: dict, job, output) -> tuple[dict, list]:
        """Round trip and forward residual as in the backlund-roundtrip
        experiment; the reconstruction must match f - Q to O(epsilon^2)."""
        grid = job[0][0].grid
        resid_tol = max(1e-8, grid.dx**4)
        roundtrip = forward = recon = 0.0
        for (phi, _, a, _), (f, inv, rd) in zip(job, output):
            roundtrip = max(roundtrip, float(np.max(np.abs(inv.phi.phi.values - phi.phi.values))))
            forward = max(forward, norm(backlund.backlund_residual(f, phi, a)["R1"], Lp(np.inf)))
            q = kink_identities(KinkParams(inv.beta, inv.center), f.time, grid.x)["Q"]
            eps = float(np.max(np.abs(phi.phi.values)))
            err = float(np.max(np.abs(f.phi.values - q - rd.values)))
            recon = max(recon, err / eps**2 if eps > 0 else err / 1e-8)
        values = {"roundtrip_sup_error": roundtrip,
                  "forward_residual": forward,
                  "reconstruction_error_over_eps2": recon}
        violations = []
        if not roundtrip < 1e-6:
            violations.append(f"roundtrip_sup_error={roundtrip!r} not below 1e-6")
        if not forward < resid_tol:
            violations.append(f"forward_residual={forward!r} not below {resid_tol:.2e}")
        if not recon < 1.0:
            violations.append(f"reconstruction_error_over_eps2={recon!r} not below 1")
        return {"values": values, "report_bytes": 0}, violations


WORKLOADS = {
    w.name: w
    for w in (
        ExperimentWorkload(
            name="scatter",
            why="spectral Yoshida4 integration of small Gaussian data plus "
                "wave-packet profile extraction; Backlund and tracking idle",
            base={"name": "small-data-scattering", "scheme": "yoshida4",
                  "x_min": -128.0, "x_max": 128.0, "n": 2048, "dt": 0.03125,
                  "t_end": 120.0, "snapshot_every": 5.0},
            canonical={"epsilon": 0.15},
            ranges={"epsilon": (0.12, 0.15)},
            tiny={"n": 1024, "dt": 0.0625},
        ),
        ExperimentWorkload(
            name="kink",
            why="leapfrog perturbed kink with inverse transform, center "
                "tracking, L2+Linf norms and Backlund residuals; no FFT",
            base={"name": "kink-stability", "scheme": "leapfrog",
                  "x_min": -128.0, "x_max": 128.0, "n": 4096,
                  "t_end": 100.0, "snapshot_every": 1.0},
            canonical={"epsilon": 0.01, "beta0": 0.2, "x0": 0.0},
            ranges={"epsilon": (0.008, 0.012), "beta0": (0.15, 0.25),
                    "x0": (-0.25, 0.25)},
            tiny={"n": 2048, "snapshot_every": 2.0},
        ),
        TransformWorkload(
            name="transform",
            why="library Backlund batch at n=32768: Python RK4 sweeps of "
                "forward_transform and operator_I, inverse solves; no stepping",
            grid=(-32.0, 32.0, 32768),
            triples=4,
            tiny_grid=(-32.0, 32.0, 8192),
        ),
        ExperimentWorkload(
            name="conserve",
            why="Yoshida4 breather with a snapshot every 8 steps and "
                "conserved_quantities at 101 snapshots; tightest accuracy gate",
            base={"name": "conservation", "data": "breather", "scheme": "yoshida4",
                  "x_min": -64.0, "x_max": 64.0, "n": 4096, "dt": 0.015625,
                  "t_end": 12.5, "snapshot_every": 0.125},
            canonical={"x0": 0.0},
            ranges={"x0": (-1.0, 1.0)},
            tiny={"t_end": 5.0, "snapshot_every": 0.5},
        ),
    )
}
