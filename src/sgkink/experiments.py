"""Reproducible experiment definitions binding the library together.

Each experiment takes an ExperimentConfig, produces a Report with per-time
tables and summary scalars, and judges itself against fixed tolerances; the
CLI turns the verdict into an exit status.  Outputs are deterministic given
the config (runs are noise-free), which report.json echoes.  Validation and
the run share one initial state: the config builds it once, read-only, and
refuses there whatever the run would refuse.  So do the two Backlund
experiments and the transforms they start from.  One table names each
experiment's initial-state builder and runner.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field as dc_field, asdict
from functools import cached_property
from pathlib import Path

import numpy as np

from .backlund import (BacklundConvergenceError, InverseResult, _residual,
                       backlund_residual, forward_transform, inverse_transform)
from .evolve import (
    Scheme,
    SchemeKind,
    _active,
    _box_quiet,
    _run_steps,
    _snapshot_times,
    conserved_quantities,
    snapshots,
)
from .exact import (
    Breather,
    BreatherParams,
    Kink,
    KinkParams,
    WobblingKink,
    sample_state,
    sech,
)
from .fields import (
    Field,
    Grid,
    Lp,
    State,
    Topology,
    _trapezoid,
    load_field_csv,
    make_grid,
    norm,
    save_field_sgf,
)
from .tracking import (_MIN_FIT_SAMPLES, _decay_bound, fit_decay_exponent,
                       track)
from .scattering import (
    _MIN_EXTRACTION_TIME,
    U,
    _beyond_profile,
    _cone_xi,
    _max_reachable_xi,
    extract_W,
    predict_asymptotics,
    to_complex_u,
)

__all__ = [
    "EXPERIMENT_NAMES",
    "ExperimentConfig",
    "Report",
    "run_experiment",
    "write_report",
]

_PERTURBATIONS = ("gaussian", "odd-sech", "custom")

# small-data-scattering extracts the profile from t_end >= _MIN_EXTRACTION_TIME
# on and tests the predictor at these fractions of t_end, which must be
# snapshots
_PREDICTOR_FRACTIONS = (0.375, 0.75)
# how close a snapshot's time must be to a predictor time to stand for it
_AT_SNAPSHOT = 1e-9
# the windows the checks judge: small-data-scattering's decay fit over
# [20, min(200, t_end)], exterior-decay's trend from t = 10 on and the
# wobbler's pair energy from t = 20 on
_FIT_WINDOW = (20.0, 200.0)
_EXTERIOR_FROM = 10.0
_WOBBLER_FROM = 20.0


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    x_min: float = -256.0
    x_max: float = 256.0
    n: int = 8192
    scheme: str = "leapfrog"
    dt: float | None = None          # defaults to dx/2
    epsilon: float = 0.05
    beta0: float = 0.2
    x0: float = 0.0
    s: float = 1.0
    perturbation: str = "gaussian"
    custom_file: str | None = None   # CSV (x, re=phi, im=phi_t) on the grid
    data: str = "kink"               # conservation: kink|breather|perturbed-kink
    t_end: float = 50.0
    snapshot_every: float = 1.0
    save_snapshots: bool = False

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ValueError(
                f"unknown experiment {self.name!r}; choose from "
                f"{', '.join(EXPERIMENT_NAMES)}"
            )
        if not 0.0 < self.epsilon <= 0.2:
            raise ValueError(f"epsilon must lie in (0, 0.2], got {self.epsilon}")
        if not 0.0 <= self.s < np.inf:  # WeightedSobolev's s, and finite
            raise ValueError(f"s must be finite and >= 0, got {self.s}")
        if self.scheme not in {k.value for k in SchemeKind}:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.perturbation not in _PERTURBATIONS:
            raise ValueError(f"unknown perturbation {self.perturbation!r}")
        if self.perturbation == "custom":
            if self.custom_file is None:
                raise ValueError("custom perturbation needs custom_file")
            if not Path(self.custom_file).exists():
                raise ValueError(f"custom_file {self.custom_file} does not exist")
        if self.data not in ("kink", "breather", "perturbed-kink"):
            raise ValueError(f"unknown conservation data {self.data!r}")
        _refuse(self)

    @cached_property
    def grid(self) -> Grid:
        """One Grid per config, built on first read; asdict, == and hash
        read only the fields."""
        return make_grid(self.x_min, self.x_max, self.n)

    @cached_property
    def initial_state(self) -> State:
        """The state the run starts from, built once per config, by
        validation, and read-only as Grid.x is: every runner starts from
        the state that validation judged."""
        return _read_only(_EXPERIMENTS[self.name][0](self))

    @cached_property
    def backlund(self) -> tuple[State, InverseResult]:
        """(f, the inverse transform of f) of the two Backlund experiments,
        built once per config, by validation, and read-only: for
        kink-stability f is the initial state, for backlund-roundtrip the
        forward transform of it.  An inverse that does not converge is a
        refusal."""
        f = self.initial_state
        if self.name == "backlund-roundtrip":
            f = _read_only(forward_transform(f, KinkParams(self.beta0, 0.0).a,
                                             self.x0))
        try:
            inv = inverse_transform(f, self.beta0, self.x0)
        except BacklundConvergenceError as exc:
            raise ValueError(
                f"the inverse Backlund transform does not converge: {exc}"
            ) from None
        _read_only(inv.phi)
        return f, inv

    @property
    def time_step(self) -> float:
        return self.grid.dx / 2 if self.dt is None else self.dt

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls(**json.load(fh))


def _refuse(cfg: ExperimentConfig):
    """Refuse a config whose run would refuse it, or integrate and then
    fail, or pass a check that has nothing to judge.  In order: the
    wobbler's x0 must be 0, where its kink sits, and its beta0 must not be
    0, where it is the static kink; the initial state must build (a grid
    too narrow for the kink's tails, a custom_file on another grid), and
    so must the roundtrip's forward and inverse transforms (its beta,
    anchor and tails; the inverse's convergence); snapshots must take the
    run (see _run_steps); the predictor times must be snapshot times;
    kink-stability's inverse transform must converge; each check needs
    snapshots to judge; the radiation must not wrap around the periodic
    grid."""
    if cfg.name == "wobbler" and cfg.x0 != 0.0:
        raise ValueError("the wobbling kink sits at x = 0; x0 must be 0, "
                         f"got {cfg.x0}")
    if cfg.name == "wobbler" and cfg.beta0 == 0.0:
        raise ValueError("the wobbling kink at beta0 = 0 is the static kink: "
                         "its pair-energy check would judge nothing")
    s0 = cfg.initial_state
    if cfg.name == "backlund-roundtrip":  # the only runner without evolve
        cfg.backlund  # its forward and inverse transforms
        return
    steps, stride = _run_steps(
        Scheme(SchemeKind(cfg.scheme), cfg.time_step), cfg.grid.dx,
        s0.topology, cfg.t_end, cfg.snapshot_every, "t_end")
    times = _snapshot_times(s0.time, cfg.time_step, steps, stride)
    extracting = (cfg.name == "small-data-scattering"
                  and cfg.t_end >= _MIN_EXTRACTION_TIME)
    predictor_times = ([frac * cfg.t_end for frac in _PREDICTOR_FRACTIONS]
                       if extracting else [])
    for t in predictor_times:  # the run keeps the snapshots at these times
        if not np.any(np.abs(times - t) <= _AT_SNAPSHOT):
            raise ValueError(
                f"predictor time {t} is not a snapshot time "
                f"(snapshot_every={cfg.snapshot_every})")
    if cfg.name == "kink-stability":
        cfg.backlund  # the inverse transform that phi starts from

    def need(count, lo, hi, what):
        got = int(np.count_nonzero((times >= lo) & (times <= hi)))
        if got < count:
            span = f"t >= {lo}" if hi == np.inf else f"{lo} <= t <= {hi}"
            raise ValueError(f"{what} needs >= {count} snapshots at {span}, "
                             f"got {got}")

    if cfg.name == "wobbler":
        need(2, _WOBBLER_FROM, np.inf, "the pair-energy check")
    if cfg.name == "exterior-decay":
        need(2, _EXTERIOR_FROM, np.inf, "the exterior trend check")
        reach = np.max(np.abs(cfg.grid.x))
        late = times[(times >= _EXTERIOR_FROM) & (times > reach)]
        if late.size:
            raise ValueError(f"the exterior region |x| >= t is empty at "
                             f"t={late[0]}: the grid reaches |x| = {reach}")
    if cfg.name != "small-data-scattering":
        return
    need(_MIN_FIT_SAMPLES, _FIT_WINDOW[0], min(_FIT_WINDOW[1], cfg.t_end),
         "the decay fit")
    xi_grid = _profile_xi(cfg.grid, times[-1]) if extracting else None
    for t in predictor_times:
        inside, _, xi = _cone_xi(t, cfg.grid.x[_predictor_mask(cfg.grid, t)])
        if _beyond_profile(xi_grid, inside, xi):
            raise ValueError(
                f"the predictor at t={t} reads |xi| up to "
                f"{np.max(np.abs(xi)):.3f}, past the profile's "
                f"{np.max(xi_grid):.3f} that packets reach at "
                f"t={times[-1]}; widen the grid")
    # the data's active span as the spectral box reads it, widened by the
    # light cone's t_end - t0 on each side, must stay in [x_min, x_max]
    phi, phi_t = s0.phi.values, s0.phi_t.values
    active = _active(phi, phi_t, _box_quiet(phi, phi_t))
    if not active.size:
        return
    a, b = cfg.grid.x[active[[0, -1]]]
    reach = cfg.t_end - s0.time
    if a - reach < cfg.x_min or b + reach > cfg.x_max:
        raise ValueError(
            f"the radiation from the data's span [{a:.3f}, {b:.3f}] reaches "
            f"[{a - reach:.3f}, {b + reach:.3f}] by t_end={cfg.t_end}, past "
            f"the grid's [{cfg.x_min}, {cfg.x_max}]: it would wrap around; "
            "widen the grid")


@dataclass
class Report:
    config: dict
    tables: dict = dc_field(default_factory=dict)
    summary: dict = dc_field(default_factory=dict)
    failures: list = dc_field(default_factory=list)
    snapshots: dict = dc_field(default_factory=dict)  # tag -> Field

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, label: str, ok: bool) -> None:
        if not ok:
            self.failures.append(label)


def _read_only(s: State) -> State:
    s.phi.values.flags.writeable = False
    s.phi_t.values.flags.writeable = False
    return s


def _perturbation(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    x = cfg.grid.x
    if cfg.perturbation == "gaussian":
        p = cfg.epsilon * np.exp(-(x**2))
        return p, p.copy()
    if cfg.perturbation == "odd-sech":
        p = -cfg.epsilon * sech(x) * np.tanh(x)
        return p, p.copy()
    # the file's nodes are printed decimals, so they match the config's to
    # rounding, not bit for bit
    f, grid = load_field_csv(cfg.custom_file), cfg.grid
    if (f.grid.n != grid.n
            or np.max(np.abs(f.grid.x - grid.x)) > 1e-9 * grid.dx):
        raise ValueError("custom_file grid does not match the config grid")
    return f.values.real.copy(), f.values.imag.copy()


def _perturbed_kink(cfg: ExperimentConfig) -> State:
    base = sample_state(Kink(KinkParams(cfg.beta0, cfg.x0)), cfg.grid, 0.0)
    dphi, dphi_t = _perturbation(cfg)
    return State(
        Field(cfg.grid, base.phi.values + dphi),
        Field(cfg.grid, base.phi_t.values + dphi_t),
        0.0,
        Topology.KINK,
    )


def _zero_topology(cfg: ExperimentConfig) -> State:
    dphi, dphi_t = _perturbation(cfg)
    return State(Field(cfg.grid, dphi), Field(cfg.grid, dphi_t), 0.0,
                 Topology.ZERO)


def _wobbling_kink(cfg: ExperimentConfig) -> State:
    return sample_state(WobblingKink(cfg.beta0), cfg.grid, 0.0)


def _snapshots(cfg: ExperimentConfig, s0: State, rep: Report,
               tag: str = "final"):
    """The run's snapshots as they are reached; with save_snapshots, the
    last one is kept in rep once the generator is exhausted."""
    scheme = Scheme(SchemeKind(cfg.scheme), cfg.time_step)
    states = snapshots(s0, scheme, cfg.t_end, cfg.snapshot_every)
    return _keep_last(states, rep, tag) if cfg.save_snapshots else states


def _keep_last(states, rep: Report, tag: str):
    for last in states:
        yield last
    rep.snapshots[f"{tag}_phi"] = last.phi
    rep.snapshots[f"{tag}_phi_t"] = last.phi_t


def _run_kink_stability(cfg: ExperimentConfig, rep: Report) -> None:
    s0, inv = cfg.backlund
    rep.summary["inverse"] = json.loads(inv.to_json())
    dx, rows = cfg.grid.dx, []
    # f tracked and phi stepped in lockstep, with backlund_residual's R1, R2
    pairs = zip(track(_snapshots(cfg, s0, rep, "f"), inv.beta, inv.center),
                _snapshots(cfg, inv.phi, rep, "phi"), strict=True)
    for rec, p in pairs:
        f = rec.state
        r1, r2 = (math.sqrt(_trapezoid(r, dx, r)) for r in _residual(
            f.phi.values, rec.f_x, f.phi_t.values, p.phi.values,
            p.phi_t.values, inv.a, dx))
        rows.append({
            "t": rec.time,
            "center": rec.center,
            "center_velocity": rec.center_velocity,
            "diff_linf": rec.diff_linf,
            "diff_deriv_l2plinf": rec.diff_deriv_l2plinf,
            "diff_pair_energy": rec.diff_pair_energy,
            "backlund_r1": r1,
            "backlund_r2": r2,
        })
    rep.tables["tracking"] = rows
    eps = cfg.epsilon
    pair = [r["diff_pair_energy"] for r in rows]
    rep.summary["max_pair_energy_over_eps"] = max(pair) / eps
    rep.summary["center_excursion"] = max(
        abs(r["center"] - rows[0]["center"]) for r in rows
    )
    rep.check("pair energy stays within 10*epsilon", max(pair) <= 10 * eps)
    rep.check("center excursion within 10*epsilon",
              rep.summary["center_excursion"] <= 10 * eps)
    if cfg.t_end >= 100:
        early = next(r for r in rows if r["t"] >= 5)
        late = next(r for r in rows if r["t"] >= 100)
        rep.summary["linf_late_over_early"] = (
            late["diff_linf"] / early["diff_linf"]
        )
        rep.check("sup-norm difference halves by t=100",
                  rep.summary["linf_late_over_early"] <= 0.5)


def _run_backlund_roundtrip(cfg: ExperimentConfig, rep: Report) -> None:
    phi, (f, inv) = cfg.initial_state, cfg.backlund
    res = backlund_residual(f, phi, inv.base.a)
    sup_err = float(np.max(np.abs(inv.phi.phi.values - phi.phi.values)))
    rep.summary.update({
        "forward_residual_r1": norm(res["R1"], Lp(np.inf)),
        "forward_residual_r2": norm(res["R2"], Lp(np.inf)),
        "roundtrip_sup_error": sup_err,
        "inverse": json.loads(inv.to_json()),
    })
    # recomputing R1 uses 4th-order finite differences, so the residual
    # floor scales like dx^4 on coarse grids
    resid_tol = max(1e-8, cfg.grid.dx**4)
    rep.check("roundtrip sup error below 1e-6", sup_err < 1e-6)
    rep.check(f"forward residual below {resid_tol:.2e}",
              rep.summary["forward_residual_r1"] < resid_tol)


def _conservation_data(cfg: ExperimentConfig) -> State:
    if cfg.data == "kink":
        return sample_state(Kink(KinkParams(cfg.beta0, cfg.x0)), cfg.grid, 0.0)
    if cfg.data == "breather":
        return sample_state(
            Breather(BreatherParams(0.0, 0.8, 0.0, cfg.x0)), cfg.grid, 0.0
        )
    return _perturbed_kink(cfg)


def _run_conservation(cfg: ExperimentConfig, rep: Report) -> None:
    rows = []
    for s in _snapshots(cfg, cfg.initial_state, rep):
        q = conserved_quantities(s)
        rows.append({"t": s.time, "E0": q["E0"], "P": q["P"],
                     "E2": q["E2"], "E4": q["E4"]})
    rep.tables["conserved"] = rows
    first = rows[0]
    for key, tol in (("E0", 1e-6), ("P", 1e-6), ("E2", 1e-4), ("E4", 1e-4)):
        scale = max(abs(first[key]), 1.0)
        drift = max(abs(r[key] - first[key]) for r in rows) / scale
        rep.summary[f"drift_{key}"] = drift
        rep.check(f"{key} relative drift below {tol}", drift < tol)


def _run_small_data_scattering(cfg: ExperimentConfig, rep: Report) -> None:
    # ExperimentConfig has checked that the predictor times are snapshots
    predictor_times = [frac * cfg.t_end for frac in _PREDICTOR_FRACTIONS]
    kept, rows = {}, []
    for s in _snapshots(cfg, cfg.initial_state, rep):
        rows.append({"t": s.time, "linf": norm(s.phi, Lp(np.inf))})
        kept.update((tt, s) for tt in predictor_times
                    if abs(s.time - tt) <= _AT_SNAPSHOT)
    rep.tables["decay"] = rows
    lo, hi = _FIT_WINDOW[0], min(_FIT_WINDOW[1], cfg.t_end)
    series = [(r["t"], r["linf"]) for r in rows if lo <= r["t"] <= hi]
    fit = fit_decay_exponent(series, (lo, hi))
    rep.summary["decay_exponent"] = fit["exponent"]
    rep.summary["decay_r2"] = fit["r2"]
    rep.check("sup-norm decay exponent is -0.5 +/- 0.1",
              -0.6 <= fit["exponent"] <= -0.4)
    if cfg.t_end < _MIN_EXTRACTION_TIME:
        rep.summary["profile"] = "skipped: t_end below extraction threshold"
        return
    W = extract_W(s, _profile_xi(cfg.grid, s.time))  # the last snapshot
    rep.tables["profile"] = [
        {"xi": float(x), "re": float(w.real), "im": float(w.imag),
         "abs": float(abs(w))}
        for x, w in zip(W.xi_grid, W.W)
    ]
    sup_w = float(np.max(np.abs(W.W)))
    rep.summary["sup_W"] = sup_w
    ratios = {}
    for tt in predictor_times:
        u = to_complex_u(kept[tt])
        mask = _predictor_mask(cfg.grid, tt)
        pred = predict_asymptotics(W, tt, cfg.grid.x[mask], U())
        ratios[tt] = float(
            np.max(np.abs(u.values[mask] - pred)) / (tt**-0.5 * sup_w)
        )
    (t1, r1), (t2, r2) = sorted(ratios.items())
    rep.summary["predictor_ratio"] = {str(t1): r1, str(t2): r2}
    rep.check("predictor ratio below 0.25", r2 <= 0.25)
    rep.check("predictor ratio decreases in time", r2 < r1)


def _profile_xi(grid: Grid, t: float) -> np.ndarray:
    """The xi at which the profile is read from the snapshot at time t."""
    xi_max = min(3.0, _max_reachable_xi(grid, t))
    return np.linspace(-xi_max, xi_max, 61)


def _predictor_mask(grid: Grid, t: float) -> np.ndarray:
    """The nodes at which the predictor is tested at time t."""
    return np.abs(grid.x) <= t / 2


def _run_wobbler(cfg: ExperimentConfig, rep: Report) -> None:
    # _refuse: x0 = 0, where WobblingKink sits
    records = track(_snapshots(cfg, cfg.initial_state, rep), 0.0, 0.0)
    rows = [{"t": r.time, "center": r.center,
             "diff_pair_energy": r.diff_pair_energy} for r in records]
    rep.tables["tracking"] = rows
    # ExperimentConfig has checked that >= 2 snapshots reach t >= 20
    window = [r for r in rows if r["t"] >= _WOBBLER_FROM]
    ref = window[0]["diff_pair_energy"]
    inf_val = min(r["diff_pair_energy"] for r in window)
    rep.summary["pair_energy_inf_over_initial"] = inf_val / ref
    rep.check("pair energy does not decay (non-stability witness)",
              inf_val >= 0.5 * ref)


def _run_exterior_decay(cfg: ExperimentConfig, rep: Report) -> None:
    records = track(_snapshots(cfg, cfg.initial_state, rep), cfg.beta0,
                    cfg.x0, exterior=True)
    rows = []
    for rec in records:  # _refuse: |x| >= t is not empty at any t >= 10
        if rec.time < _EXTERIOR_FROM:
            continue
        lhs, r = rec.exterior_sup
        bound = _decay_bound(rec.time, r, cfg.s)
        rows.append({"t": rec.time, "lhs": lhs, "bound": bound,
                     "ratio": lhs / bound,
                     "exterior_l2": rec.exterior_l2})
    rep.tables["exterior"] = rows
    ratios = [r["ratio"] for r in rows]
    rep.summary["max_ratio"] = max(ratios)
    half = len(ratios) // 2
    rep.summary["late_over_early_ratio"] = (
        max(ratios[half:]) / max(ratios[:half])
    )
    rep.check("exterior constant shows no growth trend",
              rep.summary["late_over_early_ratio"] <= 1.2)
    l2 = [r["exterior_l2"] for r in rows]
    monotone = all(l2[i + 1] <= 1.05 * l2[i] for i in range(len(l2) - 1))
    rep.summary["exterior_l2_first_last"] = [l2[0], l2[-1]]
    rep.check("exterior L2 decreases monotonically within 5%",
              monotone and l2[-1] < l2[0])


# each experiment's initial-state builder and runner, in the order that
# `sgkink list` prints them
_EXPERIMENTS = {
    "kink-stability": (_perturbed_kink, _run_kink_stability),
    "backlund-roundtrip": (_zero_topology, _run_backlund_roundtrip),
    "conservation": (_conservation_data, _run_conservation),
    "small-data-scattering": (_zero_topology, _run_small_data_scattering),
    "wobbler": (_wobbling_kink, _run_wobbler),
    "exterior-decay": (_perturbed_kink, _run_exterior_decay),
}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> Report:
    rep = Report(config=asdict(cfg))
    _EXPERIMENTS[cfg.name][1](cfg, rep)
    return rep


def write_report(rep: Report, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "config": rep.config,
        "summary": rep.summary,
        "failures": rep.failures,
        "passed": rep.passed,
        "tables": sorted(rep.tables),
    }
    (out / "report.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n"
    )
    for name, rows in sorted(rep.tables.items()):
        if not rows:
            continue
        with open(out / f"{name}.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    for tag, f in sorted(rep.snapshots.items()):
        save_field_sgf(f, out / f"{tag}.sgf")
