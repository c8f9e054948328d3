"""Grids, derivatives, multipliers, norms, and field I/O."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import BarycentricInterpolator

from sgkink.fields import (
    Field,
    Grid,
    L2PlusLinf,
    Lp,
    PairEnergy,
    State,
    Topology,
    WeightedSobolev,
    _fd_stencil,
    _l2plus_linf,
    _local_poly,
    bessel_multiplier,
    load_field_csv,
    load_field_sgf,
    make_grid,
    norm,
    save_field_csv,
    save_field_sgf,
    spatial_derivative,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(-32.0, 32.0, 2048)


def reference_l2plus_linf(values, dx):
    """The L2+L-inf minimiser from a full descending sort of |g| and the
    stationary point of every top-k interval: the oracle for the partial
    sort in _l2plus_linf."""
    a = np.abs(values)
    w = np.full(a.size, dx)
    w[[0, -1]] = 0.5 * dx
    order = np.argsort(a)[::-1]
    s_a, w = a[order], w[order]
    s0 = np.cumsum(w)
    s1 = np.cumsum(w * s_a)
    s2 = np.cumsum(w * s_a * s_a)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(np.maximum(s0 * s2 - s1 * s1, 0.0) / (s0 - 1.0))
        lam = (s1 - root) / s0
    lower = np.append(s_a[1:], 0.0)  # s_a[:k+1] active on [lower[k], s_a[k]]
    ok = (s0 > 1.0) & (lam >= lower) & (lam <= s_a)
    lams = np.concatenate([[0.0, s_a[0]], lam[ok]])
    objs = np.concatenate([[np.sqrt(s2[-1]), s_a[0]], lam[ok] + root[ok]])
    best = float(lams[np.argmin(objs)])
    clipped = np.maximum(a - best, 0.0)
    return float(np.sqrt(np.trapezoid(clipped**2, dx=dx))) + best


def l2plinf_sample(seed, log_n, dx, shape):
    """(values, dx) on 2**log_n cells: a field of the named shape, scaled
    by 10**U(-6, 2); dx None is 2/n."""
    n = 2**log_n
    dx = 2.0 / n if dx is None else dx
    x = dx * (np.arange(n) - n / 2)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-6, 2)
    if shape == "gauss":
        vals = np.exp(-((x - rng.uniform(-1, 1) * x[-1])
                        / rng.uniform(0.1, 1) / x[-1]) ** 2)
    elif shape == "noise":
        vals = rng.normal(size=n) * np.exp(-(x / rng.uniform(1, 50)) ** 2)
    elif shape == "ties":
        vals = np.round(3 * rng.normal(size=n)) / 3
    elif shape == "end ties":
        # the maximum at both half-weight end cells and inside
        vals = 0.01 * rng.normal(size=n)
        vals[[0, -1, rng.integers(1, n - 1)]] = [1.0, -1.0, 1.0]
    elif shape == "constant":
        vals = np.full(n, rng.normal())
    elif shape == "spike":
        vals = np.zeros(n)
        vals[rng.integers(n)] = rng.normal()
    elif shape == "plateau":
        vals = np.minimum(rng.uniform(0, 2, size=n), 1.0)
    else:
        # a spike over noise: many samples active at the minimiser
        vals = rng.uniform(0.0, 1.0, size=n)
        vals[rng.integers(n)] = rng.uniform(5, 40)
    return scale * vals, dx


L2PLINF_SAMPLES = dict(
    seed=st.integers(0, 2**32 - 1), log_n=st.integers(4, 13),
    dx=st.sampled_from([1 / 64, 1 / 16, 1 / 8, 0.5, 1.0, 2.0, None]),
    shape=st.sampled_from(["gauss", "noise", "ties", "end ties", "constant",
                           "spike", "plateau", "broad"]))


def parent_l2plus_linf(values, dx):
    """_l2plus_linf as it was before its cumulative sums were stacked and
    its last norm written in place, kept verbatim as an oracle."""
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
            w = np.where((order == 0) | (order == n - 1), 0.5 * dx, dx)
            s0 = np.cumsum(w)
            s1 = np.cumsum(w * s_a)
            s2 = np.cumsum(w * s_a * s_a)
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
    clipped = np.maximum(a - best, 0.0)
    return float(np.sqrt(np.trapezoid(clipped**2, dx=dx))) + best


def smooth_field(grid, freqs):
    x = grid.x
    vals = sum(a * np.exp(-((x - c) ** 2) / w)
               for a, c, w in freqs)
    return Field(grid, vals)


class TestGrid:
    def test_spacing_and_layout(self, grid):
        assert grid.dx == pytest.approx(64.0 / 2048)
        assert grid.x[0] == -32.0
        assert grid.x[-1] == pytest.approx(32.0 - grid.dx)

    def test_x_is_built_once_and_read_only(self):
        g = make_grid(-3.0, 5.0, 64)
        x = g.x
        assert g.x is x
        assert np.array_equal(x, g.x_min + g.dx * np.arange(g.n))
        with pytest.raises(ValueError):
            x[0] = 1.0
        with pytest.raises(ValueError):
            g.x += 1.0

    def test_equality_and_hash_ignore_the_cached_x(self):
        read, fresh = make_grid(-3.0, 5.0, 64), make_grid(-3.0, 5.0, 64)
        read.x
        assert "x" in vars(read) and "x" not in vars(fresh)
        assert read == fresh and hash(read) == hash(fresh)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            make_grid(-1.0, 1.0, 100)
        with pytest.raises(ValueError):
            make_grid(-1.0, 1.0, 8)
        with pytest.raises(ValueError):
            make_grid(1.0, -1.0, 64)


class TestState:
    def test_kink_topology_accepts_kink_tails(self, grid):
        f = 4.0 * np.arctan(np.exp(grid.x))
        State(Field(grid, f), Field(grid, np.zeros(grid.n)), 0.0,
              Topology.KINK)

    def test_kink_topology_rejects_flat_zero(self, grid):
        with pytest.raises(ValueError):
            State(Field(grid, np.ones(grid.n)), Field(grid, np.zeros(grid.n)),
                  0.0, Topology.KINK)

    def test_rejects_nonfinite(self, grid):
        bad = np.zeros(grid.n)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Field(grid, bad)


class TestSpatialDerivative:
    def test_fourth_order_convergence(self):
        errs = []
        for n in (512, 1024):
            g = make_grid(-16.0, 16.0, n)
            f = Field(g, np.exp(-g.x**2 / 4))
            exact = -0.5 * g.x * np.exp(-g.x**2 / 4)
            errs.append(np.max(np.abs(spatial_derivative(f, 1).values - exact)))
        assert errs[0] / errs[1] > 12  # ~2^4

    def test_second_derivative(self, grid):
        f = Field(grid, np.sin(grid.x))
        d2 = spatial_derivative(f, 2)
        interior = slice(4, -4)
        assert np.max(np.abs(d2.values[interior] + np.sin(grid.x)[interior])) < 1e-7

    def test_rejects_higher_order(self, grid):
        with pytest.raises(ValueError):
            spatial_derivative(Field(grid, np.zeros(grid.n)), 3)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stacked_rows_match_single_rows(self, order, dtype):
        rng = np.random.default_rng(order)
        v = rng.normal(size=(3, 64)).astype(dtype)
        if dtype is complex:
            v += 1j * rng.normal(size=v.shape)
        stacked = _fd_stencil(v, 0.3, order)
        for row, d in zip(v, stacked):
            assert np.array_equal(_fd_stencil(row, 0.3, order), d)

    def test_writes_out_in_place(self, grid):
        v = np.array([np.sin(grid.x), np.cos(grid.x)])
        out = np.empty_like(v)
        assert _fd_stencil(v, grid.dx, 1, out=out) is out
        assert np.array_equal(out, _fd_stencil(v, grid.dx, 1))


class TestBesselMultiplier:
    def test_eigenfunction(self, grid):
        k = 2 * np.pi * 32 / grid.length
        f = Field(grid, np.cos(k * grid.x))
        out = bessel_multiplier(f, 1.0)
        assert np.max(np.abs(out.values - np.sqrt(1 + k * k) * f.values)) < 1e-10

    @given(l=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_composition_inverts(self, l, seed):
        g = make_grid(-16.0, 16.0, 256)
        rng = np.random.default_rng(seed)
        f = Field(g, np.exp(-g.x**2) * rng.normal(size=g.n))
        back = bessel_multiplier(bessel_multiplier(f, l), -l)
        assert np.max(np.abs(back.values - f.values)) < 1e-9

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_parseval(self, seed):
        g = make_grid(-16.0, 16.0, 512)
        rng = np.random.default_rng(seed)
        f = Field(g, np.exp(-g.x**2 / 8) * rng.normal(size=g.n))
        # <D>^0 is the identity, so the L2 norm is preserved exactly
        out = bessel_multiplier(f, 0.0)
        assert abs(norm(out, Lp(2)) - norm(f, Lp(2))) < 1e-10 * max(
            1.0, norm(f, Lp(2))
        )

    def test_rejects_kink_shaped_input(self, grid):
        f = Field(grid, 4.0 * np.arctan(np.exp(grid.x)))
        with pytest.raises(ValueError):
            bessel_multiplier(f, -1.0)


class TestNorms:
    def test_lp_gaussian(self, grid):
        f = smooth_field(grid, [(1.0, 0.0, 2.0)])
        assert norm(f, Lp(2)) == pytest.approx((np.pi) ** 0.25, rel=1e-8)
        assert norm(f, Lp(np.inf)) == pytest.approx(1.0, rel=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_l2plinf_below_both(self, seed):
        g = make_grid(-16.0, 16.0, 256)
        rng = np.random.default_rng(seed)
        f = Field(g, rng.normal(size=g.n) * np.exp(-g.x**2 / 16))
        val = norm(f, L2PlusLinf())
        assert val <= norm(f, Lp(2)) + 1e-9
        assert val <= norm(f, Lp(np.inf)) + 1e-9

    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["random", "zero", "spike"]),
           frac=st.floats(0.0, 1.0))
    @example(seed=0, kind="zero", frac=0.5)
    @example(seed=0, kind="spike", frac=0.5)
    @settings(max_examples=25, deadline=None)
    def test_l2plinf_is_the_minimum(self, seed, kind, frac):
        g = make_grid(-16.0, 16.0, 256)
        rng = np.random.default_rng(seed)
        vals = np.zeros(g.n)
        if kind == "random":
            vals = rng.normal(size=g.n) * np.exp(-g.x**2 / 16)
        elif kind == "spike":
            vals[rng.integers(g.n)] = rng.normal()
        a = np.abs(vals)

        def objective(lam):
            lam = np.atleast_1d(lam)[:, None]
            clipped = np.maximum(a - lam, 0.0)
            return np.sqrt(np.trapezoid(clipped**2, dx=g.dx, axis=1)) + lam[:, 0]

        val = norm(Field(g, vals), L2PlusLinf())
        assert val <= objective(frac * a.max())[0] + 1e-12
        # dense grid on [0, max|g|], refined around its best point; the
        # objective is convex, so the minimiser lies in the refined bracket
        lams = np.linspace(0.0, a.max(), 4097)
        i = int(np.argmin(objective(lams)))
        lams = np.linspace(lams[max(i - 1, 0)], lams[min(i + 1, 4096)], 4097)
        dense_min = float(np.min(objective(lams)))
        assert abs(val - dense_min) <= 1e-12 * dense_min

    @given(**L2PLINF_SAMPLES)
    @example(seed=0, log_n=12, dx=1 / 16, shape="spike")
    @example(seed=0, log_n=13, dx=1 / 16, shape="broad")
    @example(seed=0, log_n=13, dx=1 / 16, shape="end ties")
    # rounding puts stationary points all over a plateau, so the partial
    # sort must widen past a tie at its lower end
    @example(seed=2, log_n=10, dx=1 / 16, shape="constant")
    @settings(max_examples=200, deadline=None)
    def test_l2plinf_matches_the_full_sort(self, seed, log_n, dx, shape):
        vals, dx = l2plinf_sample(seed, log_n, dx, shape)
        got, ref = _l2plus_linf(vals, dx), reference_l2plus_linf(vals, dx)
        a = np.abs(vals)
        if np.sum(a == a[0]) > 1 or np.sum(a == a[-1]) > 1:
            # a tie with a half-weight end cell: the two sorts may order
            # its weights differently
            assert got == pytest.approx(ref, rel=4e-16, abs=0.0)
        else:
            assert got == ref

    @given(**L2PLINF_SAMPLES)
    # ties and plateaus that take k past 64 (a constant field ties every
    # sample at once), a spike over noise that takes k 4-fold, and k >= n
    # from the start (n = 16 < 64)
    @example(seed=2, log_n=10, dx=1 / 16, shape="constant")
    @example(seed=1, log_n=12, dx=1 / 16, shape="ties")
    @example(seed=3, log_n=11, dx=1 / 64, shape="plateau")
    @example(seed=0, log_n=13, dx=1 / 16, shape="broad")
    @example(seed=5, log_n=4, dx=0.5, shape="noise")
    @example(seed=0, log_n=13, dx=1 / 16, shape="end ties")
    @settings(max_examples=200, deadline=None)
    def test_l2plinf_bit_identical_to_the_parent(self, seed, log_n, dx,
                                                 shape):
        vals, dx = l2plinf_sample(seed, log_n, dx, shape)
        kept = vals.copy()
        assert _l2plus_linf(vals, dx) == parent_l2plus_linf(vals, dx)
        assert np.array_equal(vals, kept)  # the in-place work is on |g|

    def test_l2plinf_widens_past_the_first_k(self):
        # a spike over a floor of noise: the minimiser lies below the
        # 257th largest sample, so more than 4 times the first k = 64
        # samples are active there
        g = make_grid(-128.0, 128.0, 4096)
        vals = np.random.default_rng(7).uniform(0.0, 1.0, size=g.n)
        vals[g.n // 2] = 20.0

        def objective(lam):
            return (np.sqrt(np.trapezoid(np.maximum(vals - lam, 0.0) ** 2,
                                         dx=g.dx)) + lam)

        v = np.sort(vals)[::-1][256]
        assert objective(v - 1e-3) < objective(v)
        assert norm(Field(g, vals), L2PlusLinf()) == reference_l2plus_linf(
            vals, g.dx)

    @given(seed=st.integers(0, 2**32 - 1),
           spec=st.sampled_from([Lp(1), Lp(2), Lp(np.inf), L2PlusLinf()]),
           c=st.floats(1e-3, 1e3), sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_norm_axioms(self, seed, spec, c, sign):
        # L2PlusLinf is the infimal convolution of L2 and Linf, so a norm
        g = make_grid(-16.0, 16.0, 256)
        rng = np.random.default_rng(seed)
        u, v = (rng.normal(size=g.n) * np.exp(-(g.x - rng.uniform(-4, 4))**2
                                              / rng.uniform(1, 32))
                for _ in range(2))
        nu, nv = (norm(Field(g, w), spec) for w in (u, v))
        assert norm(Field(g, sign * c * u), spec) == pytest.approx(
            c * nu, rel=1e-12)
        assert norm(Field(g, u + v), spec) <= nu + nv + 1e-12
        if isinstance(spec, L2PlusLinf):
            assert nu <= min(norm(Field(g, u), Lp(2)),
                             norm(Field(g, u), Lp(np.inf)))

    def test_weighted_sobolev_monotone_in_m(self, grid):
        f = smooth_field(grid, [(0.7, 1.0, 3.0)])
        vals = [norm(f, WeightedSobolev(m, 1.0)) for m in (0, 1, 2)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_weighted_sobolev_is_one_norm_in_m(self):
        # at m = 1, s = 0 it is sqrt(||f||^2 + ||f'||^2), by Plancherel;
        # for f = 0.1 e^{-x^2} both terms are 0.01 sqrt(pi/2)
        g = make_grid(-64.0, 64.0, 4096)
        f = Field(g, 0.1 * np.exp(-g.x**2))
        exact = 0.1 * math.sqrt(2.0 * math.sqrt(math.pi / 2.0))
        assert norm(f, WeightedSobolev(1, 0.0)) == pytest.approx(
            exact, rel=1e-10)
        for m in (1, 2):
            at = norm(f, WeightedSobolev(m, 0.0))
            for h in (-1e-9, 1e-9):
                assert norm(f, WeightedSobolev(m + h, 0.0)) == pytest.approx(
                    at, rel=1e-8)

    @pytest.mark.parametrize("m, s, message", [
        (float("nan"), 1.0, "m must be finite and >= 0, got nan"),
        (float("inf"), 1.0, "m must be finite and >= 0, got inf"),
        (-1.0, 1.0, "m must be finite and >= 0, got -1.0"),
        (1.0, float("nan"), "s must be finite and >= 0, got nan"),
        (1.0, float("inf"), "s must be finite and >= 0, got inf"),
        (1.0, -1.0, "s must be finite and >= 0, got -1.0"),
    ])
    def test_weighted_sobolev_refuses_its_parameters(self, m, s, message):
        # NaN and inf passed a check of m < 0 or s < 0, and the norm then
        # blamed the field for the non-finite values they made
        with pytest.raises(ValueError, match=re.escape(message)):
            WeightedSobolev(m, s)

    def test_weighted_sobolev_weight_grows(self, grid):
        f = smooth_field(grid, [(0.7, 5.0, 3.0)])
        assert norm(f, WeightedSobolev(0, 1.0)) > norm(f, WeightedSobolev(0, 0.0))

    def test_pair_energy_zero_on_self(self, grid):
        f = smooth_field(grid, [(0.3, 0.0, 2.0)])
        s = State(f, f, 0.0, Topology.ZERO)
        assert norm(s, PairEnergy(s)) == 0.0


class TestIO:
    @given(seed=st.integers(0, 2**32 - 1), complex_=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_sgf_roundtrip(self, tmp_path_factory, seed, complex_):
        g = make_grid(-4.0, 4.0, 64)
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=g.n)
        if complex_:
            vals = vals + 1j * rng.normal(size=g.n)
        f = Field(g, vals)
        path = tmp_path_factory.mktemp("sgf") / "f.sgf"
        save_field_sgf(f, path)
        back = load_field_sgf(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_csv_roundtrip(self, tmp_path):
        g = make_grid(-4.0, 4.0, 64)
        f = Field(g, np.tanh(g.x))
        save_field_csv(f, tmp_path / "f.csv")
        back = load_field_csv(tmp_path / "f.csv")
        assert np.max(np.abs(back.values - f.values)) < 1e-12


class TestLocalPoly:
    @given(steps=st.lists(st.floats(0.2, 1.0), min_size=5, max_size=5),
           seed=st.integers(0, 2**32 - 1), nu=st.sampled_from([0, 1]))
    @settings(max_examples=60, deadline=None)
    def test_matches_barycentric(self, steps, seed, nu):
        # on 6 nodes the window is every node: the interpolating quintic
        rng = np.random.default_rng(seed)
        x = np.cumsum([0.0] + steps)
        v = rng.normal(size=(2, 6))
        at = rng.uniform(x[0], x[-1], 9)
        for vals in (v, v[0] + 1j * v[1]):
            poly = BarycentricInterpolator(x, vals, axis=-1)
            want = poly(at) if nu == 0 else poly.derivative(at)
            err = np.max(np.abs(_local_poly(x, vals, at, nu) - want))
            assert err <= 1e-12 * np.max(np.abs(want))

    @given(coef=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_reproduces_quintics(self, coef, seed):
        rng = np.random.default_rng(seed)
        x = np.cumsum(np.r_[-2.0, rng.uniform(0.1, 0.4, 19)])
        at = np.r_[x[0], rng.uniform(x[0], x[-1], 20), x[-1]]
        scale = np.polyval(np.abs(coef), np.max(np.abs(x)))
        for nu in (0, 1):
            want = np.polyval(np.polyder(coef, nu), at)
            got = _local_poly(x, np.polyval(coef, x), at, nu)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(scale, 1.0)

    def test_window_is_6_nodes_around_the_point(self, grid):
        # a point in the cell [x_j, x_(j+1)] takes x_(j-2)..x_(j+3), the
        # window shifted inward at either end; on a node only the slope
        # tells the windows apart
        x, n = grid.x, grid.n
        v = np.random.default_rng(3).normal(size=n)
        cases = [(x[100] + 0.3 * grid.dx, 98), (x[100], 98), (x[0], 0),
                 (x[1] + 0.1 * grid.dx, 0), (x[3] - 0.5 * grid.dx, 0),
                 (x[3] + 0.5 * grid.dx, 1), (x[-4] + 0.5 * grid.dx, n - 6),
                 (x[-3] + 0.5 * grid.dx, n - 6), (x[-1], n - 6)]
        for p, k in cases:
            poly = BarycentricInterpolator(x[k:k + 6], v[k:k + 6])
            assert _local_poly(x, v, p)[0] == pytest.approx(poly(p),
                                                            abs=1e-13)
            assert _local_poly(x, v, p, nu=1)[0] == pytest.approx(
                poly.derivative(p), rel=1e-12)

    def test_error_falls_with_the_grid(self):
        at = np.random.default_rng(4).uniform(-3.0, 3.0, 2000)

        def err(m):
            x = np.arange(-8 * m, 8 * m) / m
            got = _local_poly(x, np.exp(-x**2) * np.cos(3 * x), at)
            return np.max(np.abs(got - np.exp(-at**2) * np.cos(3 * at)))

        assert err(16) >= 40.0 * err(32)

    def test_shapes_and_short_input(self):
        x = np.arange(6.0)
        assert _local_poly(x, x**5, [0.5, 2.5]) == pytest.approx(
            [0.03125, 97.65625], rel=1e-14)
        assert _local_poly(x, np.zeros((3, 6)), 1.0).shape == (3, 1)
        with pytest.raises(ValueError):
            _local_poly(x[:5], x[:5], 1.0)
