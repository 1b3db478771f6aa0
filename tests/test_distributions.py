import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _loop_bands, brute_shift_ks, composed_target, raw_shift_rows, sort_merge_ecdf

from drci import distributions
from drci.distributions import (
    Dataset,
    ShiftGrid,
    WeightedEcdf,
    _Bands,
    _exact_bands,
    _grid_bands,
    _pick,
    cic_target_cdf,
    d0,
    ecdf,
    ks,
    min_shift_ks,
    shift_grid,
)


class TestEcdf:
    def test_two_equal_atoms(self):
        f = ecdf([1, 2], [0.5, 0.5])
        assert f.cdf(1) == pytest.approx(0.5)
        assert f.cdf(2) == pytest.approx(1.0)

    def test_merge_and_normalize(self):
        f = ecdf([2, 1, 1], [1, 1, 2])
        assert f.atoms.tolist() == [1.0, 2.0]
        assert f.weights.tolist() == pytest.approx([0.75, 0.25])

    def test_point_mass_normalized(self):
        f = ecdf([5], [3])
        assert f.atoms.tolist() == [5.0]
        assert f.weights.tolist() == [1.0]

    def test_right_continuity(self):
        f = ecdf([0.0, 1.0])
        assert f.cdf(1.0) == pytest.approx(1.0)
        assert f.cdf(1.0 - 1e-9) == pytest.approx(0.5)
        assert f.cdf(-5.0) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            ecdf([])
        with pytest.raises(ValueError):
            ecdf([1, 2], [0.5, -0.1])
        with pytest.raises(ValueError):
            ecdf([1, 2], [0.0, 0.0])
        with pytest.raises(ValueError):
            ecdf([1, 2], [0.5])

    @pytest.mark.parametrize("values,weights", [
        ([1.0, math.nan, 2.0], None), ([1.0, math.inf], None), ([1.0, 2.0], [0.5, math.nan]),
        ([1.0, 2.0], [1.0, math.inf])],
        ids=["nan_value", "inf_value", "nan_weight", "inf_weight"])
    def test_rejects_nonfinite_input(self, values, weights):
        with pytest.raises(ValueError, match="must be finite"):
            ecdf(values, weights)

    @pytest.mark.parametrize("atoms,weights", [([0.0, math.inf], [0.5, 0.5]),
                                               ([0.0, 1.0], [math.nan, 0.5])])
    def test_weighted_ecdf_rejects_nonfinite_input(self, atoms, weights):
        with pytest.raises(ValueError, match="must be finite"):
            WeightedEcdf(np.array(atoms), np.array(weights))

    def test_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vals = rng.integers(-3, 4, size=rng.integers(1, 12)).astype(float)
            w = rng.random(vals.size)
            f = ecdf(vals, w)
            assert np.all(np.diff(f.atoms) > 0)
            assert f.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(f.weights > 0)


# special values: signed zeros, subnormals, the extremes of the float range
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, -1.5,
            1e300, -1e300]


def _ecdf_sample(rng, n, kind, pool):
    if kind == "continuous":
        return rng.normal(size=n) * 10.0 ** rng.integers(-300, 300)
    if kind == "one_value":
        return np.full(n, pool[0])
    return rng.choice(np.array(pool + _SPECIAL if kind == "special" else pool), n)


class TestEcdfReference:
    """The one-sort :func:`ecdf` against the sort-and-merge reference,
    bit for bit, with every zero atom +0.0."""

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["ties", "one_value", "special", "continuous"]),
           pool=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=6),
           weighted=st.booleans())
    def test_matches_sort_merge(self, n, seed, kind, pool, weighted):
        rng = np.random.default_rng(seed)
        values = _ecdf_sample(rng, n, kind, pool)
        weights = None
        if weighted:
            weights = rng.random(n) * (rng.random(n) < 0.8)
            weights[rng.integers(n)] = 1.0  # a positive total
        atoms, masses = sort_merge_ecdf(values, weights)
        f = ecdf(values, weights)
        assert f.atoms.tobytes() == (atoms + 0.0).tobytes()
        assert f.weights.tobytes() == masses.tobytes()
        assert not np.signbit(f.atoms[f.atoms == 0]).any()

    @pytest.mark.parametrize("values", [[0.0, -0.0], [-0.0, 0.0], [-0.0], [-0.0, -0.0, 1.0],
                                        [1.0, -0.0, 0.0, -1.0, 0.0]])
    def test_zero_atom_is_positive(self, values):
        for weights in (None, np.arange(1.0, len(values) + 1)):
            f = ecdf(values, weights)
            zero = f.atoms[f.atoms == 0]
            assert zero.size == 1 and not np.signbit(zero[0])


class TestKs:
    def test_identity(self):
        f = ecdf([0, 1, 3], [0.2, 0.3, 0.5])
        assert ks(f, f) == 0.0

    def test_disjoint_point_masses(self):
        assert ks(ecdf([0]), ecdf([1])) == pytest.approx(1.0)

    def test_uniform_vs_point_mass(self):
        assert ks(ecdf([0, 1]), ecdf([0])) == pytest.approx(0.5)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            f = ecdf(rng.normal(size=rng.integers(1, 8)))
            g = ecdf(rng.normal(size=rng.integers(1, 8)))
            d = ks(f, g)
            assert d == pytest.approx(ks(g, f), abs=1e-15)
            assert 0.0 <= d <= 1.0


class TestMinShiftKs:
    def test_identity(self):
        f = ecdf([0.0, 1.0, 2.5])
        grid = shift_grid([0.0, 1.0, 2.5], 4)
        assert min_shift_ks(f, f, grid) == (0.0, 0.0)

    def test_location_family_recovers_shift(self):
        f = ecdf([0.0, 1.0, 2.0])
        g = ecdf([2.0, 3.0, 4.0])  # f's atoms moved up by 2
        grid = shift_grid([0.0, 1.0, 2.0, 3.0, 4.0], 4)  # eps = 1
        dist, shift = min_shift_ks(f, g, grid, mode="exact_atoms")
        assert dist == pytest.approx(0.0, abs=1e-15)
        assert shift == pytest.approx(2.0)

    def test_uniform_pairs(self):
        # shift reported as the displacement of G's atoms above F's
        f = ecdf([0.0, 1.0])
        g = ecdf([2.0, 3.0])
        grid = shift_grid([0.0, 1.0, 2.0, 3.0], 3)  # shifts -3..3 step 1
        dist, shift = min_shift_ks(f, g, grid, mode="exact_atoms")
        assert dist == pytest.approx(0.0, abs=1e-15)
        assert shift == pytest.approx(2.0)

    def test_tie_breaks_toward_zero_shift(self):
        f = ecdf([0.0])
        g = ecdf([-1.0, 1.0])
        grid = shift_grid([-1.0, 1.0], 2)  # shifts -2,-1,0,1,2
        dist, shift = min_shift_ks(f, g, grid, mode="exact_atoms")
        assert dist == pytest.approx(0.5)
        assert shift == 0.0

    def test_grid_mode_below_exact(self):
        # the double-grid evaluation maximizes over fewer points per shift
        rng = np.random.default_rng(2)
        for _ in range(60):
            f = ecdf(rng.normal(0, 1, rng.integers(2, 9)))
            g = ecdf(rng.normal(0.5, 1.2, rng.integers(2, 9)))
            grid = shift_grid(np.concatenate([f.atoms, g.atoms]), 5)
            d_grid, _ = min_shift_ks(f, g, grid, mode="grid")
            d_exact, _ = min_shift_ks(f, g, grid, mode="exact_atoms")
            assert d_grid <= d_exact + 1e-12

    def test_degenerate_grid(self):
        f = ecdf([3.0])
        grid = shift_grid([3.0, 3.0, 3.0], 5)
        assert min_shift_ks(f, f, grid) == (0.0, 0.0)

    def test_unknown_mode(self):
        f = ecdf([0.0, 1.0])
        with pytest.raises(ValueError):
            min_shift_ks(f, f, shift_grid([0.0, 1.0], 1), mode="nope")

    @settings(max_examples=60, deadline=None)
    @given(case=st.data())
    def test_matches_brute_force(self, case):
        # integer levels give ties within and across the samples; a constant
        # grid source gives the degenerate grid
        scale = case.draw(st.sampled_from([1.0, 0.1, 2.5]))
        levels = st.lists(st.integers(-5, 5), min_size=1, max_size=8)
        f_vals = np.array(case.draw(levels)) * scale
        g_vals = np.array(case.draw(levels)) * scale + case.draw(
            st.sampled_from([0.0, 0.37]))
        f_w = case.draw(st.none() | st.lists(
            st.floats(0.05, 5.0), min_size=f_vals.size, max_size=f_vals.size))
        grid_vals = (np.full(2, f_vals[0]) if case.draw(st.booleans())
                     else np.concatenate([f_vals, g_vals]))
        m = case.draw(st.integers(1, 5))
        mode = case.draw(st.sampled_from(["grid", "exact_atoms"]))

        dist, shift = min_shift_ks(ecdf(f_vals, f_w), ecdf(g_vals),
                                   shift_grid(grid_vals, m), mode)
        shifts, dists = brute_shift_ks(f_vals, f_w, g_vals, grid_vals, m, mode)
        assert dist == pytest.approx(dists.min(), abs=1e-12)
        # the reported shift attains the minimum (ties may break either way
        # between distances equal up to rounding)
        assert dists[np.argmin(np.abs(shifts - shift))] <= dists.min() + 1e-12


class TestD0:
    def test_identity(self):
        f = ecdf([0, 2], [0.4, 0.6])
        assert d0(f, f, "gamma_ge_2") == 0.0
        assert d0(f, f, "gamma_lt_2") == 0.0

    def test_point_mass_vs_uniform(self):
        f = ecdf([0])
        g = ecdf([0, 1])
        assert d0(f, g, "gamma_ge_2") == pytest.approx(0.5)
        assert d0(f, g, "gamma_lt_2") == pytest.approx(0.5)

    def test_positive_part_regime(self):
        f = ecdf([0, 1])
        g = ecdf([0])
        # jump differences are -0.5 at 0 and +0.5 at 1
        assert d0(f, g, "gamma_lt_2") == pytest.approx(0.5)

    def test_symmetry_in_metric_regime(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = ecdf(rng.integers(0, 6, rng.integers(1, 6)).astype(float))
            g = ecdf(rng.integers(0, 6, rng.integers(1, 6)).astype(float))
            assert d0(f, g, "gamma_ge_2") == pytest.approx(
                d0(g, f, "gamma_ge_2"), abs=1e-15
            )

    def test_unknown_regime(self):
        f = ecdf([0.0])
        with pytest.raises(ValueError):
            d0(f, f, "gamma_eq_7")


def _random_step_cdf(rng):
    k = rng.integers(1, 7)
    atoms = np.sort(rng.choice(np.arange(10, dtype=float), size=k, replace=False))
    w = rng.random(k) + 0.05
    return ecdf(atoms, w)


class TestD0Axioms:
    def test_axioms_on_random_triples(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            f, g, h = (_random_step_cdf(rng) for _ in range(3))
            for regime in ("gamma_ge_2", "gamma_lt_2"):
                dfg = d0(f, g, regime)
                dgh = d0(g, h, regime)
                dfh = d0(f, h, regime)
                assert dfh <= dfg + dgh + 1e-12
                assert d0(f, f, regime) == 0.0
            if d0(f, g, "gamma_lt_2") == 0.0:
                assert f.atoms.tolist() == g.atoms.tolist()
                assert f.weights.tolist() == pytest.approx(g.weights.tolist())


class TestCicTargetCdf:
    def test_identity_transport(self):
        f_b = ecdf([1.0, 5.0, 9.0])
        f_00 = ecdf([2.0, 4.0, 7.0])
        out = cic_target_cdf(f_b, f_b, f_00)
        assert out.atoms.tolist() == f_00.atoms.tolist()
        assert out.weights.tolist() == pytest.approx(f_00.weights.tolist())

    def test_quantile_shift_preserves_masses(self):
        # baseline treated sits one unit below baseline control at every
        # quantile level, so levels map straight through
        f_b0 = ecdf([0.0, 5.0, 9.0])
        f_b1 = ecdf([-1.0, 4.0, 8.0])
        f_00 = ecdf([2.0, 4.0, 7.0])
        out = cic_target_cdf(f_b1, f_b0, f_00)
        assert out.atoms.tolist() == [2.0, 4.0, 7.0]
        assert out.weights.tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_point_mass_input(self):
        f_b0 = ecdf([0.0, 1.0])
        f_b1 = ecdf([-1.0, 0.5])
        out = cic_target_cdf(f_b1, f_b0, ecdf([7.0]))
        assert out.atoms.tolist() == [7.0]
        assert out.weights.tolist() == [1.0]

    def test_degenerate_composition_rejected(self):
        # baseline treated support sits entirely above baseline control
        f_b0 = ecdf([0.0, 1.0])
        f_b1 = ecdf([10.0, 11.0])
        with pytest.raises(ValueError):
            cic_target_cdf(f_b1, f_b0, ecdf([7.0]))


class TestCicTargetReference:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.tuples(*[st.integers(1, 60)] * 3),
           ties=st.booleans(), offset=st.floats(-3.0, 3.0))
    def test_matches_ecdf_of_masses(self, seed, sizes, ties, offset):
        # the former ending: ecdf of F_00's atoms weighted by the masses
        rng = np.random.default_rng(seed)
        draw = (lambda k: rng.integers(-4, 5, k) * 0.5) if ties else \
            (lambda k: rng.normal(size=k))
        f_b1, f_b0, f_00 = (ecdf(draw(k) + shift) for k, shift in zip(sizes, (offset, 0, 0)))
        expected = composed_target(f_b1, f_b0, f_00)
        if expected is None:
            with pytest.raises(ValueError, match="degenerate composition"):
                cic_target_cdf(f_b1, f_b0, f_00)
            return
        out = cic_target_cdf(f_b1, f_b0, f_00)
        assert out.atoms.tobytes() == expected[0].tobytes()
        assert out.weights.tobytes() == expected[1].tobytes()


def _oracle_grid_bands(y0, y1, m):
    """Grid-mode bands from the oracle's unconsolidated KS rows at delta 0:
    a point's column is the number of distinct controls at or below it, and
    each shift's band at a column spans the treated CDF values its points
    are compared with."""
    pooled = np.concatenate([y0, y1])
    anchor, span = pooled.min(), pooled.max() - pooled.min()
    ts = np.sort(y1)
    tc = np.arange(ts.size + 1) / ts.size
    n_points = 2 * m + 1
    rows = [raw_shift_rows(y0, ts, tc, anchor, -span, span / m, m, j, 0.0, "grid", None)
            for j in range(n_points)]
    # the points, hence their columns, are the same for every shift
    point_cols = [np.unique(y0[row == 1]).size for row in rows[0][0][:n_points]]
    cols = sorted(set(point_cols) | {0, np.unique(y0).size})
    top = np.full((n_points, len(cols)), -np.inf)
    bottom = np.full_like(top, np.inf)
    for j, (_, b) in enumerate(rows):
        for col, value in zip(point_cols, b[:n_points]):
            q = cols.index(col)
            top[j, q], bottom[j, q] = max(top[j, q], value), min(bottom[j, q], value)
    return np.array(cols), top, bottom


def _band_samples():
    """(name, controls, treated): tied and earnings-like outcomes, with the
    pooled minimum among the controls (no point below the first atom, so
    column 0 is unhit) or among the treated only."""
    rng = np.random.default_rng(70)
    tied = (rng.integers(0, 6, 30) * 0.5, rng.integers(1, 8, 20) * 0.5)
    zero = rng.random(160) < 0.3
    raw = np.round(np.exp(rng.normal(9.6, 0.75, 160)) / 100.0) * 100.0
    earnings = np.where(zero, 0.0, raw)
    return [("tied_control_min", *tied), ("tied_treated_min", tied[0], tied[1] - 1.0),
            ("earnings_control_min", earnings[:100], earnings[100:] + 100.0),
            ("earnings_treated_min", earnings[:100] + 100.0, earnings[100:])]


def _one_row_grid_bands(atoms, target, grid):
    """The grid-mode bands of one sample, its columns as one row."""
    ((_, bands),) = _grid_bands(np.array([grid.anchor]), np.array([-grid.c0]), grid.m,
                                lambda points: np.searchsorted(atoms, points, side="right"),
                                target.cdf)
    return _Bands(bands.cols[0], bands.top, bands.bottom)


class TestGridBands:
    @pytest.mark.parametrize("m", [1, 3, 50, 200])
    @pytest.mark.parametrize("name,y0,y1", _band_samples(),
                             ids=[name for name, *_ in _band_samples()])
    def test_bands_match_the_raw_rows(self, name, y0, y1, m):
        cols, top, bottom = _oracle_grid_bands(y0, y1, m)
        got = _one_row_grid_bands(np.unique(y0), ecdf(y1),
                                  shift_grid(np.concatenate([y0, y1]), m))
        np.testing.assert_array_equal(got.cols, cols)
        np.testing.assert_allclose(got.top, top, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.bottom, bottom, rtol=0, atol=1e-12)
        # the last point lies past every outcome, so column K is always hit;
        # column 0 is hit only when a treated outcome is the smallest
        assert np.isfinite(top[:, -1]).all()
        assert np.isneginf(top[:, 0]).all() == name.endswith("control_min")


def _oracle_exact_bands(y0, y1, shifts):
    """Exact-KS bands from the oracle's unconsolidated KS rows at delta 0:
    a point's column is the number of distinct controls at or below it, and
    each shift's band at a column spans the treated CDF values its points
    are compared with."""
    ts = np.sort(y1)
    tc = np.arange(ts.size + 1) / ts.size
    k = np.unique(y0).size
    top = np.full((shifts.size, k + 1), -np.inf)
    bottom = np.full_like(top, np.inf)
    for j, c in enumerate(shifts):
        a, b = raw_shift_rows(y0, ts, tc, 0.0, 0.0, 0.0, 1, j, 0.0, "exact_atoms", c)
        n_points = a.shape[0] // 2
        for row, value in zip(a[:n_points], b[:n_points]):
            col = np.unique(y0[row == 1]).size
            top[j, col], bottom[j, col] = max(top[j, col], value), min(bottom[j, col], value)
    return top, bottom


def _exact_rows():
    """(controls, treated, shifts) of a ragged block: tied outcomes, both
    signed zeros on both arms, continuous outcomes and a degenerate row
    (one value in both arms).  The 9 shifts of each row are grid shifts,
    differences of a treated and a control value (where a treated point
    lands on a control atom) and uniform draws."""
    rng = np.random.default_rng(71)
    rows = [(rng.integers(0, 6, 30) * 0.5, rng.integers(1, 8, 20) * 0.5),
            (rng.choice([-0.0, 0.0, 1.0, -1.5, 2.0], 25), rng.choice([0.0, -0.0, 0.5, 2.5], 15)),
            (rng.normal(0, 1, 40), rng.normal(0.5, 1.5, 12)),
            (np.full(4, 3.0), np.full(3, 3.0))]
    out = []
    for y0, y1 in rows:
        span = max(np.ptp(np.concatenate([y0, y1])), 1.0)
        shifts = np.concatenate([
            shift_grid([-span / 2, span / 2], 1).shifts,
            rng.choice(y1, 3) - rng.choice(y0, 3), rng.uniform(-span, span, 3)])
        out.append((y0, y1, shifts))
    return out


def _padded(rows):
    """The rows as one array padded on the right with each row's last entry."""
    width = max(r.size for r in rows)
    return np.stack([np.concatenate([r, np.full(width - r.size, r[-1])]) for r in rows])


def _block_exact_bands(rows):
    """:func:`_exact_bands` of the block ``rows`` of (controls, treated,
    shifts), with the treated atoms as :func:`numpy.unique` sorts them
    (whichever zero comes first) and one search per row."""
    atoms = [np.unique(y0) for y0, _, _ in rows]
    targets = [ecdf(y1) for _, y1, _ in rows]

    def count(points):
        return np.stack([np.searchsorted(a, p, side="right") for a, p in zip(atoms, points)])

    def cdf(points):
        return np.stack([f.cdf(p) for f, p in zip(targets, points)])

    return _exact_bands(_padded(atoms), np.array([a.size for a in atoms]),
                        np.stack([s for _, _, s in rows]),
                        _padded([np.unique(y1) for _, y1, _ in rows]), count, cdf)


class TestExactBands:
    """The row-wise exact-KS builder against the shift-by-shift loop, bit
    for bit, and against the oracle's raw KS rows."""

    @pytest.mark.parametrize("block", [None, 7], ids=["one_block", "small_blocks"])
    @pytest.mark.parametrize("rows", [[r] for r in _exact_rows()] + [_exact_rows()],
                             ids=["tied", "signed_zeros", "normal", "degenerate", "block"])
    def test_bands_match_the_shift_loop(self, rows, block, monkeypatch):
        if block is not None:  # many blocks of shifts, some splitting a row
            monkeypatch.setattr(distributions, "_BLOCK", block)
        seen = []
        for members, bands in _block_exact_bands(rows):
            size = bands.cols.shape[1]
            for place, i in enumerate(members.tolist()):
                y0, y1, shifts = rows[i]
                want = _loop_bands(np.unique(y0), ecdf(y1), ShiftGrid(0.0, 0.0, 1, 0.0, shifts),
                                   "exact_atoms")
                got = slice(place * shifts.size, (place + 1) * shifts.size)
                np.testing.assert_array_equal(bands.cols[place], want.cols, strict=True)
                np.testing.assert_array_equal(bands.top[got], want.top, strict=True)
                np.testing.assert_array_equal(bands.bottom[got], want.bottom, strict=True)
                assert size == want.cols.size
                seen.append(i)
        assert sorted(seen) == list(range(len(rows)))

    @pytest.mark.parametrize("name,y0,y1", _band_samples(),
                             ids=[name for name, *_ in _band_samples()])
    def test_bands_match_the_raw_rows(self, name, y0, y1):
        grid = shift_grid(np.concatenate([y0, y1]), 7)
        shifts = np.concatenate([grid.shifts, y1[:5] - y0[:5]])
        ((_, bands),) = _block_exact_bands([(y0, y1, shifts)])
        top, bottom = _oracle_exact_bands(y0, y1, shifts)
        np.testing.assert_allclose(bands.top, top, rtol=0, atol=1e-12)
        np.testing.assert_allclose(bands.bottom, bottom, rtol=0, atol=1e-12)


def _loop_pick(values, group, rank, maximize, tol):
    picks = []
    for label in sorted(set(group.tolist())):
        members = [i for i in range(values.size) if group[i] == label]
        best = (max if maximize else min)(values[i] for i in members)
        tied = [i for i in members if abs(values[i] - best) <= tol]
        picks.append(min(tied, key=lambda i: rank[i]))
    return picks


class TestPick:
    @pytest.mark.parametrize("maximize", [True, False])
    @pytest.mark.parametrize("scale,tol", [(1.0, 0.0), (1.0, 1e-12), (1e4, 1e-12 * 1e4)],
                             ids=["exact", "absolute", "scaled"])
    def test_matches_a_loop(self, maximize, scale, tol):
        rng = np.random.default_rng(71)
        sizes = rng.integers(1, 12, 300)  # many groups of uneven size
        group = np.repeat(np.cumsum(rng.integers(1, 4, sizes.size)), sizes)
        best = np.repeat(rng.normal(0.0, scale, sizes.size), sizes)
        # exact ties, ties well inside and just inside tol, just outside, far
        gaps = np.array([0.0, 0.5, 0.999, 1.001, 2.0]) * tol
        gaps = np.concatenate([gaps, [np.spacing(scale), 0.1 * scale]])
        gap = rng.choice(gaps, group.size)
        gap[np.cumsum(sizes) - sizes] = 0.0  # each group attains its best
        values = best - gap if maximize else best + gap
        rank = np.concatenate([rng.permutation(k) for k in sizes])
        want = _loop_pick(values, group, rank, maximize, tol)
        got = _pick(values, group, rank, maximize, tol)
        assert got.tolist() == want
        # some picks are ties decided by rank, and some lower ranks lose by
        # lying just outside tol
        assert (values[got] != best[got]).any() == (tol > 0)
        outside = np.abs(values - best) > tol
        assert any((outside & (group == group[i]) & (rank < rank[i])).any() for i in got)

    def test_one_group(self):
        values = np.array([3.0, 5.0, 5.0 - 1e-13, 4.0])
        rank = np.array([0, 2, 1, 3])
        assert _pick(values, np.zeros(4, dtype=np.intp), rank, True, 1e-12).tolist() == [2]
        assert _pick(values, np.zeros(4, dtype=np.intp), rank, True, 0.0).tolist() == [1]
        assert _pick(values, np.zeros(4, dtype=np.intp), rank, False, 1e-12).tolist() == [0]


class TestShiftGrid:
    def test_arithmetic(self):
        grid = shift_grid([0.0, 10.0], 5)
        assert grid.epsilon == pytest.approx(2.0)
        assert grid.shifts.tolist() == pytest.approx(
            [-10, -8, -6, -4, -2, 0, 2, 4, 6, 8, 10]
        )

    def test_degenerate(self):
        grid = shift_grid([3.0, 3.0, 3.0], 4)
        assert grid.shifts.tolist() == [0.0]
        assert grid.degenerate

    def test_three_point(self):
        grid = shift_grid([0.0, 1.0], 1)
        assert grid.shifts.tolist() == pytest.approx([-1.0, 0.0, 1.0])

    def test_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            vals = rng.normal(size=rng.integers(2, 20))
            m = int(rng.integers(1, 9))
            grid = shift_grid(vals, m)
            assert grid.shifts.size == 2 * m + 1
            assert grid.shifts[m] == 0.0
            assert grid.shifts.tolist() == pytest.approx(
                (-grid.shifts[::-1]).tolist(), abs=1e-9
            )
            assert grid.anchor == vals.min()

    def test_errors(self):
        with pytest.raises(ValueError):
            shift_grid([1.0], 3)
        with pytest.raises(ValueError):
            shift_grid([0.0, 1.0], 0)
        with pytest.raises(ValueError, match="^m must be a positive integer$"):
            shift_grid([0.0, 1.0], 2.5)

    def test_overflowing_range_is_refused(self):
        with pytest.raises(ValueError, match="overflow"):
            shift_grid([-1e308, 0.0, 1e308], 3)

    @pytest.mark.parametrize("values,m", [([0.0, 10.0], 5), ([3.0, 3.0, 3.0], 4),
                                          ([-7.3, -1.2, 0.4], 6)],
                             ids=["regular", "degenerate", "negative_anchor"])
    def test_rank_is_the_tie_order(self, values, m):
        # the place of each shift in the order smallest |c| first, then c
        grid = shift_grid(values, m)
        c = grid.shifts
        want = np.empty(c.size, dtype=np.intp)
        want[np.lexsort((c, np.abs(c)))] = np.arange(c.size)
        np.testing.assert_array_equal(grid.rank, want, strict=True)
        assert grid.rank[c == 0.0].tolist() == [0]


class TestDataset:
    def test_counts(self):
        d = Dataset(y=[0, 1, 2, 3], t=[0, 0, 1, 1])
        assert (d.n, d.n1, d.n0) == (4, 2, 2)
        assert d.control_y.tolist() == [0.0, 1.0]

    def test_strata(self):
        d = Dataset(y=[0, 1, 2, 3], t=[0, 0, 1, 1], z=[0, 1, 0, 1])
        props = d.stratum_proportions()
        assert sum(props.values()) == pytest.approx(1.0)
        assert d.stratum_indices(1, 0).tolist() == [2]

    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(y=[0, 1], t=[0, 2])
        with pytest.raises(ValueError):
            Dataset(y=[0, 1], t=[1, 1])
        with pytest.raises(ValueError):
            Dataset(y=[0, 1, 2], t=[0, 1], )
        with pytest.raises(ValueError):
            Dataset(y=[0, 1], t=[0, 1], x=[[1.0], [2.0], [3.0]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_covariates(self, bad):
        with pytest.raises(ValueError, match="covariates must be finite"):
            Dataset(y=[0, 1, 2], t=[0, 1, 1], x=[[1.0], [bad], [3.0]])

    def test_swap_arms(self):
        d = Dataset(y=[0, 1, 2], t=[0, 1, 1])
        s = d.swap_arms()
        assert s.control_y.tolist() == [1.0, 2.0]
        assert s.n1 == 1

    def test_arm_views_built_once(self):
        d = Dataset(y=[0, 1, 2, 3], t=[0, 1, 1, 0])
        for name in ("treated_y", "control_y", "control_indices"):
            assert getattr(d, name) is getattr(d, name)

    def test_arm_views_read_only(self):
        y = np.array([0.0, 1.0, 2.0, 3.0])
        d = Dataset(y=y, t=[0, 1, 1, 0])
        for view in (d.treated_y, d.control_y, d.control_indices, d.y, d.t):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 7
        # the dataset keeps its own copy, so the views cannot go stale
        y[0] = 9.0
        assert d.y.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert d.control_y.tolist() == [0.0, 3.0]

    def test_swap_arms_gets_fresh_views(self):
        d = Dataset(y=[0, 1, 2, 3], t=[0, 1, 1, 0])
        before = (d.treated_y, d.control_y, d.control_indices)
        s = d.swap_arms()
        assert s.treated_y.tolist() == [0.0, 3.0]
        assert s.control_y.tolist() == [1.0, 2.0]
        assert s.control_indices.tolist() == [1, 2]
        assert all(a is not b for a, b in
                   zip(before, (s.treated_y, s.control_y, s.control_indices)))
