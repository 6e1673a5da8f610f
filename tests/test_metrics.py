import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pdscore import (
    DimensionMismatch,
    DistanceKind,
    DistanceSpec,
    EffectMatrix,
    ZeroSignVector,
    ZeroVector,
    compute_pds,
    convergence_threshold_l1,
    distance,
    pairwise_to_rows,
    sign_project,
    spec_from_token,
)
from pdscore.discrimination import rank_at_scales
from pdscore.effects import target_columns
from pdscore.errors import BadParameter
from pdscore.metrics import Screen, _measured

from helpers import pair_from
from oracles import dist_l1, dist_l2

COSINE = DistanceSpec(DistanceKind.COSINE_DISSIM)
SIGN_COSINE = DistanceSpec(DistanceKind.SIGN_COSINE_DISSIM)

METRIC_SPECS = [
    DistanceSpec(DistanceKind.L1),
    DistanceSpec(DistanceKind.L2),
    DistanceSpec(DistanceKind.COSINE_DISSIM),
    DistanceSpec(DistanceKind.SIGN_COSINE_DISSIM),
]


def screen(spec, pred, truth, columns, c=1.0):
    """Screen's bounds for the rows fl(c pred), with products formed from pred."""
    rows, masked = np.array(pred, dtype=float), np.flatnonzero(columns >= 0)
    rows[masked, columns[masked]] = 0.0
    bounds, scaled = Screen(spec, truth), rows * c
    return bounds.bounds(bounds.cross(rows), scaled, columns, c)


def _layouts(rng, n, p):
    """An n x p matrix with 20% zero cells in the row layouts pairwise_to_rows can meet."""
    full = rng.standard_normal((n, p))
    full[rng.random(full.shape) < 0.2] = 0.0
    return {
        "C": full,
        "column mask (F-ordered copy)": full[:, np.arange(p) != 5],
        "Fortran": np.asfortranarray(full),
        "strided rows": full[::2],
        "reversed columns": full[:, ::-1],
    }


def vec_pairs(min_dim=2, max_dim=24):
    elements = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return st.integers(min_dim, max_dim).flatmap(
        lambda n: st.tuples(
            st.lists(elements, min_size=n, max_size=n),
            st.lists(elements, min_size=n, max_size=n),
        )
    )


def _usable(spec, a, b):
    if spec.kind in (DistanceKind.COSINE_DISSIM, DistanceKind.SIGN_COSINE_DISSIM):
        return np.linalg.norm(a) > 1e-6 and np.linalg.norm(b) > 1e-6
    return True


class TestHandValues:
    def test_l1(self):
        assert dist_l1([3, 4], [1, 0]) == 6.0
        assert dist_l1([2.5, -1.0, 0.0], [2.5, -1.0, 0.0]) == 0.0
        assert dist_l1([1, -1], [-1, 1]) == 4.0

    def test_l2(self):
        assert dist_l2([3, 4], [1, 0]) == pytest.approx(math.sqrt(20), rel=1e-12)
        assert dist_l2([0.3, 0.7], [0.3, 0.7]) == 0.0
        assert dist_l2([0, 0], [3, 4]) == 5.0

    def test_cosine(self):
        assert 1.0 - distance(COSINE, [3, 4], [1, 0]) == pytest.approx(0.6, rel=1e-12)
        assert 1.0 - distance(COSINE, [2, -5], [2, -5]) == pytest.approx(1.0, rel=1e-12)
        assert distance(COSINE, [1, 0], [0, 1]) == 1.0

    def test_sign_vector(self):
        """Both sign kinds take |x| <= threshold as sign 0."""
        sign_cosine = DistanceSpec(DistanceKind.SIGN_COSINE_DISSIM, 0.1)
        assert 1.0 - distance(sign_cosine, [0.05, -0.2], [1.0, -1.0]) == pytest.approx(
            1 / math.sqrt(2), rel=1e-12
        )
        l1_limit = DistanceSpec(DistanceKind.L1_LIMIT, 0.1)
        assert distance(l1_limit, [0.05, -0.2, 0.1], [3.0, -2.0, -5.0]) == 3.0 - 2.0 + 5.0

    def test_sign_cosine(self):
        assert 1.0 - distance(SIGN_COSINE, [3, 4], [1, 0]) == pytest.approx(
            1 / math.sqrt(2), rel=1e-12
        )
        assert distance(SIGN_COSINE, [3, -4, 1], [3, -4, 1]) == pytest.approx(0.0, abs=1e-12)
        assert distance(SIGN_COSINE, [1, 1], [-1, -1]) == 2.0

    def test_dispatch(self):
        assert distance(DistanceSpec(DistanceKind.L1), [3, 4], [1, 0]) == 6.0
        assert distance(DistanceSpec(DistanceKind.COSINE_DISSIM), [3, 4], [1, 0]) == pytest.approx(
            0.4, rel=1e-12
        )
        assert distance(
            DistanceSpec(DistanceKind.SIGN_COSINE_DISSIM), [3, 4], [1, 0]
        ) == pytest.approx(1 - 1 / math.sqrt(2), rel=1e-12)
        assert distance(DistanceSpec(DistanceKind.L2_LIMIT), [1, 0], [1, 1]) == -1.0

    def test_l1_limit_scores_via_dispatch(self):
        spec = DistanceSpec(DistanceKind.L1_LIMIT)
        assert distance(spec, [1, 0], [1, 5]) == 4.0
        assert distance(spec, [1, 0], [-1, 0]) == 1.0


class TestErrors:
    def test_dimension_mismatch(self):
        measures = [dist_l1, dist_l2] + [
            lambda a, b, spec=spec: distance(spec, a, b) for spec in METRIC_SPECS
        ]
        for fn in measures:
            for a, b in (([1, 2, 3], [1, 2]), ([], []), ([[1, 2]], [[1, 2]])):
                with pytest.raises(DimensionMismatch):
                    fn(a, b)

    def test_zero_vector_cosine(self):
        with pytest.raises(ZeroVector):
            distance(COSINE, [0, 0], [1, 2])
        with pytest.raises(ZeroVector):
            distance(COSINE, [1, 2], [0, 0])

    def test_zero_sign_vector(self):
        with pytest.raises(ZeroSignVector):
            distance(SIGN_COSINE, [0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ZeroSignVector):
            distance(DistanceSpec(DistanceKind.SIGN_COSINE_DISSIM, 0.1), [0.05, -0.05], [1.0, 2.0])

    def test_non_finite_sign_threshold(self):
        matrix = EffectMatrix([[1.0, -2.0]], ["P0"], ["g1", "g2"])
        for threshold in (math.nan, math.inf):
            with pytest.raises(BadParameter, match="must be finite and >= 0"):
                sign_project(matrix, threshold)
            with pytest.raises(BadParameter, match="must be finite and >= 0"):
                DistanceSpec(DistanceKind.SIGN_COSINE_DISSIM, threshold)

    def test_bad_spec_parameters(self):
        with pytest.raises(BadParameter):
            DistanceSpec(DistanceKind.SIGN_COSINE_DISSIM, sign_threshold=-1.0)
        with pytest.raises(BadParameter):
            spec_from_token("chebyshev")

    def test_pairwise_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            pairwise_to_rows(DistanceSpec(DistanceKind.L1), [1.0, 2.0], np.ones((3, 3)))
        with pytest.raises(DimensionMismatch):
            pairwise_to_rows(DistanceSpec(DistanceKind.L1), np.ones((2, 3)), np.ones((3, 3)))

    def test_undefined_rows_are_marked(self):
        """_measured marks the undefined rows, NaN in their values and every other row's
        measure in the rest; pairwise_to_rows raises for them."""
        a = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0], [1e-170, 0.0]])
        rows = np.array([[2.0, 1.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        for kind, error in (
            (DistanceKind.COSINE_DISSIM, ZeroVector),
            (DistanceKind.SIGN_COSINE_DISSIM, ZeroSignVector),
        ):
            spec = DistanceSpec(kind)
            values, undefined = _measured(spec, a, rows)
            # 1e-170 squares to 0, so its cosine is undefined, not its sign cosine
            want = [False, True, True, kind is DistanceKind.COSINE_DISSIM]
            assert undefined.tolist() == want
            assert np.isnan(values[want]).all()
            for i in np.flatnonzero(~undefined):
                assert values[i] == distance(spec, a[i], rows[i])
            with pytest.raises(error):
                pairwise_to_rows(spec, a, rows)
            with pytest.raises(error):
                pairwise_to_rows(spec, a[0], rows)
        for kind in (DistanceKind.L1, DistanceKind.L2, DistanceKind.L2_LIMIT, DistanceKind.L1_LIMIT):
            values, undefined = _measured(DistanceSpec(kind), a, rows)
            assert not undefined.any()
            assert np.array_equal(values, pairwise_to_rows(DistanceSpec(kind), a, rows))


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(vec_pairs())
    def test_symmetry(self, ab):
        a, b = map(np.asarray, ab)
        for spec in METRIC_SPECS + [DistanceSpec(DistanceKind.L2_LIMIT)]:
            if not _usable(spec, a, b):
                continue
            assert distance(spec, a, b) == distance(spec, b, a)

    @settings(max_examples=150, deadline=None)
    @given(vec_pairs())
    def test_nonnegative_and_self_distance(self, ab):
        a, _ = map(np.asarray, ab)
        for spec in METRIC_SPECS:
            if not _usable(spec, a, a):
                continue
            assert abs(distance(spec, a, a)) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(vec_pairs())
    def test_nonnegativity(self, ab):
        a, b = map(np.asarray, ab)
        for spec in METRIC_SPECS:
            if not _usable(spec, a, b):
                continue
            # cosine kinds can dip below 0 only by roundoff on collinear inputs
            assert distance(spec, a, b) >= -1e-12

    @settings(max_examples=100, deadline=None)
    @given(vec_pairs(), st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=24, max_size=24))
    def test_triangle_inequality(self, ab, c_raw):
        a, b = map(np.asarray, ab)
        c = np.asarray(c_raw[: a.shape[0]])
        for spec in METRIC_SPECS[:2]:
            lhs = distance(spec, a, c)
            rhs = distance(spec, a, b) + distance(spec, b, c)
            assert lhs <= rhs + 1e-9 * (1.0 + rhs)

    @settings(max_examples=100, deadline=None)
    @given(vec_pairs(), st.floats(1e-4, 1e4))
    def test_cosine_scale_invariance(self, ab, c):
        a, b = map(np.asarray, ab)
        if not _usable(DistanceSpec(DistanceKind.COSINE_DISSIM), a, b):
            return
        assert distance(COSINE, c * a, b) == pytest.approx(
            distance(COSINE, a, b), rel=1e-12, abs=1e-12
        )

    @settings(max_examples=100, deadline=None)
    @given(vec_pairs())
    def test_sign_cosine_invariant_under_sign_preserving_maps(self, ab):
        a, b = map(np.asarray, ab)
        if np.all(a == 0) or np.all(b == 0):
            return
        rng = np.random.default_rng(0)
        factors = rng.uniform(0.5, 2.0, a.shape[0])
        assert distance(SIGN_COSINE, factors * a, b) == distance(SIGN_COSINE, a, b)
        assert distance(SIGN_COSINE, a, factors * b) == distance(SIGN_COSINE, a, b)

    @settings(max_examples=150, deadline=None)
    @given(vec_pairs())
    def test_squared_norm_expansion_identity(self, ab):
        a, b = map(np.asarray, ab)
        lhs = dist_l2(a, b) ** 2
        rhs = float(a @ a) + float(b @ b) - 2.0 * float(a @ b)
        scale = float(a @ a) + float(b @ b) + 1.0
        assert abs(lhs - rhs) <= 1e-10 * scale

    def test_batch_matches_scalar_bitwise(self):
        """Every layout sums each row pairwise, as distance() sums one contiguous row,
        and so does the paired form.

        At p = 400 numpy's blocked pairwise sum runs, so a sequential order would differ.
        """
        rng = np.random.default_rng(5)
        for name, rows in _layouts(rng, 30, 400).items():
            a = rng.standard_normal(rows.shape[1])
            a[:3] = 0.0
            for kind in DistanceKind:
                spec = DistanceSpec(kind)
                batch = pairwise_to_rows(spec, a, rows)
                paired = pairwise_to_rows(spec, np.tile(a, (len(rows), 1)), rows)
                singles = [distance(spec, a, np.ascontiguousarray(row)) for row in rows]
                assert batch.tobytes() == np.array(singles).tobytes(), (name, kind.value)
                assert paired.tobytes() == batch.tobytes(), (name, kind.value)


def _fresh_temporaries(spec, a, rows):
    """pairwise_to_rows as plain numpy expressions, each term in a new array."""
    kind = spec.kind
    if kind is DistanceKind.L1:
        return np.abs(rows - a).sum(axis=1)
    if kind is DistanceKind.L2:
        return np.sqrt(((rows - a) ** 2).sum(axis=1))
    if kind is DistanceKind.COSINE_DISSIM:
        rn = np.sqrt((rows * rows).sum(axis=1))
        return 1.0 - (rows * a).sum(axis=1) / (rn * float(np.sqrt((a * a).sum())))
    if kind is DistanceKind.SIGN_COSINE_DISSIM:
        sa, sr = np.sign(a), np.sign(rows)
        nnz_r = (sr != 0.0).sum(axis=1).astype(np.float64)
        return 1.0 - (sr * sa).sum(axis=1) / np.sqrt(float((sa != 0.0).sum()) * nnz_r)
    if kind is DistanceKind.L2_LIMIT:
        return -(rows * a).sum(axis=1)
    sa = np.sign(a)
    return np.where(sa == 0.0, np.abs(rows), -(rows * sa)).sum(axis=1)


class TestScratch:
    """pairwise_to_rows writes its elementwise terms into one fresh array per call."""

    SPECS = [DistanceSpec(kind) for kind in DistanceKind]

    def test_bitwise_equal_to_fresh_temporaries_in_every_layout(self):
        rng = np.random.default_rng(11)
        for name, rows in _layouts(rng, 17, 40).items():
            a = rng.standard_normal(rows.shape[1])
            a[:3] = 0.0
            for spec in self.SPECS:
                got = pairwise_to_rows(spec, a, rows)
                want = _fresh_temporaries(spec, a, np.ascontiguousarray(rows))
                assert got.tobytes() == want.tobytes(), (name, spec.token)

    @pytest.mark.parametrize(
        "kind", [DistanceKind.L1, DistanceKind.SIGN_COSINE_DISSIM, DistanceKind.L1_LIMIT]
    )
    def test_compute_pds_holds_no_memory_after_the_call(self, kind):
        """In a new thread, so memory a thread keeps between calls would show."""
        import threading
        import tracemalloc

        rng = np.random.default_rng(12)
        pair = pair_from(rng.standard_normal((400, 2000)), rng.standard_normal((400, 2000)))

        def run():
            tracemalloc.start()
            try:
                compute_pds(pair, DistanceSpec(kind))
                held.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()

        held = []
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert held[0] < 1e6  # 400 x 2000 values take 6.4 MB

    def test_undecided_pairs_are_measured_in_bounded_chunks(self):
        """An l1 input where no candidate is settled by the screen, masked or not.

        Zero predictions with permuted truth rows leave every l1 lower bound just
        below every own distance, so all n (n - 1) pairs are measured; gathered
        at once, their rows would take about 2 n times the truth's size.
        """
        import tracemalloc

        rng = np.random.default_rng(13)
        n, p = 40, 2000
        base = rng.standard_normal(p)
        truth = np.array([rng.permutation(base) for _ in range(n)])
        pair = pair_from(np.zeros((n, p)), truth, {f"P{i:04d}": f"G{i:04d}" for i in range(n)})
        spec = DistanceSpec(DistanceKind.L1)
        lo, _ = screen(spec, pair.predicted.values, truth, np.full(n, -1))
        assert np.all(lo < np.abs(truth).sum(axis=1)[:, None])
        for mask in (False, True):
            compute_pds(pair, spec, mask)
            tracemalloc.start()
            try:
                compute_pds(pair, spec, mask)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * truth.nbytes, mask


class TestScreen:
    """metrics.Screen bounds what pairwise_to_rows returns, masked or not, at any scale."""

    SCREENED = list(DistanceKind)
    TWO_SIDED = [kind for kind in DistanceKind if kind is not DistanceKind.L1]

    @staticmethod
    def _kernel(spec, a, rows):
        try:
            with np.errstate(all="ignore"):  # values past 1e154 overflow to inf
                return pairwise_to_rows(spec, a, rows)
        except ZeroVector:  # undefined cosine: screen leaves those entries NaN
            return None

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(-170, 160),
        st.integers(-170, 160),
        st.booleans(),
        st.sampled_from([0.0, 0.5]),
    )
    def test_bounds_contain_the_kernel_values(self, seed, pred_exp, truth_exp, masked, threshold):
        rng = np.random.default_rng(seed)
        pred = rng.standard_normal((6, 9)) * 10.0**pred_exp
        pred[rng.random(pred.shape) < 0.3] = 0.0
        truth = rng.standard_normal((6, 9)) * 10.0**truth_exp
        truth[4] = truth[2]
        for kind in self.SCREENED:
            spec = DistanceSpec(kind, threshold * 10.0**pred_exp)
            columns = rng.integers(-1, 9, size=6) if masked else np.full(6, -1)
            lo, hi = screen(spec, pred, truth, columns)
            if kind is DistanceKind.SIGN_COSINE_DISSIM:
                assert lo is hi
            for i in range(6):
                keep = np.arange(9) != columns[i]
                values = self._kernel(spec, pred[i][keep], truth[:, keep])
                if values is None:
                    continue
                known = ~np.isnan(lo[i])
                if kind is DistanceKind.SIGN_COSINE_DISSIM:
                    assert lo[i][known].tobytes() == values[known].tobytes()
                else:
                    assert np.all(lo[i][known] <= values[known]), kind.value
                    assert np.all(values[known] <= hi[i][known]), kind.value

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(-170, 160),
        st.integers(-170, 160),
        st.integers(-170, 160),
        st.booleans(),
        st.sampled_from([0.0, 0.5]),
    )
    @example(1, -160, 0, -170, False, 0.0)  # scaled coordinates underflow: signs formed again
    @example(2, 0, 0, 3, True, 0.5)  # t = 0.5 c: signs formed again from the scaled rows
    @example(3, -170, 0, 160, True, 0.0)  # rows safe only once scaled: NaN bounds
    @example(4, 160, 150, -160, False, 0.0)  # products that overflow at c = 1
    def test_bounds_contain_the_kernel_values_at_swept_scales(
        self, seed, pred_exp, truth_exp, scale_exp, masked, threshold
    ):
        """Bounds for fl(c a) from the products of a; t = 0 or 0.5 c."""
        rng = np.random.default_rng(seed)
        pred = rng.standard_normal((6, 9)) * 10.0**pred_exp
        pred[rng.random(pred.shape) < 0.3] = 0.0
        truth = rng.standard_normal((6, 9)) * 10.0**truth_exp
        truth[4] = truth[2]
        c = 10.0**scale_exp
        with np.errstate(over="ignore"):
            assume(np.isfinite(pred * c).all())
        for kind in self.SCREENED:
            spec = DistanceSpec(kind, threshold * c)
            columns = rng.integers(-1, 9, size=6) if masked else np.full(6, -1)
            lo, hi = screen(spec, pred, truth, columns, c)
            for i in range(6):
                keep = np.arange(9) != columns[i]
                values = self._kernel(spec, c * pred[i][keep], truth[:, keep])
                if values is None:
                    continue
                known = ~np.isnan(lo[i])
                if kind is DistanceKind.SIGN_COSINE_DISSIM:
                    assert lo[i][known].tobytes() == values[known].tobytes()
                else:
                    assert np.all(lo[i][known] <= values[known]), kind.value
                    assert np.all(values[known] <= hi[i][known]), kind.value

    def test_bounds_leave_their_arguments_unchanged(self):
        """A moved zero pattern forms the block's products again, leaving cross as it was: at
        c = 1/4 with t = 0.5 the sign patterns move; at c = 2**-500 the dot kinds' row 1,
        unsafe at c = 1, gets NaN bounds."""
        rng = np.random.default_rng(17)
        pred, truth = rng.standard_normal((6, 9)), rng.standard_normal((6, 9))
        pred[1] *= 2.0**600  # a squared norm from 2**1000 up, safe once scaled by 2**-500
        columns = np.array([-1, 2, -1, 0, 8, -1])
        for kind in self.SCREENED:
            bounds = Screen(DistanceSpec(kind, 0.5), truth)
            for c in (0.25, 2.0**-500):
                key, products = bounds.cross(pred)
                kept, scaled = (key.copy(), products.copy()), pred * c
                lo, hi = bounds.bounds((key, products), scaled, columns, c)
                assert np.array_equal(key, kept[0], equal_nan=True), (kind, c)
                assert np.array_equal(products, kept[1], equal_nan=True), (kind, c)
                assert np.array_equal(pred * c, scaled), (kind, c)

    def test_a_row_unsafe_at_unit_scale_is_measured_at_every_scale(self):
        """A row whose squared norm is near 2**-1000 has NaN dot-kind bounds at c = 1 and at
        c = 2**300, where its scaled one is safe; ranking measures its pairs with the kernel,
        so rank_at_scales at c equals compute_pds on fl(c P) bit for bit."""
        rng = np.random.default_rng(19)
        n, p, c = 8, 12, 2.0**300
        pred, truth = rng.standard_normal((n, p)), rng.standard_normal((n, p)) * 2.0**295
        pred[3] *= 2.0**-502
        assert 2.0**-1003 < (pred[3] ** 2).sum() < 2.0**-997
        others = np.arange(n) != 3
        for kind in (DistanceKind.L2, DistanceKind.L2_LIMIT, DistanceKind.COSINE_DISSIM):
            for scale in (1.0, c):
                lo, hi = screen(DistanceSpec(kind), pred, truth, np.full(n, -1), scale)
                assert np.isnan(lo[3]).all() and np.isnan(hi[3]).all(), (kind, scale)
                assert not np.isnan(lo[others]).any() and not np.isnan(hi[others]).any()
        targets = {f"P{i:04d}": f"G{i:04d}" for i in range(n)}
        pair, scaled = pair_from(pred, truth, targets), pair_from(pred * c, truth, targets)
        for kind in DistanceKind:
            spec = DistanceSpec(kind)
            for mask in (False, True):
                own, rank, pds, _ = rank_at_scales(pair, spec, target_columns(pair, mask), (1.0, c))
                for k, at in enumerate((pair, scaled)):
                    entries = compute_pds(at, spec, mask).per_perturbation
                    want = np.array([[e.true_distance, e.rank, e.pds] for e in entries]).T
                    assert np.stack([own[k], rank[k], pds[k]]).tobytes() == want.tobytes(), kind

    def test_bounds_are_known_and_narrow_at_unit_scale(self):
        rng = np.random.default_rng(15)
        pred, truth = rng.standard_normal((8, 50)), rng.standard_normal((8, 50))
        for kind in self.TWO_SIDED:
            spec = DistanceSpec(kind)
            for column in (-1, 7):
                lo, hi = screen(spec, pred, truth, np.full(8, column))
                assert np.all(hi - lo <= 1e-11), (kind.value, column)

    def test_l1_bound_is_exact_above_threshold(self):
        rng = np.random.default_rng(16)
        n, p = 12, 40
        pred, truth = rng.standard_normal((n, p)), rng.standard_normal((n, p))
        pred[rng.random((n, p)) < 0.2] = 0.0
        truth[5] = truth[3]  # an exact tie for anchor 3, which settles nothing
        pred *= 2.0 * convergence_threshold_l1(pair_from(pred, truth))
        spec = DistanceSpec(DistanceKind.L1, 0.5)  # l1 ignores the sign threshold
        for columns in (np.full(n, -1), np.arange(n) % p):
            lo, hi = screen(spec, pred, truth, columns)
            assert np.isinf(hi).all()
            for i in range(n):
                keep = np.arange(p) != columns[i]
                a, rows = pred[i][keep], truth[:, keep]
                values = pairwise_to_rows(spec, a, rows)
                radius = 4.0 * (p + 4) * 2.0**-53 * (np.abs(pred[i]).sum() + np.abs(truth).sum(1))
                assert np.all(values - 2.0 * radius <= lo[i]) and np.all(lo[i] <= values)
                farther = values > values[i]
                assert np.all(lo[i][farther] > values[i]), (i, columns[i])
