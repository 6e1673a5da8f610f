import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdscore import (
    DimensionMismatch,
    DistanceKind,
    DistanceSpec,
    ZeroSignVector,
    ZeroVector,
    cosine,
    dist_l1,
    dist_l2,
    distance,
    pairwise_to_rows,
    sign_cosine,
    sign_vector,
    spec_from_token,
)
from pdscore.errors import BadParameter
from pdscore.metrics import screen

METRIC_SPECS = [
    DistanceSpec(DistanceKind.L1),
    DistanceSpec(DistanceKind.L2),
    DistanceSpec(DistanceKind.COSINE_DISSIM),
    DistanceSpec(DistanceKind.SIGN_COSINE_DISSIM),
]


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
        assert cosine([3, 4], [1, 0]) == pytest.approx(0.6, rel=1e-12)
        assert cosine([2, -5], [2, -5]) == pytest.approx(1.0, rel=1e-12)
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_sign_vector(self):
        assert sign_vector([-2.5, 0.0, 3.0]).tolist() == [-1.0, 0.0, 1.0]
        assert sign_vector([0.05, -0.2], threshold=0.1).tolist() == [0.0, -1.0]
        assert sign_vector([0.0, 0.0]).tolist() == [0.0, 0.0]

    def test_sign_cosine(self):
        assert sign_cosine([3, 4], [1, 0]) == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert sign_cosine([3, -4, 1], [3, -4, 1]) == pytest.approx(1.0, rel=1e-12)
        assert sign_cosine([1, 1], [-1, -1]) == -1.0

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
        for fn in (dist_l1, dist_l2, cosine, sign_cosine):
            with pytest.raises(DimensionMismatch):
                fn([1, 2, 3], [1, 2])

    def test_zero_vector_cosine(self):
        with pytest.raises(ZeroVector):
            cosine([0, 0], [1, 2])
        with pytest.raises(ZeroVector):
            cosine([1, 2], [0, 0])

    def test_zero_sign_vector(self):
        with pytest.raises(ZeroSignVector):
            sign_cosine([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ZeroSignVector):
            sign_cosine([0.05, -0.05], [1.0, 2.0], threshold=0.1)

    def test_bad_spec_parameters(self):
        with pytest.raises(BadParameter):
            DistanceSpec(DistanceKind.SIGN_COSINE_DISSIM, sign_threshold=-1.0)
        with pytest.raises(BadParameter):
            spec_from_token("chebyshev")

    def test_pairwise_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            pairwise_to_rows(DistanceSpec(DistanceKind.L1), [1.0, 2.0], np.ones((3, 3)))


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
        assert cosine(c * a, b) == pytest.approx(cosine(a, b), rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(vec_pairs())
    def test_sign_cosine_invariant_under_sign_preserving_maps(self, ab):
        a, b = map(np.asarray, ab)
        if np.all(sign_vector(a) == 0) or np.all(sign_vector(b) == 0):
            return
        rng = np.random.default_rng(0)
        factors = rng.uniform(0.5, 2.0, a.shape[0])
        assert sign_cosine(factors * a, b) == sign_cosine(a, b)
        assert sign_cosine(a, factors * b) == sign_cosine(a, b)

    @settings(max_examples=150, deadline=None)
    @given(vec_pairs())
    def test_squared_norm_expansion_identity(self, ab):
        a, b = map(np.asarray, ab)
        lhs = dist_l2(a, b) ** 2
        rhs = float(a @ a) + float(b @ b) - 2.0 * float(a @ b)
        scale = float(a @ a) + float(b @ b) + 1.0
        assert abs(lhs - rhs) <= 1e-10 * scale

    def test_batch_matches_scalar_bitwise(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(12)
        rows = rng.standard_normal((9, 12))
        for spec in METRIC_SPECS + [
            DistanceSpec(DistanceKind.L2_LIMIT),
            DistanceSpec(DistanceKind.L1_LIMIT),
        ]:
            batch = pairwise_to_rows(spec, a, rows)
            singles = np.array([distance(spec, a, row) for row in rows])
            assert np.array_equal(batch, singles)


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
    """pairwise_to_rows writes its elementwise terms into one reused array per thread."""

    SPECS = [DistanceSpec(kind) for kind in DistanceKind]

    def test_bitwise_equal_to_fresh_temporaries_in_every_layout(self):
        rng = np.random.default_rng(11)
        full = rng.standard_normal((17, 40))
        full[rng.random(full.shape) < 0.2] = 0.0
        keep = np.arange(40) != 7
        layouts = {
            "C": full,
            "column mask (F-ordered copy)": full[:, keep],
            "Fortran": np.asfortranarray(full),
            "strided rows": full[::2],
            "reversed columns": full[:, ::-1],
        }
        for name, rows in layouts.items():
            a = rng.standard_normal(rows.shape[1])
            a[:3] = 0.0
            for spec in self.SPECS:
                got = pairwise_to_rows(spec, a, rows)
                want = _fresh_temporaries(spec, a, rows)
                assert got.tobytes() == want.tobytes(), (name, spec.token)

    def test_repeated_call_allocates_no_matrix_sized_array(self):
        import tracemalloc

        rng = np.random.default_rng(12)
        rows = rng.standard_normal((40, 5000))
        a = rng.standard_normal(5000)
        for spec in self.SPECS:
            pairwise_to_rows(spec, a, rows)
            tracemalloc.start()
            try:
                pairwise_to_rows(spec, a, rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < rows.nbytes / 4, spec.token


class TestSummationOrder:
    """The order of pairwise_to_rows' sums follows the layout of its rows."""

    def test_gathers_of_two_or_more_masked_rows_sum_as_the_whole_matrix(self):
        rng = np.random.default_rng(13)
        truth = rng.standard_normal((30, 400))
        keep = np.arange(400) != 5
        a = rng.standard_normal(400)[keep]
        whole = truth[:, keep]  # a column-masked copy is Fortran-ordered
        assert whole.flags.f_contiguous and not whole.flags.c_contiguous
        for kind in DistanceKind:
            spec = DistanceSpec(kind)
            batch = pairwise_to_rows(spec, a, whole)
            for rows in ([3, 3], [3, 17], [29, 0, 11]):
                got = pairwise_to_rows(spec, a, truth[rows][:, keep])
                assert got.tobytes() == batch[rows].tobytes(), (kind.value, rows)

    def test_a_single_masked_row_sums_pairwise(self):
        rng = np.random.default_rng(14)
        truth = rng.standard_normal((30, 400))
        keep = np.arange(400) != 5
        a = rng.standard_normal(400)[keep]
        spec = DistanceSpec(DistanceKind.L2)
        batch = pairwise_to_rows(spec, a, truth[:, keep])
        single = [pairwise_to_rows(spec, a, truth[[j]][:, keep])[0] for j in range(30)]
        contiguous = [distance(spec, a, np.ascontiguousarray(truth[j, keep])) for j in range(30)]
        assert single == contiguous
        assert single != batch.tolist()


class TestScreen:
    """metrics.screen bounds what pairwise_to_rows returns, masked or not."""

    SCREENED = [kind for kind in DistanceKind if kind is not DistanceKind.L1]

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
            bounds = screen(spec, pred, truth)
            for i in range(6):
                column = int(rng.integers(9)) if masked else None
                keep = np.arange(9) != column
                lo, hi = bounds(i, column)
                values = self._kernel(spec, pred[i][keep], truth[:, keep])
                if values is None:
                    continue
                known = ~np.isnan(lo)
                if kind is DistanceKind.SIGN_COSINE_DISSIM:
                    assert lo is hi
                    assert lo[known].tobytes() == values[known].tobytes()
                else:
                    assert np.all(lo[known] <= values[known]), kind.value
                    assert np.all(values[known] <= hi[known]), kind.value

    def test_bounds_are_known_and_narrow_at_unit_scale(self):
        rng = np.random.default_rng(15)
        pred, truth = rng.standard_normal((8, 50)), rng.standard_normal((8, 50))
        for kind in self.SCREENED:
            spec = DistanceSpec(kind)
            for column in (None, 7):
                lo, hi = screen(spec, pred, truth)(3, column)
                assert np.all(hi - lo <= 1e-11), (kind.value, column)

    def test_l1_has_no_bounds(self):
        lo, hi = screen(DistanceSpec(DistanceKind.L1), np.ones((2, 2)), np.ones((2, 2)))(0)
        assert np.isnan(lo).all() and np.isnan(hi).all()
