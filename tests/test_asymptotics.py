import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdscore import (
    BadParameter,
    DegeneratePair,
    DistanceKind,
    DistanceSpec,
    compute_pds,
    convergence_threshold_l1,
    convergence_threshold_l2,
    global_scale,
    pairwise_to_rows,
    scale_sweep,
)

from helpers import (
    pair_from,
    random_pair,
    threshold_l1_per_anchor,
    threshold_l2_all_pairs,
    threshold_l2_per_anchor,
)


L1_LIMIT = DistanceSpec(DistanceKind.L1_LIMIT)
L2_LIMIT = DistanceSpec(DistanceKind.L2_LIMIT)


def ranks_of(report):
    return report.ranks()


class TestL2LimitScores:
    def test_inner_product_example(self):
        scores = pairwise_to_rows(L2_LIMIT, [1.0, 0.0], [[1.0, 1.0], [0.1, 0.0]])
        assert scores.tolist() == [-1.0, -0.1]

    def test_orthogonal_distractor_loses_regardless_of_norms(self):
        # prediction orthogonal to the distractor, positive inner product
        # with the truth: any distractor norm still scores 0
        for distractor_scale in (0.01, 1.0, 100.0):
            scores = pairwise_to_rows(L2_LIMIT, [1.0, 0.0], [[0.5, 3.0], [0.0, distractor_scale]])
            assert scores[0] < scores[1] == 0.0

    def test_longer_collinear_distractor_wins_the_limit(self):
        scores = pairwise_to_rows(L2_LIMIT, [1.0, 2.0], [[1.0, 2.0], [2.0, 4.0]])
        assert scores[1] < scores[0]


class TestL1LimitScores:
    def test_zero_coordinate_correction_example(self):
        t = [[1.0, 5.0], [-1.0, 0.0]]
        corrected = pairwise_to_rows(L1_LIMIT, [1.0, 0.0], t)
        assert corrected.tolist() == [4.0, 1.0]
        uncorrected = pairwise_to_rows(L2_LIMIT, np.sign([1.0, 0.0]), t)
        assert uncorrected.tolist() == [-1.0, 1.0]
        # corrected ranks the distractor first, matching brute force at
        # large scales; the plain weighted sign form ranks the truth first
        assert np.argmin(corrected) == 1
        assert np.argmin(uncorrected) == 0

    def test_no_zero_coordinates_matches_plain_form(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal(9)
        t = rng.standard_normal((5, 9))
        assert np.array_equal(pairwise_to_rows(L1_LIMIT, a, t), pairwise_to_rows(L2_LIMIT, np.sign(a), t))

    def test_full_agreement_vs_full_disagreement(self):
        a = [1.0, -1.0, 1.0]
        agree = [2.0, -3.0, 1.0]
        disagree = [-1.0, 2.0, -2.0]
        scores = pairwise_to_rows(L1_LIMIT, a, [agree, disagree])
        assert scores[0] == -float(np.abs(agree).sum())
        assert scores[1] == float(np.abs(disagree).sum())


class TestConvergenceThresholdL2:
    def test_hand_value(self):
        # identical predictions for both anchors reduce the max to the
        # documented single-anchor value |(2 - 0.01)| / (2 |1 - 0.1|)
        pair = pair_from([[1.0, 0.0], [1.0, 0.0]], [[1.0, 1.0], [0.1, 0.0]])
        c_star = convergence_threshold_l2(pair)
        assert c_star == pytest.approx(1.99 / 1.8, rel=1e-12)
        # below the threshold the short distractor is closer, above it the truth wins
        spec = DistanceSpec(DistanceKind.L2)
        below = compute_pds(pair.with_predicted(global_scale(pair.predicted, 1.0)), spec)
        above = compute_pds(pair.with_predicted(global_scale(pair.predicted, 1.2)), spec)
        assert below.per_perturbation[0].rank == 2.0
        assert above.per_perturbation[0].rank == 1.0

    def test_equal_truth_norms_give_zero_threshold(self):
        pair = pair_from([[0.3, 0.8], [0.9, -0.1]], [[0.0, 1.0], [1.0, 0.0]])
        assert convergence_threshold_l2(pair) == 0.0

    def test_degenerate_pair_detected(self):
        pair = pair_from([[1.0, 0.0], [1.0, 0.0]], [[1.0, 5.0], [1.0, -3.0]])
        with pytest.raises(DegeneratePair, match="P0000"):
            convergence_threshold_l2(pair)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 40),
        st.integers(2, 30),
        st.integers(-100, 100),
        st.integers(-100, 100),
        st.sampled_from([0.0, 0.3]),
        st.booleans(),
        st.booleans(),
    )
    def test_neighbour_scan_matches_all_pairs(
        self, seed, n, p, pred_exp, truth_exp, zeros, integer_rows, duplicate_rows
    ):
        # Each slope is within three roundings of the exact slope between the same
        # computed points, whose maxima over neighbours and over all pairs are equal.
        rng = np.random.default_rng(seed)

        def draw(exponent):
            if integer_rows:
                x = rng.integers(-20, 21, (n, p)).astype(np.float64)
            else:
                x = rng.standard_normal((n, p))
            x[rng.random((n, p)) < zeros] = 0.0
            return x * 10.0**exponent

        pred, truth = draw(pred_exp), draw(truth_exp)
        if duplicate_rows:
            truth[rng.integers(n, size=n // 2 + 1)] = truth[rng.integers(n, size=n // 2 + 1)]
        targets = {f"P{i:04d}": f"G{int(rng.integers(p)):04d}" for i in range(n) if i % 3}
        pair = pair_from(pred, truth, targets)
        for masked in (False, True):
            try:
                want = threshold_l2_all_pairs(pair, masked)
            except DegeneratePair as exc:
                anchor = str(exc).split(":")[0]
                with pytest.raises(DegeneratePair, match=f"^{re.escape(anchor)}:"):
                    convergence_threshold_l2(pair, masked)
                continue
            got = convergence_threshold_l2(pair, masked)
            assert got <= want <= got * (1.0 + 8.0 * 2.0**-53), masked

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 30),
        st.integers(2, 12),
        st.integers(-100, 100),
        st.booleans(),
        st.booleans(),
    )
    @example(0, 4, 3, 0, True, True)
    def test_masked_threshold_equals_per_anchor_subproblems(
        self, seed, n, p, exponent, integer_rows, duplicate_rows
    ):
        # Integer rows and repeated truths give tied inner products, with equal norms
        # (a consistent tie) or different ones (DegeneratePair); few genes make
        # anchors share a target column.
        rng = np.random.default_rng(seed)

        def draw():
            if integer_rows:
                x = rng.integers(-2, 3, (n, p)).astype(np.float64)
            else:
                x = rng.standard_normal((n, p))
            x[rng.random((n, p)) < 0.3] = 0.0
            return x * 10.0**exponent

        pred, truth = draw(), draw()
        if duplicate_rows:
            truth[rng.integers(n, size=n // 2 + 1)] = truth[rng.integers(n, size=n // 2 + 1)]
        targets = {f"P{i:04d}": f"G{int(rng.integers(p)):04d}" for i in range(n) if i % 4}
        pair = pair_from(pred, truth, targets)
        try:
            want = threshold_l2_per_anchor(pair, True)
        except DegeneratePair as exc:
            with pytest.raises(DegeneratePair, match=f"^{re.escape(str(exc))}$"):
                convergence_threshold_l2(pair, True)
            return
        assert convergence_threshold_l2(pair, True) == want

    def test_ranking_exact_beyond_threshold(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            pair = random_pair(rng, n=10, p=12)
            c_star = convergence_threshold_l2(pair)
            assert np.isfinite(c_star) and c_star > 0.0
            limit_ranks = ranks_of(compute_pds(pair, DistanceSpec(DistanceKind.L2_LIMIT)))
            for factor in (1.01, 2.0, 10.0):
                scaled = pair.with_predicted(global_scale(pair.predicted, factor * c_star))
                got = ranks_of(compute_pds(scaled, DistanceSpec(DistanceKind.L2)))
                assert np.array_equal(got, limit_ranks)

    def test_perfect_predictions_have_finite_threshold(self):
        rng = np.random.default_rng(32)
        values = rng.standard_normal((5, 10))
        pair = pair_from(values, values)
        c_star = convergence_threshold_l2(pair)
        assert np.isfinite(c_star)
        limit_ranks = ranks_of(compute_pds(pair, DistanceSpec(DistanceKind.L2_LIMIT)))
        scaled = pair.with_predicted(global_scale(pair.predicted, 2.0 * c_star + 1.0))
        got = ranks_of(compute_pds(scaled, DistanceSpec(DistanceKind.L2)))
        assert np.array_equal(got, limit_ranks)


class TestConvergenceThresholdL1:
    def test_hand_value(self):
        pair = pair_from([[2.0, 0.0], [1.0, 4.0]], [[1.0, 5.0], [-3.0, 0.5]])
        # ratios |truth_j| / |pred_j| over nonzero predicted coordinates
        # anchor 0: max(1/2, 3/2) = 1.5; anchor 1: max(1, 5/4, 3, 1/8) = 3
        assert convergence_threshold_l1(pair) == 3.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 9),
        st.integers(1, 12),
        st.integers(-150, 150),
        st.integers(-150, 150),
        st.sampled_from([0.0, 0.3, 0.9]),
    )
    def test_column_maxima_equal_the_per_anchor_ratios(self, seed, n, p, pred_exp, truth_exp, zeros):
        rng = np.random.default_rng(seed)
        pred = rng.standard_normal((n, p)) * 10.0**pred_exp
        pred[rng.random((n, p)) < zeros] = 0.0
        truth = rng.standard_normal((n, p)) * 10.0**truth_exp
        truth[rng.random((n, p)) < zeros] = 0.0
        targets = {f"P{i:04d}": f"G{int(rng.integers(p)):04d}" for i in range(n) if i % 3}
        pair = pair_from(pred, truth, targets)
        for masked in (False, True) if p > 1 else (False,):
            got = convergence_threshold_l1(pair, masked)
            want = threshold_l1_per_anchor(pair, masked)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), masked

    def test_ranking_exact_at_twice_threshold_with_zero_coordinates(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            pair = random_pair(rng, n=8, p=10, zero_fraction=0.25)
            threshold = convergence_threshold_l1(pair)
            assert np.isfinite(threshold) and threshold > 0.0
            c = 2.0 * threshold
            scaled = pair.with_predicted(global_scale(pair.predicted, c))
            got = ranks_of(compute_pds(scaled, DistanceSpec(DistanceKind.L1)))
            want = ranks_of(compute_pds(pair, DistanceSpec(DistanceKind.L1_LIMIT)))
            assert np.array_equal(got, want)


class TestScaleSweep:
    def test_invariant_metrics_are_constant_and_norm_metrics_plateau(self):
        rng = np.random.default_rng(51)
        pair = random_pair(rng, n=9, p=11)
        specs = [
            DistanceSpec(DistanceKind.L1),
            DistanceSpec(DistanceKind.L2),
            DistanceSpec(DistanceKind.COSINE_DISSIM),
            DistanceSpec(DistanceKind.SIGN_COSINE_DISSIM),
        ]
        c2 = convergence_threshold_l2(pair)
        c1 = convergence_threshold_l1(pair)
        top = 4.0 * max(c2, c1, 1.0)
        scales = tuple(sorted(set(np.geomspace(1e-2, top, 9)) | {1.5 * max(c2, c1), top / 2}))
        result = scale_sweep(pair, specs, scales)
        for token in ("cosine", "sign-cosine"):
            curve = result.mean_pds_per_scale[token]
            assert len(set(curve)) == 1
            assert curve[0] == result.limit_mean_pds[token]
        for token, threshold in (("l2", c2), ("l1", c1)):
            curve = result.mean_pds_per_scale[token]
            beyond = [v for c, v in zip(result.scales, curve) if c > threshold]
            assert beyond, "grid must extend past the threshold"
            assert all(v == result.limit_mean_pds[token] for v in beyond)

    def test_l1_limit_ignores_the_sign_threshold(self):
        # the l1 kernel measures every coordinate whatever the threshold, so its
        # curve meets the limit with only exactly-zero predictions counted as zero
        pair = random_pair(np.random.default_rng(54), n=30, p=40)
        c1 = convergence_threshold_l1(pair)
        result = scale_sweep(pair, [DistanceSpec(DistanceKind.L1, 0.5)], (2.0 * c1, 10.0 * c1))
        assert all(v == result.limit_mean_pds["l1"] for v in result.mean_pds_per_scale["l1"])

    @pytest.mark.parametrize(
        "kind, limit",
        [(DistanceKind.SIGN_COSINE_DISSIM, 57 / 58), (DistanceKind.L1_LIMIT, 144 / 145)],
    )
    def test_thresholded_sign_kinds_meet_their_limit(self, kind, limit):
        """With t > 0 the prediction's signs move with the scale until every nonzero
        coordinate exceeds t; from that power-of-two scale on, the curve is the limit."""
        rng = np.random.default_rng(3)
        truth = rng.standard_normal((30, 50))
        pair = pair_from(0.6 * truth + 0.8 * rng.standard_normal((30, 50)), truth)
        t, predicted = 0.5, np.abs(pair.predicted.values)
        fixed = 2.0 ** np.ceil(np.log2(t / predicted[predicted > 0.0].min()) + 1.0)
        assert (fixed * predicted[predicted > 0.0]).min() > t
        scales = tuple(np.geomspace(1.0, 1e6, 13))
        result = scale_sweep(pair, [DistanceSpec(kind, t)], scales)
        curve, token = result.mean_pds_per_scale[kind.value], kind.value
        assert result.limit_mean_pds[token] == pytest.approx(limit, abs=1e-12)
        assert curve[0] != result.limit_mean_pds[token]
        beyond = [v for c, v in zip(scales, curve) if c >= fixed]
        assert beyond and all(v == result.limit_mean_pds[token] for v in beyond)

    def test_rejects_bad_grids(self):
        pair = random_pair(np.random.default_rng(52), n=3, p=4)
        specs = [DistanceSpec(DistanceKind.L2)]
        with pytest.raises(BadParameter):
            scale_sweep(pair, specs, (1.0, 0.5))
        with pytest.raises(BadParameter):
            scale_sweep(pair, specs, (-1.0, 2.0))
        with pytest.raises(BadParameter):
            scale_sweep(pair, specs, ())

    def test_rejects_duplicate_metrics(self):
        pair = random_pair(np.random.default_rng(53), n=3, p=4)
        with pytest.raises(BadParameter):
            scale_sweep(
                pair, [DistanceSpec(DistanceKind.L2), DistanceSpec(DistanceKind.L2)], (1.0, 2.0)
            )


@st.composite
def swept_pairs(draw):
    """A small pair at magnitudes 1e-60 to 1e60 with an all-zero predicted row, zero
    coordinates and a repeated truth row, and an ascending grid from 1e-80 to 1e80."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p = draw(st.integers(3, 9)), draw(st.integers(2, 8))
    pred = rng.standard_normal((n, p)) * 10.0 ** draw(st.integers(-60, 60))
    truth = rng.standard_normal((n, p)) * 10.0 ** draw(st.integers(-60, 60))
    pred[rng.random((n, p)) < 0.3] = 0.0
    pred[rng.integers(n)] = 0.0
    truth[0] = truth[-1]
    targets = {f"P{i:04d}": f"G{int(rng.integers(p)):04d}" for i in range(n) if rng.random() < 0.7}
    exponents = draw(st.lists(st.integers(-80, 80), min_size=1, max_size=5, unique=True))
    threshold = draw(st.sampled_from([0.0, 0.5])) * float(np.abs(pred).max())
    return pair_from(pred, truth, targets), tuple(10.0**k for k in sorted(exponents)), threshold


def _moved_then_unit_scale():
    """t > 0 moves sign patterns at c = 1/4, and the grid returns to c = 1 after it."""
    rng = np.random.default_rng(7)
    pred, truth = rng.standard_normal((6, 5)), rng.standard_normal((6, 5))
    return pair_from(pred, truth, {"P0001": "G0002"}), (0.25, 1.0, 4.0), 0.5


@settings(max_examples=60, deadline=None)
@given(swept_pairs())
@example(_moved_then_unit_scale())
def test_sweep_points_equal_compute_pds_on_scaled_predictions(case):
    """Each curve point is compute_pds's mean on the predictions fl(c P), bit for bit."""
    pair, scales, threshold = case
    for kind in DistanceKind:
        spec = DistanceSpec(kind, threshold)
        for mask in (False, True):
            curve = scale_sweep(pair, [spec], scales, mask).mean_pds_per_scale[kind.value]
            for c, point in zip(scales, curve):
                scaled = pair.with_predicted(global_scale(pair.predicted, c))
                want = compute_pds(scaled, spec, mask).mean_pds
                assert point.hex() == want.hex(), (kind.value, mask, c)


def _written_limit(pair, spec):
    """The pair and measure whose compute_pds mean is spec's large-scale limit: the
    limit kinds at threshold 0 for l1 and l2, and for sign-cosine at threshold t the
    predictions sign(P) times the next float above t; cosine and l2-limit themselves."""
    kind, t = spec.kind, spec.sign_threshold
    if kind in (DistanceKind.L1, DistanceKind.L1_LIMIT):
        return pair, L1_LIMIT
    if kind is DistanceKind.L2:
        return pair, L2_LIMIT
    if kind is DistanceKind.SIGN_COSINE_DISSIM:
        signs = np.sign(pair.predicted.values) * np.nextafter(t, np.inf)
        return pair_from(signs, pair.truth.values, pair.target_gene_of), spec
    return pair, spec


@settings(max_examples=40, deadline=None)
@given(swept_pairs())
def test_limits_equal_compute_pds_on_the_written_out_limit(case):
    """Each metric's limit_mean_pds is compute_pds's mean on its limit, bit for bit."""
    pair, _, threshold = case
    for kind in DistanceKind:
        spec = DistanceSpec(kind, threshold)
        limit_pair, limit_spec = _written_limit(pair, spec)
        for mask in (False, True):
            limit = scale_sweep(pair, [spec], (1.0,), mask).limit_mean_pds[kind.value]
            want = compute_pds(limit_pair, limit_spec, mask).mean_pds
            assert limit.hex() == want.hex(), (kind.value, mask)


class TestEqualNormReduction:
    def test_limit_ranking_equals_cosine_ranking_when_norms_are_equal(self):
        rng = np.random.default_rng(61)
        truth_rows = rng.standard_normal((8, 12))
        truth_rows /= np.linalg.norm(truth_rows, axis=1)[:, None]
        truth_rows *= 2.5
        pred = rng.standard_normal((8, 12))
        pair = pair_from(pred, truth_rows)
        cosine_spec = DistanceSpec(DistanceKind.COSINE_DISSIM)
        for i in range(8):
            limit = pairwise_to_rows(L2_LIMIT, pred[i], truth_rows)
            cos_d = 1.0 - (truth_rows @ pred[i]) / (
                np.linalg.norm(truth_rows, axis=1) * np.linalg.norm(pred[i])
            )
            assert np.array_equal(np.argsort(limit), np.argsort(cos_d))
        limit_report = compute_pds(pair, DistanceSpec(DistanceKind.L2_LIMIT))
        cosine_report = compute_pds(pair, cosine_spec)
        assert np.array_equal(limit_report.ranks(), cosine_report.ranks())
