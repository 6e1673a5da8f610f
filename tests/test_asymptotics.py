import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdscore import (
    BadParameter,
    DegeneratePair,
    DistanceKind,
    DistanceSpec,
    EffectMatrix,
    compute_pds,
    convergence_threshold_l1,
    convergence_threshold_l2,
    global_scale,
    l1_limit_scores,
    l2_limit_scores,
    scale_sweep,
)

from helpers import pair_from, random_pair, threshold_l1_per_anchor, threshold_l2_all_pairs


def truths(rows, genes=None):
    rows = np.asarray(rows, dtype=float)
    genes = genes or tuple(f"G{j:04d}" for j in range(rows.shape[1]))
    perts = tuple(f"P{i:04d}" for i in range(rows.shape[0]))
    return EffectMatrix(rows, perts, genes)


def ranks_of(report):
    return report.ranks()


class TestL2LimitScores:
    def test_inner_product_example(self):
        scores = l2_limit_scores([1.0, 0.0], truths([[1.0, 1.0], [0.1, 0.0]]))
        assert scores.tolist() == [-1.0, -0.1]

    def test_orthogonal_distractor_loses_regardless_of_norms(self):
        # prediction orthogonal to the distractor, positive inner product
        # with the truth: any distractor norm still scores 0
        for distractor_scale in (0.01, 1.0, 100.0):
            scores = l2_limit_scores([1.0, 0.0], truths([[0.5, 3.0], [0.0, distractor_scale]]))
            assert scores[0] < scores[1] == 0.0

    def test_longer_collinear_distractor_wins_the_limit(self):
        scores = l2_limit_scores([1.0, 2.0], truths([[1.0, 2.0], [2.0, 4.0]]))
        assert scores[1] < scores[0]


class TestL1LimitScores:
    def test_zero_coordinate_correction_example(self):
        t = truths([[1.0, 5.0], [-1.0, 0.0]])
        corrected = l1_limit_scores([1.0, 0.0], t)
        assert corrected.tolist() == [4.0, 1.0]
        uncorrected = l1_limit_scores([1.0, 0.0], t, corrected=False)
        assert uncorrected.tolist() == [-1.0, 1.0]
        # corrected ranks the distractor first, matching brute force at
        # large scales; the plain weighted sign form ranks the truth first
        assert np.argmin(corrected) == 1
        assert np.argmin(uncorrected) == 0

    def test_no_zero_coordinates_matches_plain_form(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal(9)
        t = truths(rng.standard_normal((5, 9)))
        assert np.array_equal(l1_limit_scores(a, t), l1_limit_scores(a, t, corrected=False))

    def test_full_agreement_vs_full_disagreement(self):
        a = [1.0, -1.0, 1.0]
        agree = [2.0, -3.0, 1.0]
        disagree = [-1.0, 2.0, -2.0]
        scores = l1_limit_scores(a, truths([agree, disagree]))
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
            limit = l2_limit_scores(pred[i], pair.truth)
            cos_d = 1.0 - (truth_rows @ pred[i]) / (
                np.linalg.norm(truth_rows, axis=1) * np.linalg.norm(pred[i])
            )
            assert np.array_equal(np.argsort(limit), np.argsort(cos_d))
        limit_report = compute_pds(pair, DistanceSpec(DistanceKind.L2_LIMIT))
        cosine_report = compute_pds(pair, cosine_spec)
        assert np.array_equal(limit_report.ranks(), cosine_report.ranks())
