import numpy as np
import pytest
from scipy import stats

from pdscore import (
    BadSpec,
    CountSynthSpec,
    DistanceKind,
    DistanceSpec,
    ErrorPolicy,
    SynthSpec,
    ValidationError,
    compute_pds,
    generate,
    generate_counts,
    global_scale,
    oracle_l1_limit,
    oracle_pds,
    oracle_ray_certificate,
    orthogonal_ray_certificate,
)

from helpers import pair_from, random_pair

ALL_FOUR = [
    DistanceSpec(DistanceKind.L1),
    DistanceSpec(DistanceKind.L2),
    DistanceSpec(DistanceKind.COSINE_DISSIM),
    DistanceSpec(DistanceKind.SIGN_COSINE_DISSIM),
]


class TestGenerate:
    def test_bitwise_reproducible(self):
        spec = SynthSpec(12, 30, target_cosine=0.45, norm_sigma=0.8, seed=5)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.predicted.values, b.predicted.values)
        assert np.array_equal(a.truth.values, b.truth.values)
        assert a.perturbation_ids == b.perturbation_ids

    def test_seed_changes_output(self):
        base = SynthSpec(6, 10, target_cosine=0.5, seed=1)
        other = SynthSpec(6, 10, target_cosine=0.5, seed=2)
        assert not np.array_equal(generate(base).truth.values, generate(other).truth.values)

    def test_realized_cosine_matches_target(self):
        for rho in (0.0, 0.37, 0.6, 1.0):
            pair = generate(SynthSpec(15, 40, target_cosine=rho, seed=9))
            pred = pair.predicted.values
            truth = pair.truth.values
            cosines = (pred * truth).sum(axis=1) / (
                np.linalg.norm(pred, axis=1) * np.linalg.norm(truth, axis=1)
            )
            assert np.all(np.abs(cosines - rho) <= 1e-10)

    def test_prediction_scale_sets_row_norms(self):
        pair = generate(SynthSpec(10, 25, target_cosine=0.5, prediction_scale=0.05, seed=3))
        norms = np.linalg.norm(pair.predicted.values, axis=1)
        assert np.allclose(norms, 0.05, rtol=1e-10)

    def test_collinear_target_gives_perfect_cosine_score(self):
        pair = generate(SynthSpec(20, 50, target_cosine=1.0, seed=11))
        report = compute_pds(pair, DistanceSpec(DistanceKind.COSINE_DISSIM))
        assert report.mean_pds == 1.0

    def test_orthogonal_target_scores_near_half(self):
        values = []
        for seed in (21, 22):
            pair = generate(SynthSpec(100, 500, target_cosine=0.0, seed=seed))
            values.append(compute_pds(pair, DistanceSpec(DistanceKind.COSINE_DISSIM)).mean_pds)
        assert abs(float(np.mean(values)) - 0.5) < 0.03

    def test_truth_norms_follow_lognormal(self):
        mu, sigma = 0.3, 0.9
        pair = generate(SynthSpec(10_000, 4, target_cosine=0.5, norm_mu=mu, norm_sigma=sigma, seed=17))
        norms = np.linalg.norm(pair.truth.values, axis=1)
        result = stats.kstest(norms, "lognorm", args=(sigma, 0.0, np.exp(mu)))
        assert result.pvalue > 0.001

    def test_spec_validation(self):
        with pytest.raises(BadSpec):
            SynthSpec(1, 10, target_cosine=0.5)
        with pytest.raises(BadSpec):
            SynthSpec(5, 10, target_cosine=1.5)
        with pytest.raises(BadSpec):
            SynthSpec(5, 10, target_cosine=0.5, prediction_scale=0.0)
        with pytest.raises(BadSpec):
            SynthSpec(5, 10, target_cosine=0.5, norm_sigma=-1.0)


class TestGenerateCounts:
    def test_reproducible_and_valid(self):
        spec = CountSynthSpec(4, 10, 60, mean_counts_per_cell=300.0, seed=7)
        a = generate_counts(spec)
        b = generate_counts(spec)
        assert np.array_equal(a.counts, b.counts)
        assert a.cell_condition == b.cell_condition
        assert a.n_cells == 50
        assert set(a.cell_condition) == {"control", "P0000", "P0001", "P0002", "P0003"}

    def test_library_sizes_are_heterogeneous(self):
        counts = generate_counts(CountSynthSpec(3, 40, 80, libsize_sigma=0.6, seed=13))
        libs = counts.library_sizes()
        assert libs.max() / libs.min() > 2.0

    def test_spec_validation(self):
        with pytest.raises(BadSpec):
            CountSynthSpec(0, 5, 10)
        with pytest.raises(BadSpec):
            CountSynthSpec(2, 5, 10, effect_fraction=1.5)
        for field in ("mean_counts_per_cell", "libsize_sigma", "effect_log_fc_sigma"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(BadSpec, match="finite"):
                    CountSynthSpec(2, 5, 10, **{field: value})


class TestOraclePds:
    def test_matches_compute_pds_on_random_instances(self):
        rng = np.random.default_rng(31)
        for trial in range(60):
            pair = random_pair(rng, n=int(rng.integers(3, 9)), p=int(rng.integers(2, 7)))
            spec = ALL_FOUR[trial % 4]
            fast = compute_pds(pair, spec)
            slow = oracle_pds(pair, spec)
            assert np.array_equal(fast.ranks(), slow.ranks())
            assert fast.mean_pds == slow.mean_pds

    def test_tie_instance_matches(self):
        truth = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0]])  # duplicate truth rows tie
        pred = np.array([[0.5, 0.1], [0.4, 0.2], [0.1, 1.0]])
        pair = pair_from(pred, truth)
        for spec in ALL_FOUR[:2]:
            fast = compute_pds(pair, spec)
            slow = oracle_pds(pair, spec)
            assert np.array_equal(fast.ranks(), slow.ranks())
            assert fast.per_perturbation[0].rank == 1.5

    def test_perfect_prediction_all_rank_one(self):
        values = np.random.default_rng(5).standard_normal((6, 8))
        pair = pair_from(values, values)
        report = oracle_pds(pair, DistanceSpec(DistanceKind.L2))
        assert all(e.rank == 1.0 for e in report.per_perturbation)

    def test_masking_agreement(self):
        rng = np.random.default_rng(37)
        pred = rng.standard_normal((5, 6))
        truth = rng.standard_normal((5, 6))
        targets = {"P0001": "G0002", "P0003": "G0000"}
        pair = pair_from(pred, truth, targets)
        for spec in ALL_FOUR:
            fast = compute_pds(pair, spec, apply_target_mask=True)
            slow = oracle_pds(pair, spec, apply_target_mask=True)
            assert np.array_equal(fast.ranks(), slow.ranks())

    def test_skip_with_every_anchor_undefined_raises(self):
        pair = pair_from(np.zeros((3, 4)), np.ones((3, 4)))
        spec = DistanceSpec(DistanceKind.COSINE_DISSIM)
        for scorer in (compute_pds, oracle_pds):
            with pytest.raises(ValidationError, match="every anchor failed"):
                scorer(pair, spec, error_policy=ErrorPolicy.SKIP)


class TestOracleL1Limit:
    def test_documented_counterexample(self):
        pair = pair_from([[1.0, 0.0], [0.2, 0.3]], [[1.0, 5.0], [-1.0, 0.0]])
        ranks = oracle_l1_limit(pair, 1e6)
        # anchor 0: the (-1, 0) distractor is closer than the (1, 5) truth
        assert ranks[0].tolist() == [2.0, 1.0]

    def test_matches_surrogate_beyond_threshold(self):
        from pdscore import convergence_threshold_l1

        rng = np.random.default_rng(41)
        pair = random_pair(rng, n=7, p=9, zero_fraction=0.3)
        c = 2.0 * convergence_threshold_l1(pair)
        brute = oracle_l1_limit(pair, c)
        surrogate = compute_pds(pair, DistanceSpec(DistanceKind.L1_LIMIT))
        for i, entry in enumerate(surrogate.per_perturbation):
            assert brute[i, i] == entry.rank

    def test_small_scale_can_disagree_until_threshold_clears(self):
        # single-coordinate construction: limit prefers the larger truth,
        # small scales prefer the nearer one
        pair = pair_from([[2.0], [1.0]], [[1.0], [3.0]])
        below = oracle_l1_limit(pair, 0.4)
        assert below[0].tolist() == [1.0, 2.0]
        from pdscore import convergence_threshold_l1

        threshold = convergence_threshold_l1(pair)
        above = oracle_l1_limit(pair, 2.0 * threshold)
        limit = compute_pds(pair, DistanceSpec(DistanceKind.L1_LIMIT))
        assert above[0, 0] == limit.per_perturbation[0].rank
        assert above[0].tolist() == [2.0, 1.0]

    def test_no_zero_coordinates_matches_plain_sign_form(self):
        from pdscore import l1_limit_scores

        rng = np.random.default_rng(43)
        pred = rng.standard_normal((4, 6))
        truth = rng.standard_normal((4, 6))
        pair = pair_from(pred, truth)
        brute = oracle_l1_limit(pair, 1e8)
        for i in range(4):
            scores = l1_limit_scores(pred[i], pair.truth, corrected=False)
            order_expected = np.argsort(scores)
            order_brute = np.argsort([brute[i, j] for j in range(4)])
            assert np.array_equal(order_expected, order_brute)


class TestOracleRayCertificate:
    def test_agrees_with_closed_form_off_the_boundary(self):
        for pred_norm, true_norm, cosine in (
            (1.0, 1.0, 0.6),
            (1.0, 1.0, 0.4),
            (2.0, 1.0, 0.3),
            (0.5, 2.0, 0.9),
        ):
            expected = orthogonal_ray_certificate(pred_norm, true_norm, cosine).safe
            assert oracle_ray_certificate(pred_norm, true_norm, cosine) == expected
