import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from pdscore import (
    BadParameter,
    NonpositiveNorm,
    orthogonal_ray_certificate,
    region_fraction,
)

from helpers import region_fraction_exact, region_wins_reference
from oracles import oracle_ray_certificate


def closed_form_2d_fraction(rho, kappa):
    """P(u1 > (rho^2 + 2 kappa - 1) / (2 rho)) for u uniform on the circle."""
    threshold = (rho * rho + 2.0 * kappa - 1.0) / (2.0 * rho)
    if threshold >= 1.0:
        return 0.0
    if threshold <= -1.0:
        return 1.0
    return math.acos(threshold) / math.pi


class TestCertificate:
    def test_matched_norms_examples(self):
        safe = orthogonal_ray_certificate(1.0, 1.0, 0.6)
        assert safe.safe
        assert safe.threshold == 0.5
        assert safe.margin == pytest.approx(0.1, rel=1e-12)
        assert not orthogonal_ray_certificate(1.0, 1.0, 0.4).safe

    def test_unmatched_norms_example(self):
        result = orthogonal_ray_certificate(2.0, 1.0, 0.3)
        assert result.safe
        assert result.threshold == 0.25
        assert result.margin == pytest.approx(0.05, rel=1e-12)

    def test_flip_is_exactly_at_half_for_matched_norms(self):
        for norm in (0.3, 1.0, 7.5):
            assert orthogonal_ray_certificate(norm, norm, 0.5).safe
            assert orthogonal_ray_certificate(norm, norm, 0.5 + 1e-9).safe
            assert not orthogonal_ray_certificate(norm, norm, 0.5 - 1e-9).safe

    def test_validation(self):
        with pytest.raises(NonpositiveNorm):
            orthogonal_ray_certificate(0.0, 1.0, 0.5)
        with pytest.raises(NonpositiveNorm):
            orthogonal_ray_certificate(1.0, -1.0, 0.5)
        with pytest.raises(BadParameter):
            orthogonal_ray_certificate(1.0, 1.0, 1.5)

    def test_agrees_with_ray_minimization_oracle(self):
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(300):
            pred_norm = float(rng.lognormal(0.0, 0.7))
            true_norm = float(rng.lognormal(0.0, 0.7))
            cosine = float(rng.uniform(-1.0, 1.0))
            result = orthogonal_ray_certificate(pred_norm, true_norm, cosine)
            if abs(result.margin) < 1e-6:
                continue
            checked += 1
            assert result.safe == oracle_ray_certificate(pred_norm, true_norm, cosine)
        assert checked > 250


class TestRegionFraction:
    def test_perfect_prediction_never_beaten(self):
        for rho in (0.5, 2.0):
            for d in (2, 64):
                result = region_fraction(d, rho, 1.0, 20_000, seed=3)
                assert result.fraction_closer == 0.0
                assert result.standard_error == 0.0

    def test_standard_error_formula(self):
        result = region_fraction(2, 0.5, 0.4, 5_000, seed=5)
        f = result.fraction_closer
        assert result.standard_error == math.sqrt(f * (1.0 - f) / 5_000)

    def test_unsafe_config_has_positive_fraction(self):
        result = region_fraction(2, 0.5, 0.4, 100_000, seed=11)
        assert result.fraction_closer > 0.0

    def test_matches_2d_angular_integration(self):
        for rho, kappa in ((0.5, 0.4), (0.3, 0.6), (0.3, 0.3), (1.5, 0.2)):
            result = region_fraction(2, rho, kappa, 100_000, seed=13)
            expected = closed_form_2d_fraction(rho, kappa)
            assert region_fraction_exact(2, rho, kappa) == pytest.approx(expected, abs=1e-12)
            band = 4.0 * max(result.standard_error, 1e-4)
            assert abs(result.fraction_closer - expected) <= band, (rho, kappa)

    def test_deterministic_per_seed(self):
        a = region_fraction(10, 0.3, 0.6, 30_000, seed=21)
        b = region_fraction(10, 0.3, 0.6, 30_000, seed=21)
        c = region_fraction(10, 0.3, 0.6, 30_000, seed=22)
        assert a == b
        assert a.fraction_closer != c.fraction_closer

    def test_l1_variant(self):
        result = region_fraction(8, 0.4, 0.5, 20_000, seed=31, metric="l1")
        assert 0.0 <= result.fraction_closer <= 1.0
        perfect = region_fraction(8, 0.4, 1.0, 20_000, seed=31, metric="l1")
        assert perfect.fraction_closer == 0.0

    def test_fraction_grows_with_dimension_below_the_safety_threshold(self):
        # kappa below (1 - rho^2) / 2: short distractors win from almost
        # every direction once dimension is large
        results = [region_fraction(d, 0.3, 0.3, 30_000, seed=41) for d in (2, 10, 100, 1000)]
        fractions = [r.fraction_closer for r in results]
        for earlier, later in zip(results, results[1:]):
            band = 3.0 * math.hypot(earlier.standard_error, later.standard_error)
            assert later.fraction_closer >= earlier.fraction_closer - band
        assert fractions[-1] > fractions[0]

    @pytest.mark.parametrize("metric", ["l1", "l2"])
    @pytest.mark.parametrize("d", [2, 3, 100, 1000])
    def test_win_counts_match_the_reference_arithmetic(self, metric, d):
        # 20,000 samples are two batches; each (rho, kappa) sits near a win
        # boundary under l2 or under l1 at d = 100 or d = 1000
        for seed, (rho, kappa) in enumerate(((0.5, 0.375), (0.04, -1.0), (0.175, -0.6))):
            result = region_fraction(d, rho, kappa, 20_000, seed, metric)
            wins = region_wins_reference(d, rho, kappa, 20_000, seed, metric)
            assert result.fraction_closer == wins / 20_000

    @pytest.mark.parametrize("metric", ["l1", "l2"])
    @pytest.mark.parametrize(
        "d, samples",
        [  # chunk sizes are l1's; an l2 batch is one chunk of two-coordinate draws
            (700, 2**14 + 7),  # chunks of 93 draws leave a partial chunk in both batches
            (33, 2**15 + 5),  # chunks of 1985 draws, three batches
            (2**16 + 3, 20),  # one draw per chunk
        ],
    )
    def test_chunk_boundaries_match_the_reference_arithmetic(self, metric, d, samples):
        for seed, (rho, kappa) in enumerate(((0.5, 0.375), (0.175, -0.6))):
            result = region_fraction(d, rho, kappa, samples, seed, metric)
            wins = region_wins_reference(d, rho, kappa, samples, seed, metric)
            assert result.fraction_closer == wins / samples

    @pytest.mark.parametrize("metric", ["l1", "l2"])
    def test_zero_draws_are_redrawn_as_the_reference_redraws_them(self, metric, monkeypatch):
        # under l1 at d = 1000 a chunk holds 65 draws, so draw 100 sits inside the second
        # chunk; draw 2**14, the first batch's first redraw, is zero as well, and so is
        # draw 30 of each batch. Under l2 a draw is zero where both its g_1 and its
        # chi-square are.
        d, samples, zeros = 1000, 2**14 + 50, {30, 100, 2**14}
        real, made = np.random.default_rng, []

        class Zeroing:
            """A generator whose normal and chi-square draws of the rows in zeros, each
            counted from its first, are zero."""

            def __init__(self, seed):
                self.rng, self.rows, self.squares = real(seed), 0, 0
                made.append(self)

            def standard_normal(self, size):
                values, self.rows = zeroed(self.rng.standard_normal(size), self.rows)
                return values

            def chisquare(self, df, size):
                values, self.squares = zeroed(self.rng.chisquare(df, size), self.squares)
                return values

        def zeroed(values, first):
            for row in zeros & set(range(first, first + len(values))):
                values[row - first] = 0.0
            return values, first + len(values)

        monkeypatch.setattr(np.random, "default_rng", Zeroing)
        result = region_fraction(d, 0.5, 0.375, samples, 3, metric)
        drawn = [(g.rows, g.squares) for g in made]
        made.clear()
        wins = region_wins_reference(d, 0.5, 0.375, samples, 3, metric)
        rows = [2**14 + 3, 50 + 1]
        squares = rows if metric == "l2" else [0, 0]
        assert drawn == [(g.rows, g.squares) for g in made] == list(zip(rows, squares))
        assert result.fraction_closer == wins / samples

    def test_memory_stays_within_one_chunk(self):
        # l1 is the metric that still draws every coordinate in row chunks
        tracemalloc.start()
        try:
            region_fraction(1000, 0.3, 0.3, 10_000, 1, metric="l1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6  # the 10,000 x 1000 draws at once, with the kernel's terms, take 160 MB

    def test_l2_memory_and_time_do_not_grow_with_dimension(self):
        # kappa = (1 - rho^2) / 2 puts the win threshold s at 0, where q_d = 1/2 at every d;
        # one d-coordinate draw at d = 1e9 would take 8 GB
        rho, d, samples = 0.3, 10**9, 2**14 + 5
        tracemalloc.start()
        try:
            result = region_fraction(d, rho, (1.0 - rho * rho) / 2.0, samples, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        low, high = stats.binom.interval(1.0 - 2e-6, samples, 0.5)
        assert low <= round(result.fraction_closer * samples) <= high
        assert result.dimension == d
        assert peak < 4e6

    @pytest.mark.parametrize("rho, kappa", [(0.3, 0.4565), (0.5, 0.373)])
    def test_l2_win_counts_at_a_gene_panel_dimension(self, rho, kappa):
        # s = +0.005 and -0.004, within a standard deviation of u_1 (1 / sqrt d) of 0, so
        # q_d is near 0.24 and 0.71; the d-coordinate draws would be 2e10 normals
        d, samples = 20_000, 10**6
        start = time.perf_counter()
        result = region_fraction(d, rho, kappa, samples, 7)
        elapsed = time.perf_counter() - start
        q = region_fraction_exact(d, rho, kappa)
        low, high = stats.binom.interval(1.0 - 2e-6, samples, q)
        assert 0.1 < q < 0.9
        assert low <= round(result.fraction_closer * samples) <= high, (q, result)
        assert elapsed < 20.0

    def test_validation(self):
        with pytest.raises(BadParameter, match="seed"):
            region_fraction(3, 0.3, 0.5, 100, seed=-1)
        with pytest.raises(BadParameter):
            region_fraction(1, 0.3, 0.5, 100, seed=0)
        with pytest.raises(BadParameter):
            region_fraction(3, -0.1, 0.5, 100, seed=0)
        with pytest.raises(BadParameter):
            region_fraction(3, 0.3, 1.2, 100, seed=0)
        with pytest.raises(BadParameter):
            region_fraction(3, 0.3, 0.5, 0, seed=0)
        with pytest.raises(BadParameter):
            region_fraction(3, 0.3, 0.5, 100, seed=0, metric="linf")
