import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pdscore import (
    CountMatrix,
    DuplicateLabel,
    MissingControl,
    PipelineSpec,
    ValidationError,
    ZeroLibrarySize,
    ZeroVector,
    compare_pipelines,
    mean_effects,
    normalize,
    pipeline_from_token,
)
from pdscore.errors import BadParameter
from pdscore.preprocessing import _median

from oracles import cosine, sign_cosine

PER10K = PipelineSpec.PER10K
MEDIAN = PipelineSpec.MEDIAN
MEDIAN_RAW = PipelineSpec.MEDIAN_NOLOG


def counts_of(rows, conditions, genes=None):
    rows = np.asarray(rows, dtype=np.int64)
    genes = genes or tuple(f"G{j:04d}" for j in range(rows.shape[1]))
    return CountMatrix(rows, tuple(conditions), genes)


class TestCountMatrix:
    def test_valid(self):
        cm = counts_of([[1, 2], [3, 4]], ["control", "A"])
        assert cm.n_cells == 2
        assert cm.perturbation_ids == ("A",)
        assert cm.library_sizes().tolist() == [3, 7]

    def test_rejects_negative_and_fractional(self):
        with pytest.raises(ValidationError):
            counts_of([[-1, 2]], ["control"])
        with pytest.raises(ValidationError):
            CountMatrix(np.array([[0.5, 2.0]]), ("control",), ("G0", "G1"))

    def test_count_beyond_int64_is_named(self):
        # A float or uint64 count from 2**63 up must not wrap in the cast to int64.
        for rows in (
            np.array([[1e30, 1.0], [1.0, 1.0]]),
            np.array([[2.0**63, 1.0], [1.0, 1.0]]),
            np.array([[2**63, 1], [1, 1]], dtype=np.uint64),
            [[2**64, 1], [1, 1]],
            [[10**400, 1], [1, 1]],  # beyond the float range too
        ):
            with pytest.raises(ValidationError, match=r"from 0 to 2\*\*63 - 1"):
                CountMatrix(rows, ("control", "A"), ("G0", "G1"))
        for rows in (np.array([[2**63 - 1, 0], [1, 1]], dtype=np.uint64), [[2.0**62, 0], [1, 1]]):
            counts = CountMatrix(rows, ("control", "A"), ("G0", "G1")).counts
            assert counts[0, 0] == int(rows[0][0])

    @pytest.mark.parametrize(
        "counts, conditions, genes, cells, message",
        [
            ([1, 2], ("control",), ("G0", "G1"), None, "counts must be a 2-d matrix"),
            ([[1, 2]], ("control", "A"), ("G0", "G1"), None, "2 condition labels for 1 cells"),
            ([[1, 2]], ("control",), ("G0",), None, "1 gene ids for 2 columns"),
            ([[1, 2]], ("control",), ("G0", "G1"), ("c0", "c1"), "2 cell ids for 1 cells"),
        ],
    )
    def test_shape_label_mismatch(self, counts, conditions, genes, cells, message):
        with pytest.raises(ValidationError, match=message):
            CountMatrix(counts, conditions, genes, cells)

    def test_rejects_zero_library_size(self):
        with pytest.raises(ZeroLibrarySize):
            counts_of([[0, 0], [1, 2]], ["control", "A"])

    def test_library_size_beyond_int64_is_named(self):
        big = 2**63 - 1
        assert counts_of([[big - 1, 1], [1, 2]], ["control", "A"]).library_sizes()[0] == big
        for row in ([big, 1], [big, big, 2]):  # sums that wrap to -2**63 and to 0 in int64
            with pytest.raises(ValidationError, match="cell 1 has library size exceeding 2"):
                counts_of([[1] * len(row), row], ["control", "A"])

    def test_requires_control(self):
        with pytest.raises(MissingControl):
            counts_of([[1, 2], [3, 4]], ["A", "B"])

    def test_duplicate_ids_are_named(self):
        with pytest.raises(DuplicateLabel, match="duplicate gene label 'G0'"):
            counts_of([[1, 2]], ["control"], ("G0", "G0"))
        with pytest.raises(DuplicateLabel, match="duplicate cell label 'c1'"):
            CountMatrix([[1], [2]], ("control", "A"), ("G0",), ("c1", "c1"))

    def test_counts_are_readonly(self):
        cm = counts_of([[1, 2]], ["control"])
        with pytest.raises(ValueError):
            cm.counts[0, 0] = 5


class TestNormalize:
    def test_per10k_hand_values(self):
        cm = counts_of([[10, 90], [1, 1]], ["control", "A"])
        out = normalize(cm, PER10K)
        assert out[0, 0] == pytest.approx(math.log(1001.0), rel=1e-12)
        assert out[0, 1] == pytest.approx(math.log(9001.0), rel=1e-12)

    def test_per10k_row_sums_before_log(self):
        rng = np.random.default_rng(71)
        cm = counts_of(
            rng.integers(0, 20, (30, 50)) + (rng.random((30, 50)) < 0.1), ["control"] * 15 + ["A"] * 15
        )
        pre_log = np.expm1(normalize(cm, PER10K))
        assert np.allclose(pre_log.sum(axis=1), 10_000.0, rtol=1e-9)

    def test_median_size_factors_hand_values(self):
        # library sizes 100 and 200, median 150, size factors 2/3 and 4/3
        cm = counts_of([[60, 40], [90, 110]], ["control", "A"])
        out = normalize(cm, MEDIAN_RAW)
        assert out[0].tolist() == pytest.approx([90.0, 60.0], rel=1e-12)
        assert out[1].tolist() == pytest.approx([67.5, 82.5], rel=1e-12)

    def test_median_single_cell_unchanged_before_log(self):
        cm = counts_of([[7, 3]], ["control"])
        out = normalize(cm, MEDIAN_RAW)
        assert out.tolist() == [[7.0, 3.0]]

    def test_median_log1p_default(self):
        cm = counts_of([[7, 3]], ["control"])
        assert np.array_equal(normalize(cm, MEDIAN), np.log1p([[7.0, 3.0]]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
            min_size=1, max_size=41,
        )
    )
    def test_median_is_numpy_median_bit_for_bit(self, values):
        """Odd and even lengths, signed zeros and subnormals: the size factors' median is
        np.median's value and its bits."""
        values = np.array(values)
        assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()

    def test_shape_and_nonnegativity(self):
        rng = np.random.default_rng(72)
        cm = counts_of(rng.integers(0, 9, (12, 7)) + 1, ["control"] * 6 + ["A"] * 6)
        for spec in (PER10K, MEDIAN, MEDIAN_RAW):
            out = normalize(cm, spec)
            assert out.shape == (12, 7)
            assert np.all(out >= 0.0)

    def test_pipeline_tokens(self):
        assert pipeline_from_token("per10k") == PER10K
        assert pipeline_from_token("median") == MEDIAN
        assert pipeline_from_token("median-nolog") == MEDIAN_RAW
        with pytest.raises(BadParameter, match="choose from: per10k, median, median-nolog"):
            pipeline_from_token("cpm")


class TestMeanEffects:
    def test_hand_example(self):
        normalized = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 10.0]])
        effects = mean_effects(normalized, ["control", "control", "A", "A"], ("g1", "g2"))
        assert effects.perturbation_ids == ("A",)
        assert effects.values[0].tolist() == [4.0, 5.0]

    def test_zero_effect_when_matching_control_mean(self):
        normalized = np.array([[1.0, 2.0], [3.0, 4.0], [2.0, 3.0]])
        effects = mean_effects(normalized, ["control", "control", "A"], ("g1", "g2"))
        assert effects.values[0].tolist() == [0.0, 0.0]

    def test_single_perturbed_cell(self):
        normalized = np.array([[1.0, 1.0], [5.0, 2.0]])
        effects = mean_effects(normalized, ["control", "A"], ("g1", "g2"))
        assert effects.values[0].tolist() == [4.0, 1.0]

    def test_missing_control(self):
        with pytest.raises(MissingControl):
            mean_effects(np.ones((2, 2)), ["A", "A"], ("g1", "g2"))

    def test_cell_count_mismatch(self):
        with pytest.raises(ValidationError, match="disagree on cell count"):
            mean_effects(np.ones((3, 2)), ["control", "A"], ("g1", "g2"))

    def test_linear_in_the_normalized_matrix(self):
        rng = np.random.default_rng(73)
        a = rng.standard_normal((10, 6))
        b = rng.standard_normal((10, 6))
        labels = ["control"] * 4 + ["A"] * 3 + ["B"] * 3
        genes = tuple(f"g{j}" for j in range(6))
        summed = mean_effects(a + b, labels, genes)
        separate = mean_effects(a, labels, genes).values + mean_effects(b, labels, genes).values
        assert np.allclose(summed.values, separate, atol=1e-12)

    def test_perturbations_sorted(self):
        normalized = np.arange(8.0).reshape(4, 2)
        effects = mean_effects(normalized, ["control", "B", "A", "control"], ("g1", "g2"))
        assert effects.perturbation_ids == ("A", "B")


ZERO_EFFECT_ROWS = [[1, 2, 3], [2, 1, 3], [1, 2, 3], [2, 1, 3], [5, 0, 1]]
ZERO_EFFECT_CONDITIONS = ["control", "control", "A", "A", "B"]


class TestComparePipelines:
    def test_self_comparison_is_identity(self):
        rng = np.random.default_rng(74)
        cm = counts_of(rng.integers(0, 30, (20, 15)) + 1, ["control"] * 10 + ["A"] * 5 + ["B"] * 5)
        result = compare_pipelines(cm, PER10K, PER10K)
        assert np.allclose(result.cosine_between, 1.0, atol=1e-12)
        assert np.array_equal(result.l1_norm_a, result.l1_norm_b)
        assert np.array_equal(result.l2_norm_a, result.l2_norm_b)

    def test_equal_library_sizes_make_median_factors_trivial(self):
        # all cells share library size 20, so median scaling changes nothing
        # and the pipelines differ only by the 10k rescaling inside log1p
        rows = [
            [5, 5, 5, 5],
            [5, 5, 5, 5],
            [4, 6, 5, 5],
            [10, 4, 3, 3],
            [8, 6, 3, 3],
            [12, 2, 3, 3],
        ]
        cm = counts_of(rows, ["control"] * 3 + ["A", "A", "A"])
        assert len(set(cm.library_sizes().tolist())) == 1
        result = compare_pipelines(cm, PER10K, MEDIAN)
        assert result.cosine_between[0] > 0.9
        assert not np.allclose(result.l1_norm_a, result.l1_norm_b, rtol=0.05)

    def test_heterogeneous_library_sizes_diverge_in_norm_not_direction(self):
        from pdscore import CountSynthSpec, generate_counts

        counts = generate_counts(
            CountSynthSpec(
                n_perturbations=8,
                cells_per_condition=40,
                n_genes=300,
                mean_counts_per_cell=1500.0,
                libsize_sigma=0.6,
                seed=99,
            )
        )
        libs = counts.library_sizes()
        assert libs.max() / libs.min() > 3.0
        result = compare_pipelines(counts, PER10K, MEDIAN)
        assert np.all(result.cosine_between > 0.9)
        ratio = np.maximum(result.l1_norm_a, result.l1_norm_b) / np.minimum(
            result.l1_norm_a, result.l1_norm_b
        )
        assert float(np.median(ratio)) > 1.2
        assert np.all(np.abs(result.sign_cosine_between) <= 1.0)

    def test_arrays_are_readonly(self):
        rng = np.random.default_rng(75)
        cm = counts_of(rng.integers(0, 30, (12, 9)) + 1, ["control"] * 6 + ["A"] * 3 + ["B"] * 3)
        result = compare_pipelines(cm, PER10K, MEDIAN)
        arrays = [getattr(result, f.name) for f in fields(result)[3:]]
        assert len(arrays) == 6
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_zero_effect_gets_nan_cosines_and_the_rest_are_reported(self):
        # perturbation A's cells repeat the control cells, so its effect is the zero vector
        cm = counts_of(ZERO_EFFECT_ROWS, ZERO_EFFECT_CONDITIONS)
        result = compare_pipelines(cm, PER10K, MEDIAN)
        assert result.perturbation_ids == ("A", "B")
        assert result.l1_norm_a[0] == result.l2_norm_b[0] == 0.0
        assert np.isnan(result.cosine_between[0]) and np.isnan(result.sign_cosine_between[0])
        assert np.isfinite(result.cosine_between[1]) and np.isfinite(result.sign_cosine_between[1])

    def test_all_zero_sign_vector_gets_nan_sign_cosine(self):
        cm = counts_of(ZERO_EFFECT_ROWS, ZERO_EFFECT_CONDITIONS)
        result = compare_pipelines(cm, PER10K, MEDIAN, sign_threshold=1e6)
        assert np.isnan(result.sign_cosine_between).all()
        assert np.isfinite(result.cosine_between[1])

    def test_non_finite_sign_threshold_rejected(self):
        cm = counts_of([[5, 3, 2], [4, 4, 2], [9, 1, 2]], ["control", "control", "A"])
        for threshold in (math.nan, math.inf):
            with pytest.raises(BadParameter, match="must be finite and >= 0"):
                compare_pipelines(cm, PER10K, MEDIAN, threshold)
        zero_effect = counts_of(ZERO_EFFECT_ROWS, ZERO_EFFECT_CONDITIONS)
        with pytest.raises(BadParameter, match="must be finite and >= 0"):
            compare_pipelines(zero_effect, PER10K, MEDIAN, math.nan)


@st.composite
def comparison_cases(draw):
    """Counts whose perturbations each either repeat the control cells (a zero effect
    under every pipeline) or draw their own, two pipelines and a sign threshold: 0, one
    that leaves some signs, or one that leaves none."""
    n_genes, n_cells = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    block = arrays(np.int64, (n_cells, n_genes), elements=st.integers(0, 40))
    control = draw(block)
    rows, conditions = [control], ["control"] * n_cells
    for k in range(draw(st.integers(1, 4))):
        rows.append(control if draw(st.booleans()) else draw(block))
        conditions += [f"P{k}"] * n_cells
    counts = np.vstack(rows)
    counts[:, 0] += 1  # no empty library
    pipelines = draw(st.tuples(st.sampled_from(PipelineSpec), st.sampled_from(PipelineSpec)))
    threshold = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1e6)))
    return counts_of(counts, conditions), pipelines, threshold


def _same_bits(got, want) -> bool:
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=150, deadline=None)
@given(comparison_cases())
def test_between_columns_equal_the_scalar_references(case):
    """cosine_between and sign_cosine_between equal the scalar cosine and sign cosine of
    each pair of effect rows bit for bit, NaN where a zero effect or an all-zero sign
    vector leaves them undefined."""
    cm, (spec_a, spec_b), threshold = case
    a, b = (
        mean_effects(normalize(cm, spec), cm.cell_condition, cm.gene_ids).values
        for spec in (spec_a, spec_b)
    )

    def defined(measure, *args):
        try:
            return measure(*args)
        except ZeroVector:  # ZeroSignVector too
            return math.nan

    result = compare_pipelines(cm, spec_a, spec_b, threshold)
    want_cosine = np.array([defined(cosine, x, y) for x, y in zip(a, b)])
    want_sign = np.array([defined(sign_cosine, x, y, threshold) for x, y in zip(a, b)])
    assert _same_bits(result.cosine_between, want_cosine)
    assert _same_bits(result.sign_cosine_between, want_sign)
