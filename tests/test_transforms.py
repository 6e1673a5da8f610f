import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pdscore import (
    BadParameter,
    DistanceKind,
    DistanceSpec,
    EffectMatrix,
    NonpositiveScale,
    TransformDescriptor,
    TransformKind,
    ValidationError,
    ZeroPredictionNorm,
    apply_chain,
    chain_tokens,
    compute_pds,
    global_scale,
    norm_match,
    parse_chain,
    sign_project,
)

from helpers import pair_from, random_pair


class TestGlobalScale:
    def test_identity_scale(self):
        pair = random_pair(np.random.default_rng(1), n=3, p=4)
        scaled = global_scale(pair.predicted, 1.0)
        assert np.array_equal(scaled.values, pair.predicted.values)

    def test_hand_value(self):
        pair = pair_from([[3.0, 4.0], [1.0, 1.0]], [[1.0, 1.0], [2.0, 2.0]])
        scaled = global_scale(pair.predicted, 2.0)
        assert scaled.values[0].tolist() == [6.0, 8.0]

    def test_norm_homogeneity(self):
        rng = np.random.default_rng(2)
        pair = random_pair(rng, n=5, p=7)
        c = 3.7
        scaled = global_scale(pair.predicted, c)
        before = np.linalg.norm(pair.predicted.values, axis=1)
        after = np.linalg.norm(scaled.values, axis=1)
        assert np.allclose(after, c * before, rtol=1e-12)

    def test_rejects_nonpositive(self):
        pair = random_pair(np.random.default_rng(3), n=2, p=2)
        for c in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(NonpositiveScale):
                global_scale(pair.predicted, c)


    def test_overflow_names_the_scale_and_the_first_row(self):
        pair = pair_from([[1.0, 2.0], [1e300, 1.0], [-1e308, 0.0]], np.ones((3, 2)))
        for c, row in ((10.0, "10 overflows the predicted effects of 'P0002'"),
                       (1e10, "1e+10 overflows the predicted effects of 'P0001'")):
            with pytest.raises(ValidationError) as caught:
                global_scale(pair.predicted, c)
            assert str(caught.value) == f"scale factor {row}"


class TestNormMatch:
    def test_l2_hand_value(self):
        pair = pair_from([[3.0, 4.0], [1.0, 0.0]], [[1.0, 1.0], [0.0, 2.0]])
        matched = norm_match(pair, 2)
        c = math.sqrt(2.0) / 5.0
        assert matched.predicted.values[0] == pytest.approx([3 * c, 4 * c], rel=1e-12)
        assert float(np.linalg.norm(matched.predicted.values[0])) == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )

    def test_l1_hand_value(self):
        pair = pair_from([[3.0, 4.0], [1.0, 0.0]], [[1.0, 1.0], [0.0, 2.0]])
        matched = norm_match(pair, 1)
        assert matched.predicted.values[0] == pytest.approx([6 / 7, 8 / 7], rel=1e-12)
        assert float(np.abs(matched.predicted.values[0]).sum()) == pytest.approx(2.0, rel=1e-12)

    def test_fixed_point_when_norms_already_match(self):
        pair = pair_from([[3.0, 4.0], [0.0, 1.0]], [[5.0, 0.0], [1.0, 0.0]])
        matched = norm_match(pair, 2)
        assert np.array_equal(matched.predicted.values, pair.predicted.values)

    def test_norms_match_to_tolerance(self):
        rng = np.random.default_rng(4)
        pair = random_pair(rng, n=20, p=15)
        for p_norm in (1, 2):
            matched = norm_match(pair, p_norm)
            if p_norm == 1:
                got = np.abs(matched.predicted.values).sum(axis=1)
                want = np.abs(pair.truth.values).sum(axis=1)
            else:
                got = np.linalg.norm(matched.predicted.values, axis=1)
                want = np.linalg.norm(pair.truth.values, axis=1)
            assert np.allclose(got, want, rtol=1e-12)

    def test_truth_side_untouched(self):
        pair = random_pair(np.random.default_rng(5), n=4, p=3)
        matched = norm_match(pair, 2)
        assert np.array_equal(matched.truth.values, pair.truth.values)

    def test_zero_prediction_row_is_hard_error(self):
        pair = pair_from([[0.0, 0.0], [1.0, 2.0]], [[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(ZeroPredictionNorm, match="P0000"):
            norm_match(pair, 2)

    def test_a_norm_or_matched_value_that_overflows_is_refused(self):
        """With no warning, naming the row: a prediction norm, a truth norm or a ratio of
        norms past the float range (an l2 norm whose exact value is, though no value is);
        where a prediction norm is infinite, the first row that is or that overflows,
        before any zero row."""
        big = [1.5e308, 1.5e308]  # l2 norm 2.1e308
        cases = [
            (1, [[1.0, 1.0], [1e308, 1e308]], [[1.0, 0.0], [1.0, 0.0]]),  # prediction norm
            (2, [[1.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], big]),  # truth norm
            (1, [[1.0, 1.0], [1e-300, 0.0]], [[1.0, 0.0], [1e300, 0.0]]),  # ratio
            (2, [[0.0, 0.0], big], [[1.0, 0.0], [1.0, 0.0]]),  # past a zero row
            # a ratio that overflows, before a later infinite prediction norm
            (1, [[1.0, 1.0], [1e-300, 0.0], [1e308, 1e308]],
             [[1.0, 0.0], [1e300, 0.0], [1.0, 0.0]]),
        ]
        for p_norm, pred, truth in cases:
            message = f"l{p_norm} norm matching overflows .* 'P0001'"
            with pytest.raises(ValidationError, match=message):
                norm_match(pair_from(pred, truth), p_norm)

    def test_rows_whose_squares_leave_the_float_range_are_matched(self):
        truth = [[3.0, 4.0]]
        for row in ([1e160, 2e160], [1e-170, 2e-170]):
            for p_norm in (1, 2):
                matched = norm_match(pair_from([row], truth), p_norm).predicted.values[0]
                want = np.array([1.0, 2.0]) * (7.0 / 3.0 if p_norm == 1 else math.sqrt(5.0))
                assert matched == pytest.approx(want, rel=1e-15)

    # zeros and magnitudes from 0.5 to 2, so that every 2^k below keeps these values,
    # their norms' ratios and the matched values normal
    ENTRY = st.one_of(st.just(0.0), st.floats(0.5, 2.0), st.floats(-2.0, -0.5))

    @given(
        arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6)), elements=ENTRY),
        st.data(), st.integers(-900, 900), st.sampled_from([1, 2]),
    )
    def test_commutes_with_powers_of_two(self, pred, data, k, p_norm):
        """norm_match(2^k P, T) equals norm_match(P, T) and norm_match(P, 2^k T) equals
        2^k norm_match(P, T), bit for bit, for k that keep every value and ratio normal."""
        assume(np.abs(pred).max(axis=1).min() > 0.0)  # a zero prediction row is refused
        truth = data.draw(arrays(np.float64, pred.shape, elements=self.ENTRY))
        matched = lambda p, t: norm_match(pair_from(p, t), p_norm).predicted.values.tobytes()
        base = norm_match(pair_from(pred, truth), p_norm).predicted.values
        assert matched(pred * 2.0**k, truth) == base.tobytes()
        assert matched(pred, truth * 2.0**k) == (base * 2.0**k).tobytes()

    def test_bad_p_norm(self):
        pair = random_pair(np.random.default_rng(6), n=2, p=2)
        with pytest.raises(BadParameter):
            norm_match(pair, 3)

    def test_idempotent_and_absorbs_global_scale(self):
        rng = np.random.default_rng(7)
        pair = random_pair(rng, n=10, p=8)
        for p_norm in (1, 2):
            once = norm_match(pair, p_norm)
            twice = norm_match(once, p_norm)
            assert np.allclose(twice.predicted.values, once.predicted.values, rtol=1e-10)
            for c in (1e-3, 5.0, 1e3):
                prescaled = pair.with_predicted(global_scale(pair.predicted, c))
                absorbed = norm_match(prescaled, p_norm)
                assert np.allclose(absorbed.predicted.values, once.predicted.values, rtol=1e-10)

    def test_cosine_to_fixed_vector_preserved(self):
        rng = np.random.default_rng(8)
        pair = random_pair(rng, n=6, p=9)
        probe = rng.standard_normal(9)
        matched = norm_match(pair, 2)
        scaled = global_scale(pair.predicted, 17.0)
        for before, after in ((pair.predicted.values, matched.predicted.values),
                              (pair.predicted.values, scaled.values)):
            for row_before, row_after in zip(before, after):
                cos_before = row_before @ probe / (np.linalg.norm(row_before) * np.linalg.norm(probe))
                cos_after = row_after @ probe / (np.linalg.norm(row_after) * np.linalg.norm(probe))
                assert cos_after == pytest.approx(cos_before, rel=1e-12)


class TestSignProject:
    def test_examples(self):
        pair = pair_from([[-2.5, 0.0, 3.0], [1.0, 2.0, 0.5]], np.zeros((2, 3)) + 1.0)
        projected = sign_project(pair.predicted)
        assert projected.values[0].tolist() == [-1.0, 0.0, 1.0]
        assert projected.values[1].tolist() == [1.0, 1.0, 1.0]

    def test_threshold(self):
        pair = pair_from([[0.05, -0.2]], [[1.0, 1.0]])
        projected = sign_project(pair.predicted, threshold=0.1)
        assert projected.values[0].tolist() == [0.0, -1.0]


    @given(
        arrays(
            np.float64, st.tuples(st.integers(1, 5), st.integers(1, 6)),
            elements=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
        ),
        st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    )
    def test_rows_are_their_thresholded_signs(self, values, threshold):
        perts = [f"P{i}" for i in range(values.shape[0])]
        matrix = EffectMatrix(values, perts, [f"G{j}" for j in range(values.shape[1])])
        got = sign_project(matrix, threshold).values
        want = [np.where(np.abs(row) <= threshold, 0.0, np.sign(row)) for row in values]
        assert got.tobytes() == np.array(want).tobytes()


class TestApplyChain:
    def test_empty_chain_is_identity(self):
        pair = random_pair(np.random.default_rng(9), n=3, p=4)
        out = apply_chain(pair, ())
        assert np.array_equal(out.predicted.values, pair.predicted.values)
        assert out.transform_chain == ()

    def test_chain_recorded_and_propagated_to_report(self):
        pair = random_pair(np.random.default_rng(10), n=4, p=5)
        chain = parse_chain("scale:2,norm-match:l2")
        out = apply_chain(pair, chain)
        assert chain_tokens(out.transform_chain) == ["scale:2", "norm-match:l2"]
        report = compute_pds(out, DistanceSpec(DistanceKind.L2))
        assert report.transform_chain == out.transform_chain

    def test_scale_then_norm_match_equals_norm_match_alone(self):
        rng = np.random.default_rng(11)
        pair = random_pair(rng, n=12, p=10)
        for p_norm, metric in ((1, DistanceKind.L1), (2, DistanceKind.L2)):
            token = f"norm-match:l{p_norm}"
            plain = apply_chain(pair, parse_chain(token))
            for c in (1e-3, 1.0, 1e3):
                both = apply_chain(pair, parse_chain(f"scale:{c},{token}"))
                assert np.allclose(
                    both.predicted.values, plain.predicted.values, rtol=1e-10
                )
                report_both = compute_pds(both, DistanceSpec(metric))
                report_plain = compute_pds(plain, DistanceSpec(metric))
                assert np.array_equal(report_both.ranks(), report_plain.ranks())

    def test_norm_match_l1_postcondition_via_chain(self):
        pair = random_pair(np.random.default_rng(12), n=6, p=7)
        out = apply_chain(pair, parse_chain("norm-match:l1"))
        assert np.allclose(
            np.abs(out.predicted.values).sum(axis=1),
            np.abs(pair.truth.values).sum(axis=1),
            rtol=1e-12,
        )


class TestChainGrammar:
    def test_parse_round_trip(self):
        chain = parse_chain("scale:3.0,norm-match:l2,sign:0.1,norm-match:l1")
        assert [d.kind for d in chain] == [
            TransformKind.GLOBAL_SCALE,
            TransformKind.NORM_MATCH_L2,
            TransformKind.SIGN_PROJECT,
            TransformKind.NORM_MATCH_L1,
        ]
        assert chain[0].parameter == 3.0
        assert chain[2].parameter == 0.1
        assert chain_tokens(chain) == ["scale:3", "norm-match:l2", "sign:0.1", "norm-match:l1"]

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(
                    lambda c: TransformDescriptor(TransformKind.GLOBAL_SCALE, c)
                ),
                st.floats(min_value=0.0, allow_infinity=False).map(
                    lambda t: TransformDescriptor(TransformKind.SIGN_PROJECT, t)
                ),
                st.sampled_from(
                    [
                        TransformDescriptor(TransformKind.NORM_MATCH_L1),
                        TransformDescriptor(TransformKind.NORM_MATCH_L2),
                    ]
                ),
            ),
            max_size=5,
        ).map(tuple)
    )
    def test_tokens_round_trip(self, chain):
        assert parse_chain(",".join(chain_tokens(chain))) == chain

    def test_empty_text(self):
        assert parse_chain("") == ()
        assert parse_chain("  ") == ()

    def test_bad_tokens(self):
        for text in ("bogus", "norm-match:l3", "scale:abc", "sign:", "scale:"):
            with pytest.raises(BadParameter, match="scale:<c>"):
                parse_chain(text)

    def test_descriptor_validation(self):
        with pytest.raises(NonpositiveScale):
            TransformDescriptor(TransformKind.GLOBAL_SCALE, -2.0)
        with pytest.raises(NonpositiveScale):
            TransformDescriptor(TransformKind.GLOBAL_SCALE, None)
        with pytest.raises(BadParameter):
            TransformDescriptor(TransformKind.SIGN_PROJECT, -0.5)
        with pytest.raises(BadParameter):
            TransformDescriptor(TransformKind.NORM_MATCH_L1, 2.0)
