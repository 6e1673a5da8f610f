import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from pdscore import (
    BadIndex,
    DistanceKind,
    DistanceSpec,
    ErrorPolicy,
    PdsError,
    ValidationError,
    ZeroVector,
    compute_pds,
    cosine,
    dist_l1,
    dist_l2,
    oracle_pds,
    pds_row,
    sign_cosine,
)

from helpers import pair_from, per_anchor_pds, random_pair

ALL_FOUR = [
    DistanceSpec(DistanceKind.L1),
    DistanceSpec(DistanceKind.L2),
    DistanceSpec(DistanceKind.COSINE_DISSIM),
    DistanceSpec(DistanceKind.SIGN_COSINE_DISSIM),
]


def brute_rank(distances, true_index):
    """Full sort; mid-rank is the average of the positions the tied group occupies."""
    d = list(map(float, distances))
    order = sorted(range(len(d)), key=lambda j: d[j])
    positions = [k for k, j in enumerate(order) if d[j] == d[true_index]]
    return sum(positions) / len(positions) + 1.0


class TestPdsRow:
    def test_strict_second_place(self):
        assert pds_row([2.0, 5.0, 1.0], 0) == (2.0, 0.5)

    def test_strict_minimum_is_perfect(self):
        assert pds_row([0.0, 3.0, 7.0], 0) == (1.0, 1.0)

    def test_tie_uses_mid_rank(self):
        assert pds_row([2.0, 2.0, 3.0], 0) == (1.5, 0.75)

    def test_worst_case_is_zero(self):
        rank, value = pds_row([9.0, 1.0, 2.0], 0)
        assert (rank, value) == (3.0, 0.0)

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            pds_row([1.0, 2.0], 5)
        with pytest.raises(BadIndex):
            pds_row([1.0, 2.0], -1)

    def test_requires_two_candidates_and_finite(self):
        with pytest.raises(ValidationError):
            pds_row([1.0], 0)
        with pytest.raises(ValidationError):
            pds_row([np.nan, 1.0], 0)

    def test_agrees_with_sorting_oracle_on_random_and_tied_instances(self):
        rng = np.random.default_rng(123)
        for trial in range(10_000):
            n = int(rng.integers(2, 13))
            if trial % 2 == 0:
                d = rng.integers(0, 5, n).astype(float)  # heavy ties
            else:
                d = rng.standard_normal(n)
            idx = int(rng.integers(0, n))
            rank, value = pds_row(d, idx)
            expected_rank = brute_rank(d, idx)
            assert rank == expected_rank
            assert value == 1.0 - (expected_rank - 1.0) / (n - 1.0)

    def test_rank_invariant_under_strictly_increasing_maps(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            d = rng.standard_normal(n)
            idx = int(rng.integers(0, n))
            base = pds_row(d, idx)
            for transform in (lambda x: 2.0 * x + 3.0, np.exp, lambda x: x**3):
                assert pds_row(transform(d), idx) == base


class TestComputePds:
    def test_perfect_prediction_scores_one_under_all_metrics(self):
        rng = np.random.default_rng(42)
        truth = rng.standard_normal((15, 20))
        pair = pair_from(truth, truth)
        for spec in ALL_FOUR:
            report = compute_pds(pair, spec)
            assert report.mean_pds == 1.0
            assert all(e.rank == 1.0 for e in report.per_perturbation)

    def test_worst_case_scores_zero(self):
        # orthogonal unit truths, predictions exactly opposite: the true
        # cosine dissimilarity (2) strictly exceeds every cross value (1)
        truth = np.eye(4)
        pair = pair_from(-truth, truth)
        for kind in (DistanceKind.COSINE_DISSIM, DistanceKind.SIGN_COSINE_DISSIM):
            report = compute_pds(pair, DistanceSpec(kind))
            assert report.mean_pds == 0.0

    def test_random_noise_scores_near_half(self):
        rng = np.random.default_rng(2024)
        means = {spec.token: [] for spec in ALL_FOUR}
        for _ in range(4):
            pair = pair_from(rng.standard_normal((60, 120)), rng.standard_normal((60, 120)))
            for spec in ALL_FOUR:
                means[spec.token].append(compute_pds(pair, spec).mean_pds)
        for token, values in means.items():
            assert abs(float(np.mean(values)) - 0.5) < 0.05, token

    def test_mean_is_average_of_entries(self):
        pair = random_pair(np.random.default_rng(5), n=9, p=4)
        report = compute_pds(pair, DistanceSpec(DistanceKind.L1))
        assert report.mean_pds == pytest.approx(float(report.pds_values().mean()), abs=0.0)
        assert np.all(report.ranks() >= 1.0)
        assert np.all(report.ranks() <= 9.0)

    def test_needs_two_perturbations(self):
        # bypass align: construct a 1-row pair directly
        with pytest.raises(ValidationError):
            compute_pds(pair_from([[1.0, 2.0]], [[1.0, 2.0]]), DistanceSpec(DistanceKind.L1))

    def test_cosine_rank_invariance_under_per_row_scaling(self):
        rng = np.random.default_rng(8)
        pair = random_pair(rng, n=12, p=18)
        factors = 10.0 ** rng.uniform(-6, 6, 12)
        scaled = pair.with_predicted(
            pair.predicted.with_values(pair.predicted.values * factors[:, None])
        )
        for kind in (DistanceKind.COSINE_DISSIM, DistanceKind.SIGN_COSINE_DISSIM):
            base = compute_pds(pair, DistanceSpec(kind))
            after = compute_pds(scaled, DistanceSpec(kind))
            assert np.array_equal(base.ranks(), after.ranks())

    def test_masking_changes_only_masked_anchor(self):
        rng = np.random.default_rng(9)
        pred = rng.standard_normal((4, 6))
        truth = rng.standard_normal((4, 6))
        pred[0, 2] = 50.0  # dominant coordinate that masking removes
        pair = pair_from(pred, truth, {"P0000": "G0002"})
        spec = DistanceSpec(DistanceKind.L2)
        masked = compute_pds(pair, spec, apply_target_mask=True)
        unmasked = compute_pds(pair, spec, apply_target_mask=False)
        assert masked.per_perturbation[0].true_distance != unmasked.per_perturbation[0].true_distance
        for i in range(1, 4):
            assert masked.per_perturbation[i] == unmasked.per_perturbation[i]

    def test_error_policy_worst_flags_anchor(self):
        pred = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
        truth = np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 3.0]])
        pair = pair_from(pred, truth)
        report = compute_pds(pair, DistanceSpec(DistanceKind.COSINE_DISSIM))
        first = report.per_perturbation[0]
        assert first.error is not None
        assert first.pds == 0.0
        assert first.rank == 3.0
        assert np.isnan(first.true_distance)
        assert all(e.error is None for e in report.per_perturbation[1:])

    def test_undefined_anchors_leave_no_reference_cycles(self):
        """The kernel's error for undefined rows, and the arrays its traceback
        holds, are freed when compute_pds has read it, not by a later gc pass."""
        import gc

        pair = pair_from(np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]]), np.ones((3, 2)))
        gc.collect()
        gc.disable()
        try:
            for kind in (DistanceKind.COSINE_DISSIM, DistanceKind.SIGN_COSINE_DISSIM):
                compute_pds(pair, DistanceSpec(kind), workers=2)
                compute_pds(pair, DistanceSpec(kind))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_error_policy_skip_excludes_anchor_from_mean(self):
        # well-matched anchors after the failing one, so the two policies
        # produce different means
        pred = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 3.0]])
        truth = np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 3.0]])
        pair = pair_from(pred, truth)
        worst = compute_pds(pair, DistanceSpec(DistanceKind.COSINE_DISSIM))
        skip = compute_pds(
            pair, DistanceSpec(DistanceKind.COSINE_DISSIM), error_policy=ErrorPolicy.SKIP
        )
        kept = [e.pds for e in skip.per_perturbation if e.error is None]
        assert skip.mean_pds == pytest.approx(float(np.mean(kept)), abs=0.0)
        assert skip.mean_pds != worst.mean_pds

    def test_all_anchors_failing_raises_under_skip(self):
        pred = np.array([[1.0, 1.0], [2.0, 1.0]])
        truth = np.array([[0.0, 0.0], [1.0, 2.0]])  # zero truth row poisons every anchor
        pair = pair_from(pred, truth)
        report = compute_pds(pair, DistanceSpec(DistanceKind.COSINE_DISSIM))
        assert report.mean_pds == 0.0
        with pytest.raises(ValidationError):
            compute_pds(
                pair, DistanceSpec(DistanceKind.COSINE_DISSIM), error_policy=ErrorPolicy.SKIP
            )

    def test_parallel_equals_serial_bitwise(self):
        rng = np.random.default_rng(33)
        pair = random_pair(rng, n=37, p=20)
        for spec in ALL_FOUR:
            serial = compute_pds(pair, spec, workers=1)
            parallel = compute_pds(pair, spec, workers=4)
            assert serial == parallel


@st.composite
def screened_cases(draw):
    """A pair with exact ties, zero rows and zero coordinates at magnitudes 1e-150 to 1e150.

    Integer-valued cells make equal measures to distinct truth rows common;
    repeated truth rows and predictions equal to their truth tie exactly. l1
    often leaves more than n pairs undecided, more than one gathered chunk,
    and 2 to 4 workers split up to 12 anchors into unequal blocks.
    """
    n = draw(st.integers(2, 12))
    p = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pred, truth = rng.integers(-2, 3, (n, p)), rng.integers(-2, 3, (n, p))
    else:
        pred, truth = rng.standard_normal((n, p)), rng.standard_normal((n, p))
    pred_scale = 10.0 ** draw(st.integers(-150, 150))
    pred = pred * pred_scale
    truth = truth * 10.0 ** draw(st.integers(-150, 150))
    pred[rng.random((n, p)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    for _ in range(draw(st.integers(0, 2))):
        j, k = rng.integers(n, size=2)
        truth[j] = truth[k]
    if draw(st.booleans()):
        pred[0] = truth[0]
    if draw(st.booleans()):
        pred[-1] = 0.0
    if draw(st.booleans()):
        truth[rng.integers(n)] = 0.0
    masked = [i for i in range(n) if rng.random() < 0.7]
    targets = {f"P{i:04d}": f"G{int(rng.integers(p)):04d}" for i in masked}
    threshold = draw(st.sampled_from([0.0, 0.5])) * pred_scale
    policy = draw(st.sampled_from(list(ErrorPolicy)))
    return pair_from(pred, truth, targets), threshold, policy, draw(st.integers(1, 4))


def _outcome(score):
    try:
        return repr(score())
    except PdsError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(screened_cases())
def test_screened_ranks_equal_measuring_every_candidate(case):
    pair, threshold, policy, workers = case
    for kind in DistanceKind:
        spec = DistanceSpec(kind, threshold)
        for mask in (False, True):
            got = _outcome(
                lambda: compute_pds(pair, spec, mask, error_policy=policy, workers=workers)
            )
            want = _outcome(lambda: per_anchor_pds(pair, spec, mask, policy))
            assert got == want, (kind.value, mask)
            assert got == _outcome(lambda: oracle_pds(pair, spec, mask, policy)), (kind.value, mask)


def _deleted_measure(spec, a, r):
    """One measure from scalar formulas; the limit kinds written out here."""
    kind, t = spec.kind, spec.sign_threshold
    if kind is DistanceKind.L1:
        return dist_l1(a, r)
    if kind is DistanceKind.L2:
        return dist_l2(a, r)
    if kind is DistanceKind.COSINE_DISSIM:
        return 1.0 - cosine(a, r)
    if kind is DistanceKind.SIGN_COSINE_DISSIM:
        return 1.0 - sign_cosine(a, r, t)
    if kind is DistanceKind.L2_LIMIT:
        return -float(sum(x * y for x, y in zip(a, r)))
    signs = [0.0 if abs(x) <= t else float(np.sign(x)) for x in a]
    return float(sum(abs(y) if s == 0.0 else -s * y for s, y in zip(signs, r)))


def _deletion_reference(pred, truth, columns, spec, policy):
    """Report fields when each masked anchor's target column is deleted with
    np.delete: scalar measures, mid-ranks from a full sort, the policy's mean."""
    n, entries = len(pred), []
    for i in range(n):
        a, rows = pred[i], truth
        if i in columns:
            a, rows = np.delete(a, columns[i]), np.delete(rows, columns[i], axis=1)
        try:
            d = [_deleted_measure(spec, a, r) for r in rows]
        except ZeroVector as exc:
            nan, worst = float("nan"), policy is ErrorPolicy.WORST
            entries.append((nan, float(n) if worst else nan, 0.0 if worst else nan, str(exc)))
            continue
        rank = float(rankdata(d, method="average")[i])
        entries.append((d[i], rank, 1.0 - (rank - 1.0) / (n - 1.0), None))
    values = [e[2] for e in entries if policy is ErrorPolicy.WORST or e[3] is None]
    return repr((entries, float(np.mean(values)))) if values else "every anchor failed"


@pytest.mark.parametrize("targets", ["absent", "mixed", "shared"])
@pytest.mark.parametrize("threshold", [0.0, 3.5])
@pytest.mark.parametrize("kind", list(DistanceKind))
def test_zeroing_the_target_equals_deleting_it(kind, threshold, targets):
    """Small integers make every sum exact, so zeroing a masked target must give
    the deletion reference's reports bit for bit."""
    spec = DistanceSpec(kind, threshold)
    for seed in range(10):
        rng = np.random.default_rng([seed, len(targets)])
        n, p = rng.integers(4, 9), rng.integers(2, 7)
        pred, truth = rng.integers(-6, 7, (2, n, p)).astype(float)
        pred[rng.random((n, p)) < 0.3] = 0.0
        truth[1] = truth[0]  # a duplicated truth row
        if seed % 3 == 1:
            pred[2] = 0.0
        elif seed % 3 == 2:
            truth[3] = 0.0
        columns = {}
        if targets == "mixed":
            columns = {i: int(rng.integers(p)) for i in range(n) if rng.random() < 0.5}
        elif targets == "shared":
            columns = dict.fromkeys(range(n - 1), int(rng.integers(p)))
            truth[n - 1] = 0.0
            truth[n - 1, columns[0]] = 5.0  # zero once the shared target is masked
        pair = pair_from(pred, truth, {f"P{i:04d}": f"G{j:04d}" for i, j in columns.items()})
        for policy in ErrorPolicy:
            want = _deletion_reference(pred, truth, columns, spec, policy)
            try:
                report = compute_pds(pair, spec, True, error_policy=policy, workers=1 + seed % 3)
            except ValidationError as exc:
                assert str(exc) == "every anchor failed; nothing to average"
                got = "every anchor failed"
            else:
                entries = [
                    (e.true_distance, e.rank, e.pds, e.error) for e in report.per_perturbation
                ]
                got = repr((entries, report.mean_pds))
            assert got == want, (seed, policy)
