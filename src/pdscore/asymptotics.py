"""Large-scale limit behavior of the norm-based rankings.

Multiplying all predictions by a factor c leaves directions unchanged but
moves the l1/l2 rankings toward c-independent limits. For l2 the squared
distance to candidate r is c^2|a|^2 + |r|^2 - 2c a.r, so the gap between
two candidates is affine in c and beyond a computable threshold the full
ranking equals the limit ranking exactly. For l1 each coordinate resolves
to c|a_j| - sign(a_j) r_j once c|a_j| >= |r_j|, with coordinates where the
prediction is exactly zero contributing the constant |r_j| instead; the
same kind of finite threshold follows.
"""

from dataclasses import dataclass

import numpy as np

from .discrimination import ErrorPolicy, compute_pds
from .effects import EffectMatrix, EffectPair, anchor_subproblem
from .errors import BadParameter, DegeneratePair
from .metrics import DistanceKind, DistanceSpec, pairwise_to_rows, sign_vector
from .transforms import global_scale

DEFAULT_SWEEP_SCALES = tuple(float(x) for x in np.geomspace(1e-2, 1e4, 25))


@dataclass(frozen=True)
class LimitSurrogateRow:
    """Limit scores for one anchor; smaller means closer in the limit."""

    anchor_index: int
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)


@dataclass(frozen=True)
class ScaleSweepResult:
    """Mean discrimination score per metric over a grid of global scales."""

    scales: tuple[float, ...]
    mean_pds_per_scale: dict
    limit_mean_pds: dict


def _truth_rows(truth) -> np.ndarray:
    if isinstance(truth, EffectMatrix):
        return truth.values
    return np.asarray(truth, dtype=np.float64)


def l2_limit_scores(predicted_row, truth, anchor_index: int = -1) -> LimitSurrogateRow:
    """Scores whose ascending order is the large-scale limit of the l2 ranking.

    The score for candidate r is -(a . r): squared-distance gaps between
    candidates reduce to inner-product gaps as the scale grows, so the limit
    ranking is inner-product based. It coincides with the cosine ranking
    only when all candidate norms are equal.
    """
    scores = pairwise_to_rows(
        DistanceSpec(DistanceKind.L2_LIMIT), predicted_row, _truth_rows(truth)
    )
    return LimitSurrogateRow(anchor_index, scores)


def l1_limit_scores(
    predicted_row,
    truth,
    sign_threshold: float = 0.0,
    *,
    corrected: bool = True,
    anchor_index: int = -1,
) -> LimitSurrogateRow:
    """Scores whose ascending order is the large-scale limit of the l1 ranking.

    Corrected form: -(sum over sign(a_j) != 0 of sign(a_j) r_j)
    + (sum over sign(a_j) == 0 of |r_j|). Coordinates where the prediction
    is exactly zero contribute |r_j| at every scale, so the second term is
    required for the scores to match brute-force rankings; corrected=False
    drops it (the plain weighted sign similarity) for comparison.

    A positive sign_threshold changes which coordinates count as zero and
    then describes a thresholded-sign variant rather than the exact limit.
    """
    if corrected:
        spec, a = DistanceSpec(DistanceKind.L1_LIMIT, sign_threshold), predicted_row
    else:  # the plain form is the l2-limit score of the sign vector
        spec, a = DistanceSpec(DistanceKind.L2_LIMIT), sign_vector(predicted_row, sign_threshold)
    return LimitSurrogateRow(anchor_index, pairwise_to_rows(spec, a, _truth_rows(truth)))


def convergence_threshold_l2(pair: EffectPair, apply_target_mask: bool = False) -> float:
    """Scale beyond which the l2 ranking equals its limit ranking, exactly.

    The squared-distance gap between candidates r and s at scale c is
    (|r|^2 - |s|^2) - 2c (a.r - a.s); for every candidate pair with a
    nonzero inner-product gap the sign is settled once
    c > |(|r|^2 - |s|^2)| / (2 |a.r - a.s|). Returns the max over anchors
    and candidate pairs. Candidate pairs with equal inner products must
    also have equal norms (a consistent tie at every scale); otherwise no
    finite threshold exists and DegeneratePair is raised.
    """
    best = 0.0
    for i in range(pair.n_perturbations):
        a, rows = anchor_subproblem(pair, i, apply_target_mask)
        inner = rows @ a
        sqnorm = (rows**2).sum(axis=1)
        gaps = inner[:, None] - inner[None, :]
        consts = sqnorm[:, None] - sqnorm[None, :]
        degenerate = (gaps == 0.0) & (consts != 0.0)
        if degenerate.any():
            r, s = map(int, np.argwhere(degenerate)[0])
            raise DegeneratePair(
                f"anchor {pair.perturbation_ids[i]!r}: candidates "
                f"{pair.perturbation_ids[r]!r} and {pair.perturbation_ids[s]!r} tie in the "
                "limit but differ in norm; no finite threshold"
            )
        nz = gaps != 0.0
        if nz.any():
            candidates = np.abs(consts[nz]) / (2.0 * np.abs(gaps[nz]))
            best = max(best, float(candidates.max()))
    return best


def convergence_threshold_l1(pair: EffectPair, apply_target_mask: bool = False) -> float:
    """Scale at or beyond which the l1 ranking equals its corrected limit ranking.

    Once c |a_j| >= |r_j| for every coordinate with a_j != 0 and every
    candidate r, each |c a_j - r_j| resolves exactly, so the threshold is
    the max over anchors, nonzero predicted coordinates, and candidates of
    |r_j| / |a_j|. Zero-coordinate contributions are scale free.
    """
    best = 0.0
    for i in range(pair.n_perturbations):
        a, rows = anchor_subproblem(pair, i, apply_target_mask)
        nz = a != 0.0
        if nz.any():
            ratios = np.abs(rows[:, nz]) / np.abs(a[nz])
            best = max(best, float(ratios.max()))
    return best


def _limit_spec(spec: DistanceSpec) -> DistanceSpec:
    if spec.kind is DistanceKind.L1:
        return DistanceSpec(DistanceKind.L1_LIMIT, spec.sign_threshold)
    if spec.kind is DistanceKind.L2:
        return DistanceSpec(DistanceKind.L2_LIMIT)
    return spec


def scale_sweep(
    pair: EffectPair,
    specs,
    scales=DEFAULT_SWEEP_SCALES,
    apply_target_mask: bool = False,
    *,
    error_policy: ErrorPolicy = ErrorPolicy.WORST,
) -> ScaleSweepResult:
    """Mean discrimination score per metric across globally rescaled predictions.

    Each metric also gets one limit value: the norm kinds are scored under
    their limit surrogate, the scale-invariant kinds reuse their constant
    score. Scales must be positive and ascending.
    """
    specs = tuple(specs)
    scales = tuple(float(c) for c in scales)
    if not scales or any(c <= 0.0 or not np.isfinite(c) for c in scales):
        raise BadParameter("scales must be positive finite numbers")
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise BadParameter("scales must be strictly ascending")
    tokens = [spec.token for spec in specs]
    if len(set(tokens)) != len(tokens):
        raise BadParameter("duplicate metrics in sweep")

    curves: dict = {token: [] for token in tokens}
    for c in scales:
        scaled = pair.with_predicted(global_scale(pair.predicted, c))
        for spec, token in zip(specs, tokens):
            report = compute_pds(
                scaled, spec, apply_target_mask, error_policy=error_policy
            )
            curves[token].append(report.mean_pds)

    limits: dict = {}
    for spec, token in zip(specs, tokens):
        limit_report = compute_pds(
            pair, _limit_spec(spec), apply_target_mask, error_policy=error_policy
        )
        limits[token] = limit_report.mean_pds

    return ScaleSweepResult(scales, {k: tuple(v) for k, v in curves.items()}, limits)
