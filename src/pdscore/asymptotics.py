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

from .discrimination import compute_pds
from .effects import EffectMatrix, EffectPair, anchor_subproblem, target_columns
from .errors import BadParameter, DegeneratePair
from .metrics import DistanceKind, DistanceSpec, pairwise_to_rows, sign_vector
from .transforms import global_scale

DEFAULT_SWEEP_SCALES = tuple(float(x) for x in np.geomspace(1e-2, 1e4, 25))


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


def l2_limit_scores(predicted_row, truth) -> np.ndarray:
    """Scores whose ascending order is the large-scale limit of the l2 ranking.

    The score for candidate r is -(a . r): squared-distance gaps between
    candidates reduce to inner-product gaps as the scale grows, so the limit
    ranking is inner-product based. It coincides with the cosine ranking
    only when all candidate norms are equal.
    """
    return pairwise_to_rows(DistanceSpec(DistanceKind.L2_LIMIT), predicted_row, _truth_rows(truth))


def l1_limit_scores(predicted_row, truth, *, corrected: bool = True) -> np.ndarray:
    """Scores whose ascending order is the large-scale limit of the l1 ranking.

    Corrected form: -(sum over sign(a_j) != 0 of sign(a_j) r_j)
    + (sum over sign(a_j) == 0 of |r_j|). Coordinates where the prediction
    is exactly zero contribute |r_j| at every scale, so the second term is
    required for the scores to match brute-force rankings; corrected=False
    drops it (the plain weighted sign similarity) for comparison. A
    thresholded-sign variant is DistanceSpec(DistanceKind.L1_LIMIT, t).
    """
    if corrected:
        spec, a = DistanceSpec(DistanceKind.L1_LIMIT), predicted_row
    else:  # the plain form is the l2-limit score of the sign vector
        spec, a = DistanceSpec(DistanceKind.L2_LIMIT), sign_vector(predicted_row)
    return pairwise_to_rows(spec, a, _truth_rows(truth))


def convergence_threshold_l2(pair: EffectPair, apply_target_mask: bool = False) -> float:
    """Scale beyond which the l2 ranking equals its limit ranking, exactly.

    The squared-distance gap between candidates r and s at scale c is
    (|r|^2 - |s|^2) - 2c (a.r - a.s); for every candidate pair with a
    nonzero inner-product gap the sign is settled once
    c > |(|r|^2 - |s|^2)| / (2 |a.r - a.s|), half the |slope| between the
    points (a.r, |r|^2) and (a.s, |s|^2). Returns the max over anchors and
    candidate pairs. The slope across a point is a weighted mean of the two
    slopes beside it, so the max lies between neighbours in a.r order, found
    with one sort per anchor. Candidates with equal inner products must also
    have equal norms (a consistent tie at every scale); otherwise no finite
    threshold exists and DegeneratePair is raised. A tied group with mixed
    norms always has two neighbours of different norms, whatever order the
    sort leaves it in.
    """
    truth_sqnorm = (pair.truth.values**2).sum(axis=1)  # for every anchor without a mask
    best = 0.0
    for i in range(pair.n_perturbations):
        a, rows = anchor_subproblem(pair, i, apply_target_mask)
        inner = rows @ a
        sqnorm = truth_sqnorm if rows is pair.truth.values else (rows**2).sum(axis=1)
        order = np.argsort(inner)
        gaps = np.diff(inner[order])
        consts = np.diff(sqnorm[order])
        degenerate = np.flatnonzero((gaps == 0.0) & (consts != 0.0))
        if degenerate.size:
            r, s = order[degenerate[0]], order[degenerate[0] + 1]
            raise DegeneratePair(
                f"anchor {pair.perturbation_ids[i]!r}: candidates "
                f"{pair.perturbation_ids[r]!r} and {pair.perturbation_ids[s]!r} tie in the "
                "limit but differ in norm; no finite threshold"
            )
        nz = gaps != 0.0
        if nz.any():
            candidates = np.abs(consts[nz]) / (2.0 * gaps[nz])  # gaps are positive
            best = max(best, float(candidates.max()))
    return best


def convergence_threshold_l1(pair: EffectPair, apply_target_mask: bool = False) -> float:
    """Scale at or beyond which the l1 ranking equals its corrected limit ranking.

    Once c |a_j| >= |r_j| for every coordinate with a_j != 0 and every
    candidate r, each |c a_j - r_j| resolves exactly, so the threshold is
    the max over anchors and nonzero predicted coordinates (a masked target
    is zero) of max_r |r_j| / |a_j|, which rounds as the max of the ratios
    (x -> x / |a_j| is monotone). Zero-coordinate contributions are scale free.
    """
    abs_p = np.abs(pair.predicted.values)
    columns = target_columns(pair, apply_target_mask)
    abs_p[columns >= 0, columns[columns >= 0]] = 0.0  # a masked target is zero
    ratios = np.abs(pair.truth.values).max(axis=0) / np.where(abs_p > 0.0, abs_p, np.inf)
    return float(ratios.max(initial=0.0))


def _limit_spec(spec: DistanceSpec) -> DistanceSpec:
    # l1 measures every coordinate whatever the sign threshold, and so does its
    # limit: a coordinate counts as zero only where the prediction is exactly zero
    if spec.kind is DistanceKind.L1:
        return DistanceSpec(DistanceKind.L1_LIMIT)
    if spec.kind is DistanceKind.L2:
        return DistanceSpec(DistanceKind.L2_LIMIT)
    return spec


def scale_sweep(
    pair: EffectPair,
    specs,
    scales=DEFAULT_SWEEP_SCALES,
    apply_target_mask: bool = False,
) -> ScaleSweepResult:
    """Mean discrimination score per metric across globally rescaled predictions.

    Each metric also gets one limit value: the norm kinds are scored under
    their limit surrogate, the scale-invariant kinds reuse their constant
    score. Undefined anchors score as worst. Scales must be positive and
    ascending.
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
            report = compute_pds(scaled, spec, apply_target_mask)
            curves[token].append(report.mean_pds)

    limits: dict = {}
    for spec, token in zip(specs, tokens):
        limit_report = compute_pds(pair, _limit_spec(spec), apply_target_mask)
        limits[token] = limit_report.mean_pds

    return ScaleSweepResult(scales, {k: tuple(v) for k, v in curves.items()}, limits)
