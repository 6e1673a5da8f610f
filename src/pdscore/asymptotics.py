"""Large-scale limit behavior of the norm-based rankings.

Multiplying all predictions by a factor c leaves directions unchanged but
moves the l1/l2 rankings toward c-independent limits. For l2 the squared
distance to candidate r is c^2|a|^2 + |r|^2 - 2c a.r, so the gap between
two candidates is affine in c and beyond a computable threshold the full
ranking equals the limit ranking exactly. For l1 each coordinate resolves
to c|a_j| - sign(a_j) r_j once c|a_j| >= |r_j|, with coordinates where the
prediction is exactly zero contributing the constant |r_j| instead; the
same kind of finite threshold follows.

So the limits rank by the L2_LIMIT score -(a . r), the cosine ranking only when
every candidate norm is equal, and by the L1_LIMIT score; L2_LIMIT on sign(a),
which drops the zero coordinates' |r_j|, disagrees with brute-force l1 ranks.
"""

from dataclasses import dataclass

import numpy as np

from .discrimination import rank_at_scales
from .effects import EffectPair, _Made, target_columns
from .errors import BadParameter, DegeneratePair
from .metrics import DistanceKind, DistanceSpec
from .transforms import check_scale

DEFAULT_SWEEP_SCALES = tuple(float(x) for x in np.geomspace(1e-2, 1e4, 25))


@dataclass(frozen=True)
class ScaleSweepResult:
    """Mean discrimination score per metric over a grid of global scales."""

    scales: tuple[float, ...]
    mean_pds_per_scale: dict
    limit_mean_pds: dict


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

    A masked anchor's target is zeroed in a, so the truth's coordinate adds only +-0
    to a.r, and in the truth's squares, summed once per distinct target column.
    "Exactly" is about the ranking: a.r comes from a BLAS product (truth @ a), so the
    last bits of the returned scale follow the BLAS kernel and thread count.
    """
    truth = pair.truth.values
    squares = truth**2
    sqnorms = {-1: squares.sum(axis=1)}  # by masked column, -1 for none
    best = 0.0
    for i, column in enumerate(target_columns(pair, apply_target_mask).tolist()):
        a = pair.predicted.values[i]
        if column >= 0:
            a = a.copy()
            a[column] = 0.0
        if column not in sqnorms:
            kept = squares[:, column].copy()
            squares[:, column] = 0.0
            sqnorms[column] = squares.sum(axis=1)
            squares[:, column] = kept
        inner, sqnorm = truth @ a, sqnorms[column]
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


def _limit_mean_pds(pair: EffectPair, spec: DistanceSpec, columns) -> float:
    """Mean PDS of the predictions scaled without bound, with the target columns
    zeroed. l1 and l2 rank there by their limit kinds. Once every nonzero predicted
    coordinate exceeds the sign threshold t, the prediction's signs stop moving:
    l1-limit is then l1-limit at threshold 0, and sign-cosine is its score with every
    coordinate sign(a_k) times the next float above t, the prediction's signs against
    the truth's at t. The other kinds are scale invariant. Undefined anchors score 0."""
    kind = spec.kind
    if kind in (DistanceKind.L1, DistanceKind.L1_LIMIT):
        spec = DistanceSpec(DistanceKind.L1_LIMIT)
    elif kind is DistanceKind.L2:
        spec = DistanceSpec(DistanceKind.L2_LIMIT)
    elif kind is DistanceKind.SIGN_COSINE_DISSIM:
        signs = np.sign(pair.predicted.values) * np.nextafter(spec.sign_threshold, np.inf)
        pair = pair.with_predicted(pair.predicted.with_values(_Made(signs)))
    return float(np.mean(rank_at_scales(pair, spec, columns, (1.0,))[2][0]))


def scale_sweep(
    pair: EffectPair,
    specs,
    scales=DEFAULT_SWEEP_SCALES,
    apply_target_mask: bool = False,
) -> ScaleSweepResult:
    """Mean discrimination score per metric across globally rescaled predictions.

    Each curve point equals compute_pds's mean on the predictions fl(c P) bit for bit,
    from one rank_at_scales pass per metric: no scaled pair is built. Each metric also
    gets its large-scale limit (see _limit_mean_pds). Undefined anchors score as worst.
    Scales must be positive and ascending, and a scale that overflows a prediction
    raises ValidationError.
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
    peaks = np.abs(pair.predicted.values).max(axis=1)
    for c in scales:
        check_scale(peaks, c, pair.perturbation_ids)

    columns = target_columns(pair, apply_target_mask)
    curves: dict = {}
    for spec, token in zip(specs, tokens):
        pds = rank_at_scales(pair, spec, columns, scales)[2]
        curves[token] = tuple(float(np.mean(row)) for row in pds)
    limits = [_limit_mean_pds(pair, spec, columns) for spec in specs]
    return ScaleSweepResult(scales, curves, dict(zip(tokens, limits)))
