"""Brute-force references the tests check pdscore against.

They share no ranking, measuring or error-policy code with pdscore: ranks come
from full sorting (not comparison counting), every measure from scalar formulas
(not the batched kernel), undefined anchors from their own policy below, a
masked anchor's subproblem from copies with its target zeroed, limit rankings
from literal distance evaluations at a large scale, and the ray certificate
from a grid search.
"""

import math

import numpy as np

from pdscore import (
    BadParameter,
    DimensionMismatch,
    DistanceKind,
    DistanceSpec,
    EffectPair,
    ErrorPolicy,
    PdsEntry,
    PdsReport,
    ValidationError,
    ZeroSignVector,
    ZeroVector,
)
from pdscore.effects import target_columns


def _pair(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape or a.size < 1:
        raise DimensionMismatch(f"need two vectors of one nonzero length, got {a.shape}, {b.shape}")
    return a, b


def dist_l1(a, b) -> float:
    """Sum of absolute coordinate differences."""
    a, b = _pair(a, b)
    return float(np.abs(a - b).sum())


def dist_l2(a, b) -> float:
    """Euclidean distance."""
    a, b = _pair(a, b)
    return float(np.sqrt(((a - b) ** 2).sum()))


def cosine(a, b) -> float:
    """Cosine similarity; raises ZeroVector when either direction is undefined."""
    a, b = _pair(a, b)
    na = float(np.sqrt((a * a).sum()))
    nb = float(np.sqrt((b * b).sum()))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine undefined for a zero vector")
    return float((a * b).sum()) / (na * nb)


def sign_vector(a, threshold: float = 0.0) -> np.ndarray:
    """Coordinatewise sign, with |x| <= threshold mapped to 0."""
    a = np.asarray(a, dtype=np.float64)
    return np.where(np.abs(a) <= threshold, 0.0, np.sign(a))


def sign_cosine(a, b, threshold: float = 0.0) -> float:
    """Cosine similarity between coordinatewise sign vectors: (agreements -
    disagreements) / sqrt(nnz(a) * nnz(b)), nnz counting nonzero signs."""
    a, b = _pair(a, b)
    sa, sb = sign_vector(a, threshold), sign_vector(b, threshold)
    nnz_a, nnz_b = float((sa != 0.0).sum()), float((sb != 0.0).sum())
    if nnz_a == 0.0 or nnz_b == 0.0:
        raise ZeroSignVector("sign cosine undefined when a sign vector is all zero")
    return float((sa * sb).sum()) / float(np.sqrt(nnz_a * nnz_b))


def anchor_subproblem(pair: EffectPair, i: int, apply_target_mask: bool):
    """Predicted row of anchor i and the truth matrix it is ranked against.

    When apply_target_mask is set and the anchor declares a target gene, that gene
    is zeroed in copies of the predicted row and of every truth row. Without a mask
    they are a row view of the predictions and the truth values themselves.
    """
    a, rows = pair.predicted.values[i], pair.truth.values
    column = target_columns(pair, apply_target_mask)[i]
    if column < 0:
        return a, rows
    a, rows = a.copy(), rows.copy()
    a[column] = rows[:, column] = 0.0
    return a, rows


def _sorted_average_ranks(values: np.ndarray) -> np.ndarray:
    """Mid-ranks for every element, from explicit sorted tie runs."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0], dtype=np.float64)
    start = 0
    while start < order.size:
        stop = start
        while stop + 1 < order.size and values[order[stop + 1]] == values[order[start]]:
            stop += 1
        average = (start + stop) / 2.0 + 1.0
        ranks[order[start : stop + 1]] = average
        start = stop + 1
    return ranks


def _scalar_measure(spec: DistanceSpec, a: np.ndarray, r: np.ndarray) -> float:
    """One measure from the scalar functions and formulas above."""
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
        return -float((a * r).sum())
    signs = sign_vector(a, t)  # l1-limit: |r_j| where sign(a_j) = 0, else -sign(a_j) r_j
    return float(np.where(signs == 0.0, np.abs(r), -signs * r).sum())


def undefined_anchor(pid: str, n: int, error_policy: ErrorPolicy, exc) -> PdsEntry:
    """An anchor whose measure is undefined among n candidates: no measure, and the
    worst rank n with score 0 under WORST, no rank or score under SKIP."""
    if error_policy is ErrorPolicy.WORST:
        return PdsEntry(pid, math.nan, float(n), 0.0, str(exc))
    return PdsEntry(pid, math.nan, math.nan, math.nan, str(exc))


def policy_report(pair, spec, entries, apply_target_mask, error_policy) -> PdsReport:
    """Report over per-anchor entries, its mean over every score under WORST and over
    the defined anchors' under SKIP, which fails when none is defined."""
    entries = tuple(entries)
    kept = [e.pds for e in entries if error_policy is ErrorPolicy.WORST or e.error is None]
    if not kept:
        raise ValidationError("every anchor failed; nothing to average")
    mean = float(np.mean(np.asarray(kept, dtype=np.float64)))
    return PdsReport(spec, entries, mean, pair.transform_chain, apply_target_mask, error_policy)


def oracle_pds(
    pair: EffectPair,
    spec: DistanceSpec,
    apply_target_mask: bool = False,
    error_policy: ErrorPolicy = ErrorPolicy.WORST,
) -> PdsReport:
    """Reference scorer: scalar distances plus full-sort average-of-tie ranks.

    Shares the masking rule with compute_pds but none of the ranking code or
    the error policy (undefined_anchor and policy_report above), and evaluates
    every measure with the scalar functions above rather than the batched
    kernel, so rank agreement is a meaningful cross-check.
    """
    n = pair.n_perturbations
    entries = []
    for i, pid in enumerate(pair.perturbation_ids):
        a, rows = anchor_subproblem(pair, i, apply_target_mask)
        try:
            dists = np.array([_scalar_measure(spec, a, r) for r in rows])
            rank = float(_sorted_average_ranks(dists)[i])
            value = 1.0 - (rank - 1.0) / (n - 1.0)
            entries.append(PdsEntry(pid, float(dists[i]), rank, value))
        except ZeroVector as exc:
            entries.append(undefined_anchor(pid, n, error_policy, exc))
    return policy_report(pair, spec, entries, apply_target_mask, error_policy)


def oracle_l1_limit(pair: EffectPair, c: float) -> np.ndarray:
    """Brute-force l1 ranking of candidates for predictions scaled by c.

    Returns an (N, N) matrix of mid-ranks, one row per anchor, computed
    from literal |c a - r| distance evaluations; validates the corrected
    limit scores at large c.
    """
    if not (np.isfinite(c) and c > 0.0):
        raise BadParameter(f"c must be positive, got {c!r}")
    n = pair.n_perturbations
    out = np.empty((n, n), dtype=np.float64)
    for i, a in enumerate(pair.predicted.values):
        scaled = c * a
        dists = np.array([np.abs(scaled - r).sum() for r in pair.truth.values])
        out[i] = _sorted_average_ranks(dists)
    return out


def oracle_ray_certificate(pred_norm: float, true_norm: float, cosine_to_true: float) -> bool:
    """Brute-force check of the orthogonal-ray certificate.

    Minimizes |pred - t u| over a 4001-point t grid, refined three times
    around its minimum, for a unit u orthogonal to the prediction (the value
    depends only on t), then asks whether the truth's distance is at most
    that minimum.
    """
    grid = 4001
    true_distance = math.sqrt(
        pred_norm**2 + true_norm**2 - 2.0 * pred_norm * true_norm * cosine_to_true
    )
    lo, hi = 1e-9, 4.0 * max(pred_norm, true_norm)
    best = math.inf
    for _ in range(3):
        ts = np.linspace(lo, hi, grid)
        values = np.sqrt(pred_norm**2 + ts**2)
        k = int(np.argmin(values))
        best = min(best, float(values[k]))
        lo = max(1e-12, float(ts[max(0, k - 1)]) * 0.5)
        hi = float(ts[min(grid - 1, k + 1)])
    return true_distance <= best
