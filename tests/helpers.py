"""Shared construction helpers for the test suite."""

import numpy as np
from scipy.special import betainc

from pdscore import (
    DegeneratePair,
    EffectMatrix,
    EffectPair,
    ZeroVector,
    anchor_subproblem,
    pairwise_to_rows,
    pds_row,
)
from pdscore.discrimination import ErrorPolicy, PdsEntry, finish_report, undefined_entry


def labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i:04d}" for i in range(n))


def pair_from(pred, truth, target_gene_of=None) -> EffectPair:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    perts = labels("P", pred.shape[0])
    genes = labels("G", pred.shape[1])
    return EffectPair(
        EffectMatrix(pred, perts, genes),
        EffectMatrix(truth, perts, genes),
        target_gene_of or {},
    )


def random_pair(rng: np.random.Generator, n: int = 8, p: int = 6, zero_fraction: float = 0.0):
    pred = rng.standard_normal((n, p))
    if zero_fraction > 0.0:
        pred[rng.random((n, p)) < zero_fraction] = 0.0
    truth = rng.standard_normal((n, p))
    return pair_from(pred, truth)


def per_anchor_pds(pair, spec, apply_target_mask=False, error_policy=ErrorPolicy.WORST):
    """compute_pds measuring every candidate of every anchor with the elementwise kernel.

    The scoring path before screening: anchor_subproblem, then pairwise_to_rows
    over the whole truth matrix, then pds_row.
    """
    n = pair.n_perturbations
    entries = []
    for i in range(n):
        pid = pair.perturbation_ids[i]
        a, rows = anchor_subproblem(pair, i, apply_target_mask)
        try:
            dists = pairwise_to_rows(spec, a, rows)
            rank, value = pds_row(dists, i)
            entries.append(PdsEntry(pid, float(dists[i]), rank, value))
        except ZeroVector as exc:
            entries.append(undefined_entry(pid, n, error_policy, exc))
    return finish_report(pair, spec, entries, apply_target_mask, error_policy)


def threshold_l1_per_anchor(pair, apply_target_mask=False):
    """convergence_threshold_l1 as a ratio matrix per anchor: the max over anchors,
    nonzero predicted coordinates and candidate rows of |r_j| / |a_j|."""
    best = 0.0
    for i in range(pair.n_perturbations):
        a, rows = anchor_subproblem(pair, i, apply_target_mask)
        nz = a != 0.0
        if nz.any():
            ratios = np.abs(rows[:, nz]) / np.abs(a[nz])
            best = max(best, float(ratios.max()))
    return best


def threshold_l2_all_pairs(pair, apply_target_mask=False):
    """convergence_threshold_l2 over every candidate pair: the max over anchors and
    pairs (r, s) with a.r != a.s of |(|r|^2 - |s|^2)| / (2 |a.r - a.s|), from N x N
    gap matrices per anchor; DegeneratePair where a.r == a.s but |r| != |s|."""
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


def region_win_threshold(rho: float, kappa: float) -> float:
    """s such that the distractor rho * u beats the truth iff u_1 > s.

    The prediction is the unit first axis and the truth a unit vector at
    cosine kappa to it: |e_1 - rho u|^2 < 2 - 2 kappa reduces to
    u_1 > (rho^2 + 2 kappa - 1) / (2 rho). s changes sign at
    kappa = (1 - rho^2) / 2.
    """
    return (rho * rho + 2.0 * kappa - 1.0) / (2.0 * rho)


def region_fraction_exact(d: int, rho: float, kappa: float) -> float:
    """Exact l2 win rate that ``region_fraction(d, rho, kappa, ...)`` estimates.

    For u uniform on S^{d-1} and s = region_win_threshold(rho, kappa),
    P(u_1 > s) = I_{1-s^2}((d-1)/2, 1/2) / 2 when s >= 0, and one minus that
    tail at |s| when s < 0 (I is the regularised incomplete beta). The rate
    therefore falls with d for s > 0 and rises with d for s < 0.
    """
    s = region_win_threshold(rho, kappa)
    if s >= 1.0:
        return 0.0
    if s <= -1.0:
        return 1.0
    tail = 0.5 * float(betainc((d - 1) / 2.0, 0.5, 1.0 - s * s))
    return tail if s >= 0.0 else 1.0 - tail
