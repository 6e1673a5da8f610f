"""Rank-based perturbation discrimination scoring.

For each anchor perturbation, the measure between its predicted effect and
every candidate true effect is ranked. The rank of the anchor's own truth,
linearly rescaled, is the per-perturbation score: 1 for a unique closest
match, 0 for strictly farthest, about 0.5 for uninformative predictions.
"""

import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .effects import EffectPair, target_columns
from .errors import BadIndex, BadParameter, ValidationError
from .metrics import _CACHED, _UNDEFINED, DistanceKind, DistanceSpec, Screen, _measured


class ErrorPolicy(Enum):
    """What to do when a measure is undefined for an anchor (zero vectors under
    the cosine kinds): assign the worst rank, or drop the anchor from the mean.
    Either way the anchor stays in the listing with the failure recorded."""

    WORST = "worst"
    SKIP = "skip"


@dataclass(frozen=True)
class PdsEntry:
    perturbation_id: str
    true_distance: float
    rank: float
    pds: float
    error: str | None = None


@dataclass(frozen=True)
class PdsReport:
    """Per-perturbation ranks and scores plus their mean, tagged by metric,
    transform provenance, and masking mode."""

    metric: DistanceSpec
    per_perturbation: tuple[PdsEntry, ...]
    mean_pds: float
    transform_chain: tuple = ()
    apply_target_mask: bool = False
    error_policy: ErrorPolicy = ErrorPolicy.WORST

    @property
    def n_perturbations(self) -> int:
        return len(self.per_perturbation)

    def ranks(self) -> np.ndarray:
        return np.array([e.rank for e in self.per_perturbation], dtype=np.float64)

    def pds_values(self) -> np.ndarray:
        return np.array([e.pds for e in self.per_perturbation], dtype=np.float64)


def _mid_ranks(distances: np.ndarray, own: np.ndarray):
    """Mid-rank of each row's own value among the row's N distances, and its score.

    rank = 1 + (# others strictly closer) + 0.5 * (# others exactly tied);
    pds  = 1 - (rank - 1) / (N - 1).
    """
    closer = (distances < own[:, None]).sum(axis=1)
    tied_others = (distances == own[:, None]).sum(axis=1) - 1
    rank = 1.0 + closer + 0.5 * tied_others
    return rank, 1.0 - (rank - 1.0) / (distances.shape[1] - 1.0)


def pds_row(distances, true_index: int) -> tuple[float, float]:
    """Mid-rank of the true distance among all N candidates, and its score."""
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 1 or d.size < 2:
        raise ValidationError("need a 1-d vector of at least two distances")
    n = d.size
    if not isinstance(true_index, (int, np.integer)) or not (0 <= int(true_index) < n):
        raise BadIndex(f"true_index {true_index!r} out of range for {n} candidates")
    if not np.isfinite(d).all():
        raise ValidationError("distances must be finite")
    rank, pds = _mid_ranks(d[None, :], d[[int(true_index)]])
    return float(rank[0]), float(pds[0])


def compute_pds(
    pair: EffectPair,
    spec: DistanceSpec,
    apply_target_mask: bool = False,
    *,
    error_policy: ErrorPolicy = ErrorPolicy.WORST,
    workers: int = 1,
) -> PdsReport:
    """Score every anchor perturbation of an aligned pair under one measure.

    With apply_target_mask, an anchor's declared target gene is zeroed in its
    predicted row and in every truth row it is compared against, as if left out.
    Ranks come from rank_at_scales at scale 1, so reports equal those of the
    brute-force reference scorer (scalar measures, full sort) bit for bit, whatever
    the number of workers (threads over row-blocks of anchors, at most one per CPU).
    """
    ranked = rank_at_scales(pair, spec, target_columns(pair, apply_target_mask), (1.0,), workers)
    own, rank, pds, undefined = (part[0] for part in ranked)
    scored = pds
    if error_policy is ErrorPolicy.SKIP:  # no rank or score, and out of the mean
        rank[undefined] = pds[undefined] = np.nan
        scored = pds[~undefined]
        if not scored.size:
            raise ValidationError("every anchor failed; nothing to average")
    rows = zip(pair.perturbation_ids, own.tolist(), rank.tolist(), pds.tolist(), undefined.tolist())
    entries = tuple(PdsEntry(*row, _UNDEFINED[spec.kind][1] if bad else None) for *row, bad in rows)
    mean = float(np.mean(scored))
    return PdsReport(spec, entries, mean, pair.transform_chain, apply_target_mask, error_policy)


def rank_at_scales(pair: EffectPair, spec: DistanceSpec, columns, scales, workers: int = 1):
    """Rank every anchor of an aligned pair among all N truths at each scale c of its
    predictions, fl(c P), with column columns[i] zeroed on both sides unless it is -1.

    Returns (own, rank, pds, undefined): scale x anchor arrays of each anchor's own
    measure, mid-rank and score and of which anchors are undefined. An undefined anchor,
    one whose own measure or any candidate's is undefined, has a NaN measure, the worst
    rank N and score 0.
    One metrics.Screen forms the truth side and each block its cross products with the
    truth, once; at every scale a candidate whose interval lies wholly below or above
    the anchor's own measure is settled, and the own measure and the rest come from
    metrics._measured on the scaled rows. Blocks of anchors run on threads, at most one
    per CPU, each writing only its own anchors' columns.
    """
    n = pair.n_perturbations
    if n < 2:
        raise ValidationError("need at least two perturbations to rank")
    if workers < 1:
        raise BadParameter(f"workers must be at least 1, got {workers!r}")
    P, T, screen = pair.predicted.values, pair.truth.values, Screen(spec, pair.truth.values)
    step = max(1, min(n, _CACHED // pair.n_genes))  # pairs per gathered chunk
    own, rank, pds = (np.empty((len(scales), n)) for _ in range(3))
    undefined = np.zeros((len(scales), n), bool)

    def measured(rows, column, i, j):
        """(values, undefined) of metrics._measured from the rows i to the truth rows j,
        the anchor's target column zeroed in both, in chunks of at most step pairs. A defined
        value that a term overflows (|values| from about 1e154 up) raises ValidationError."""
        values, failed = np.empty(len(i)), np.empty(len(i), bool)
        for k in range(0, len(i), step):
            part = slice(k, k + step)
            r, target = T[j[part]], column[i[part]]
            masked = np.flatnonzero(target >= 0)
            r[masked, target[masked]] = 0.0
            with np.errstate(over="ignore", invalid="ignore"):
                values[part], failed[part] = _measured(spec, rows[i[part]], r)
            if not np.isfinite(values[part][~failed[part]]).all():
                raise ValidationError("distances must be finite")
        return values, failed

    def rank_block(anchors) -> None:
        block, column = P[anchors[0] : anchors[-1] + 1], columns[anchors]  # a view
        masked, local = np.flatnonzero(column >= 0), np.arange(len(anchors))
        if masked.size:  # a copy, with masked targets zeroed
            block = block.copy()
            block[masked, column[masked]] = 0.0
        cross = screen.cross(block)
        for k, c in enumerate(scales):
            rows = block if c == 1.0 else block * c
            lo, hi = screen.bounds(cross, rows, column, c)
            mine, bad = measured(rows, column, local, anchors)
            if spec.kind is DistanceKind.SIGN_COSINE_DISSIM:  # lo is the measure, NaN if undefined
                bad |= np.isnan(lo).any(axis=1)
            closer = hi < mine[:, None]
            undecided = ~(closer | (lo > mine[:, None]) | (lo == hi))  # NaN bounds stay undecided
            undecided[local, anchors] = False
            undecided[bad] = False  # one undefined measure settles the anchor
            d = np.where(closer, hi, lo)  # on the same side of own as the measure
            i, j = np.nonzero(undecided)
            d[i, j], failed = measured(rows, column, i, j)
            bad[i[failed]] = True
            d[local, anchors] = mine
            own[k, anchors], undefined[k, anchors] = mine, bad
            rank[k, anchors], pds[k, anchors] = _mid_ranks(d, mine)

    threads = min(workers, os.cpu_count() or 1)
    blocks = np.array_split(np.arange(n), min(n, max(workers, -(-n * n // _CACHED))))
    if threads < 2:  # no pool, so a one-worker run never imports concurrent.futures
        list(map(rank_block, blocks))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(rank_block, blocks))  # list() re-raises a block's error
    own[undefined], rank[undefined], pds[undefined] = np.nan, n, 0.0
    return own, rank, pds, undefined
