"""Rank-based perturbation discrimination scoring.

For each anchor perturbation, the measure between its predicted effect and
every candidate true effect is ranked. The rank of the anchor's own truth,
linearly rescaled, is the per-perturbation score: 1 for a unique closest
match, 0 for strictly farthest, about 0.5 for uninformative predictions.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .effects import EffectPair, anchor_subproblem, masked_columns
from .errors import BadIndex, ValidationError, ZeroVector
from .metrics import DistanceSpec, pairwise_to_rows, screen


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


def pds_row(distances, true_index: int) -> tuple[float, float]:
    """Mid-rank of the true distance among all N candidates, and its score.

    rank = 1 + (# others strictly closer) + 0.5 * (# others exactly tied);
    pds  = 1 - (rank - 1) / (N - 1).
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 1 or d.size < 2:
        raise ValidationError("need a 1-d vector of at least two distances")
    n = d.size
    if not isinstance(true_index, (int, np.integer)) or not (0 <= int(true_index) < n):
        raise BadIndex(f"true_index {true_index!r} out of range for {n} candidates")
    if not np.isfinite(d).all():
        raise ValidationError("distances must be finite")
    dt = d[int(true_index)]
    closer = int((d < dt).sum())
    tied_others = int((d == dt).sum()) - 1
    rank = 1.0 + closer + 0.5 * tied_others
    pds = 1.0 - (rank - 1.0) / (n - 1.0)
    return rank, pds


def compute_pds(
    pair: EffectPair,
    spec: DistanceSpec,
    apply_target_mask: bool = False,
    *,
    error_policy: ErrorPolicy = ErrorPolicy.WORST,
    workers: int = 1,
) -> PdsReport:
    """Score every anchor perturbation of an aligned pair under one measure.

    Anchors are independent work items over read-only inputs; any worker
    count yields a bit-identical report. When the anchor has a declared
    target gene and apply_target_mask is set, that gene is excluded from the
    anchor's predicted row and from every truth row it is compared against.

    metrics.screen bounds every measure (l1 from below): a candidate whose
    interval lies wholly below or above the anchor's own measure is closer or
    farther; the rest, and the anchor's own, are measured with pairwise_to_rows,
    which sums every row pairwise, so reports equal synth.oracle_pds's.
    """
    n = pair.n_perturbations
    if n < 2:
        raise ValidationError("need at least two perturbations to rank")
    bounds = screen(spec, pair.predicted.values, pair.truth.values)

    def measure(i: int, candidates) -> np.ndarray:
        return pairwise_to_rows(spec, *anchor_subproblem(pair, i, apply_target_mask, candidates))

    def distances(i: int) -> np.ndarray:
        """Anchor i's measure to every truth row, or a value on the same side of its own."""
        lo, hi = bounds(i, masked_columns(pair, apply_target_mask).get(i))
        own = lo[i] if lo is hi and np.isfinite(lo[i]) else measure(i, [i])[0]
        undecided = ~((hi < own) | (lo > own) | (lo == hi))  # NaN bounds stay undecided
        undecided[i] = False
        d = np.where(hi < own, hi, lo)
        if undecided.any():
            d[undecided] = measure(i, np.flatnonzero(undecided))
        d[i] = own
        return d

    def score(i: int) -> PdsEntry:
        pid = pair.perturbation_ids[i]
        try:
            dists = distances(i)
            rank, value = pds_row(dists, i)
            return PdsEntry(pid, float(dists[i]), rank, value)
        except ZeroVector as exc:  # covers ZeroSignVector
            return undefined_entry(pid, n, error_policy, exc)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            entries = tuple(pool.map(score, range(n)))
    else:
        entries = tuple(score(i) for i in range(n))
    return finish_report(pair, spec, entries, apply_target_mask, error_policy)


def undefined_entry(perturbation_id: str, n: int, error_policy: ErrorPolicy, exc) -> PdsEntry:
    """Entry for an anchor whose measure is undefined among n candidates:
    the worst rank under WORST, no rank or score under SKIP."""
    if error_policy is ErrorPolicy.WORST:
        return PdsEntry(perturbation_id, float("nan"), float(n), 0.0, error=str(exc))
    return PdsEntry(perturbation_id, float("nan"), float("nan"), float("nan"), error=str(exc))


def finish_report(
    pair: EffectPair,
    spec: DistanceSpec,
    entries,
    apply_target_mask: bool,
    error_policy: ErrorPolicy,
) -> PdsReport:
    """Report over per-anchor entries; SKIP leaves undefined anchors out of the mean."""
    entries = tuple(entries)
    if error_policy is ErrorPolicy.SKIP:
        values = [e.pds for e in entries if e.error is None]
        if not values:
            raise ValidationError("every anchor failed; nothing to average")
    else:
        values = [e.pds for e in entries]
    mean = float(np.mean(np.asarray(values, dtype=np.float64)))
    return PdsReport(spec, entries, mean, pair.transform_chain, apply_target_mask, error_policy)
