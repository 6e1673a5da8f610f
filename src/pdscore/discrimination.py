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

from .effects import EffectPair, target_columns
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


# Anchor blocks of about this many candidate pairs, and gathered chunks of about this
# many values, stay in cache and bound the memory compute_pds adds at any size.
_CACHED = 2**16


def _mid_ranks(distances: np.ndarray, own: np.ndarray):
    """Mid-rank of each row's own value among the row's N distances, and its score.

    rank = 1 + (# others strictly closer) + 0.5 * (# others exactly tied);
    pds  = 1 - (rank - 1) / (N - 1).
    """
    closer = (distances < own[:, None]).sum(axis=1)
    tied_others = (distances == own[:, None]).sum(axis=1) - 1
    rank = 1.0 + closer + 0.5 * tied_others
    return rank.tolist(), (1.0 - (rank - 1.0) / (distances.shape[1] - 1.0)).tolist()


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
    return rank[0], pds[0]


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
    A candidate whose metrics.screen interval lies wholly below or above the
    anchor's own measure is settled; the own measure and the rest come from
    pairwise_to_rows, so reports equal synth.oracle_pds's bit for bit, whatever
    the number of workers (threads over row-blocks of anchors).
    """
    n = pair.n_perturbations
    if n < 2:
        raise ValidationError("need at least two perturbations to rank")
    P, T, ids = pair.predicted.values, pair.truth.values, pair.perturbation_ids
    columns, p = target_columns(pair, apply_target_mask), pair.n_genes
    step = max(1, min(n, _CACHED // p))  # pairs per gathered chunk

    def measure(anchors, candidates):
        """pairwise_to_rows from each anchor's prediction to the truth row paired with
        it, both with the anchor's target column zeroed, chunk by chunk. Returns
        the measures, which are undefined and the message they raised."""
        values, undefined, error = np.empty(len(anchors)), np.zeros(len(anchors), bool), None
        for part in (slice(k, k + step) for k in range(0, len(anchors), step)):
            a, r, column = P[anchors[part]], T[candidates[part]], columns[anchors[part]]
            masked = np.flatnonzero(column >= 0)
            if masked.size:
                a[masked, column[masked]] = r[masked, column[masked]] = 0.0
            try:
                values[part] = pairwise_to_rows(spec, a, r)
            except ZeroVector as exc:  # covers ZeroSignVector
                values[part], undefined[part], error = exc.values, exc.undefined, str(exc)
        return values, undefined, error

    def score(anchors) -> list:
        lo, hi = screen(spec, P[anchors[0] : anchors[-1] + 1], T, columns[anchors])  # a view
        own, undefined, error = measure(anchors, anchors)
        closer, block = hi < own[:, None], np.arange(len(anchors))
        undecided = ~(closer | (lo > own[:, None]) | (lo == hi))  # NaN bounds stay undecided
        undecided[block, anchors] = False
        undecided[undefined] = False  # one undefined measure settles the anchor
        d = np.where(closer, hi, lo)  # on the same side of own as the measure
        rows, cols = np.nonzero(undecided)
        d[rows, cols], failed, raised = measure(anchors[rows], cols)
        undefined[rows[failed]] = True
        d[block, anchors] = own
        if not np.isfinite(d[~undefined]).all():
            raise ValidationError("distances must be finite")
        entries = map(PdsEntry, [ids[i] for i in anchors], own.tolist(), *_mid_ranks(d, own))
        error = error or raised
        return [
            undefined_entry(e.perturbation_id, n, error_policy, error) if bad else e
            for e, bad in zip(entries, undefined.tolist())
        ]

    with ThreadPoolExecutor(workers) as pool:  # starts no thread for one worker
        anchors = np.array_split(np.arange(n), min(n, max(workers, -(-n * n // _CACHED))))
        blocks = (pool.map if workers > 1 else map)(score, anchors)
        entries = [entry for block in blocks for entry in block]
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
