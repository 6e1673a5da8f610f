"""Count normalization pipelines and mean perturbation-effect estimation.

Two pipelines over the same raw counts: per-10k scaling followed by log1p,
and median library-size scaling with log1p optional. Mean effects are the
per-gene difference between a perturbation's cell mean and the control
cell mean; compare_pipelines contrasts the effect vectors the two
pipelines produce from identical counts.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .effects import EffectMatrix, _check_unique, _frozen, _Made
from .errors import BadParameter, MissingControl, ValidationError, ZeroLibrarySize
from .metrics import DistanceKind, DistanceSpec, _similarity

CONTROL_LABEL = "control"


class PipelineSpec(Enum):
    """Normalization pipeline, valued by its command-line token.

    per10k always applies log1p; median scaling applies it unless the
    token says median-nolog (effect vectors are log-scale differences).
    """

    PER10K = "per10k"
    MEDIAN = "median"
    MEDIAN_NOLOG = "median-nolog"


def pipeline_from_token(token: str) -> PipelineSpec:
    try:
        return PipelineSpec(token)
    except ValueError:
        choices = ", ".join(spec.value for spec in PipelineSpec)
        raise BadParameter(f"unknown pipeline {token!r}; choose from: {choices}") from None


def _integer_counts(counts) -> np.ndarray:
    """counts as a 2-d array of integer values from 0 to 2**63 - 1, or ValidationError."""
    counts = np.asarray(counts)
    if counts.ndim != 2:
        raise ValidationError("counts must be a 2-d matrix")
    # checked before any cast, which would wrap or overflow a count from 2**63 up
    bad = counts < 0
    if counts.dtype != np.int64:  # no int64 reaches 2**63
        bad |= counts >= 2**63
    if bad.any():
        at = tuple(np.argwhere(bad)[0].tolist())
        raise ValidationError("counts must be from 0 to 2**63 - 1", at=at)
    if not np.issubdtype(counts.dtype, np.integer):
        counts = np.asarray(counts, dtype=np.float64)
        if not np.isfinite(counts).all() or np.any(counts != np.floor(counts)):
            raise ValidationError("counts must be integers")
    return counts


@dataclass(frozen=True)
class CountMatrix:
    """Nonnegative integer cell x gene counts with per-cell condition labels."""

    counts: np.ndarray
    cell_condition: tuple[str, ...]
    gene_ids: tuple[str, ...]
    cell_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        genes = tuple(str(g) for g in self.gene_ids)
        _check_unique(genes, "gene", 1)
        counts = _frozen(self.counts, np.int64, _integer_counts)
        n_cells, n_genes = counts.shape
        condition = tuple(str(x) for x in self.cell_condition)
        if len(condition) != n_cells:
            raise ValidationError(f"{len(condition)} condition labels for {n_cells} cells")
        if len(genes) != n_genes:
            raise ValidationError(f"{len(genes)} gene ids for {n_genes} columns")
        # A float64 sum of nonnegative counts is 0 only for an empty library, and errs by
        # far less than half, so only rows from 2**62 need the exact sum.
        sums = counts.sum(axis=1, dtype=np.float64)
        for r in np.flatnonzero(sums >= 2.0**62).tolist():
            if sum(counts[r].tolist()) > 2**63 - 1:
                raise ValidationError(f"cell {r} has library size exceeding 2**63 - 1", at=(r,))
        zero = np.flatnonzero(sums == 0).tolist()
        if zero:
            raise ZeroLibrarySize(f"cell {zero[0]} has library size 0", at=(zero[0],))
        cell_ids = self.cell_ids
        if cell_ids is None:
            cell_ids = tuple(f"cell{i:05d}" for i in range(n_cells))
        else:
            cell_ids = tuple(str(c) for c in cell_ids)
            if len(cell_ids) != n_cells:
                raise ValidationError(f"{len(cell_ids)} cell ids for {n_cells} cells")
            _check_unique(cell_ids, "cell", 0)
        if CONTROL_LABEL not in condition:
            raise MissingControl(f"no cell labeled {CONTROL_LABEL!r}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "cell_condition", condition)
        object.__setattr__(self, "gene_ids", genes)
        object.__setattr__(self, "cell_ids", cell_ids)

    @property
    def n_cells(self) -> int:
        return self.counts.shape[0]

    @property
    def n_genes(self) -> int:
        return self.counts.shape[1]

    @property
    def perturbation_ids(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.cell_condition) - {CONTROL_LABEL}))

    def library_sizes(self) -> np.ndarray:
        return self.counts.sum(axis=1)


@dataclass(frozen=True)
class PipelineComparison:
    """Per-perturbation effect norms under two pipelines plus the cosine and
    sign-cosine between the two effect vectors."""

    spec_a: PipelineSpec
    spec_b: PipelineSpec
    perturbation_ids: tuple[str, ...]
    l1_norm_a: np.ndarray
    l1_norm_b: np.ndarray
    l2_norm_a: np.ndarray
    l2_norm_b: np.ndarray
    cosine_between: np.ndarray
    sign_cosine_between: np.ndarray


def _median(values) -> float:
    """np.median of values with no NaN, bit for bit, without the numpy.ma import its first
    call makes: like np.median, the mean of the middle value or the middle two."""
    ordered, half = np.sort(values), len(values) // 2
    return float(np.mean(ordered[half - 1 + len(values) % 2 : half + 1]))


def normalize(counts: CountMatrix, spec: PipelineSpec) -> np.ndarray:
    """Normalize raw counts to a dense float matrix (cells x genes).

    Parameters
    ----------
    counts : CountMatrix
        Validated raw counts; every cell has library size >= 1.
    spec : PipelineSpec
        per10k scales each cell to 10,000 total counts and applies log1p.
        median divides each cell by its size factor, library size over the
        median library size, then applies log1p; median-nolog skips the log1p.
    """
    raw = counts.counts.astype(np.float64)  # the one float copy, scaled and logged in place
    libsizes = raw.sum(axis=1)
    if spec is PipelineSpec.PER10K:
        raw *= (10000.0 / libsizes)[:, None]
        return np.log1p(raw, out=raw)
    raw /= (libsizes / _median(libsizes))[:, None]  # each cell's size factor
    if spec is PipelineSpec.MEDIAN_NOLOG:
        return raw
    return np.log1p(raw, out=raw)


def mean_effects(normalized: np.ndarray, cell_condition, gene_ids) -> EffectMatrix:
    """Per-perturbation mean effect relative to control cells.

    Effect row i is the columnwise mean over cells of perturbation i minus
    the columnwise mean over control cells. Perturbations are listed in
    lexicographic order.
    """
    normalized = np.asarray(normalized, dtype=np.float64)
    condition = np.asarray([str(x) for x in cell_condition])
    if normalized.ndim != 2 or normalized.shape[0] != condition.shape[0]:
        raise ValidationError("normalized matrix and condition labels disagree on cell count")
    control = condition == CONTROL_LABEL
    if not control.any():
        raise MissingControl(f"no cell labeled {CONTROL_LABEL!r}")
    perts = sorted(set(condition.tolist()) - {CONTROL_LABEL})
    if not perts:
        raise ValidationError(f"no perturbation cells found: all cells are {CONTROL_LABEL!r}")
    control_mean = normalized[control].mean(axis=0)
    effects = np.empty((len(perts), normalized.shape[1]))
    for row, pert in zip(effects, perts):
        row[:] = normalized[condition == pert].mean(axis=0) - control_mean
    return EffectMatrix(_Made(effects), tuple(perts), tuple(gene_ids))


def compare_pipelines(
    counts: CountMatrix,
    spec_a: PipelineSpec,
    spec_b: PipelineSpec,
    sign_threshold: float = 0.0,
) -> PipelineComparison:
    """Contrast the mean effects produced by two pipelines from the same counts.

    A perturbation whose effect is the zero vector under either pipeline gets
    NaN cosine and sign cosine; one whose sign vector is all zero (every
    |value| at or below sign_threshold) gets NaN sign cosine.
    """
    sign_spec = DistanceSpec(DistanceKind.SIGN_COSINE_DISSIM, sign_threshold)
    effects_a = mean_effects(normalize(counts, spec_a), counts.cell_condition, counts.gene_ids)
    effects_b = mean_effects(normalize(counts, spec_b), counts.cell_condition, counts.gene_ids)
    a = effects_a.values
    b = effects_b.values
    columns = {
        "l1_norm_a": np.linalg.norm(a, 1, axis=1),
        "l1_norm_b": np.linalg.norm(b, 1, axis=1),
        "l2_norm_a": np.linalg.norm(a, 2, axis=1),
        "l2_norm_b": np.linalg.norm(b, 2, axis=1),
        "cosine_between": _similarity(DistanceSpec(DistanceKind.COSINE_DISSIM), a, b)[0],
        "sign_cosine_between": _similarity(sign_spec, a, b)[0],
    }
    for arr in columns.values():
        arr.setflags(write=False)
    return PipelineComparison(spec_a, spec_b, effects_a.perturbation_ids, **columns)
