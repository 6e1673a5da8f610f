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

from .effects import EffectMatrix
from .errors import (
    BadParameter,
    EmptyPerturbation,
    MissingControl,
    ValidationError,
    ZeroLibrarySize,
)
from .metrics import cosine, sign_cosine

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


@dataclass(frozen=True)
class CountMatrix:
    """Nonnegative integer cell x gene counts with per-cell condition labels."""

    counts: np.ndarray
    cell_condition: tuple[str, ...]
    gene_ids: tuple[str, ...]
    cell_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise ValidationError("counts must be a 2-d matrix")
        if not np.issubdtype(counts.dtype, np.integer):
            as_float = np.asarray(counts, dtype=np.float64)
            if not np.isfinite(as_float).all() or np.any(as_float != np.floor(as_float)):
                raise ValidationError("counts must be integers")
            counts = as_float.astype(np.int64)
        else:
            counts = counts.astype(np.int64)
        if np.any(counts < 0):
            raise ValidationError("counts must be nonnegative")
        counts.setflags(write=False)
        n_cells, n_genes = counts.shape
        condition = tuple(str(x) for x in self.cell_condition)
        genes = tuple(str(g) for g in self.gene_ids)
        if len(condition) != n_cells:
            raise ValidationError(f"{len(condition)} condition labels for {n_cells} cells")
        if len(genes) != n_genes:
            raise ValidationError(f"{len(genes)} gene ids for {n_genes} columns")
        if len(set(genes)) != len(genes):
            raise ValidationError("duplicate gene ids")
        libsizes = counts.sum(axis=1)
        zero = np.flatnonzero(libsizes < 1)
        if zero.size:
            raise ZeroLibrarySize(f"cell {int(zero[0])} has library size 0")
        if CONTROL_LABEL not in condition:
            raise MissingControl(f"no cell labeled {CONTROL_LABEL!r}")
        cell_ids = self.cell_ids
        if cell_ids is None:
            cell_ids = tuple(f"cell{i:05d}" for i in range(n_cells))
        else:
            cell_ids = tuple(str(c) for c in cell_ids)
            if len(cell_ids) != n_cells:
                raise ValidationError(f"{len(cell_ids)} cell ids for {n_cells} cells")
            if len(set(cell_ids)) != len(cell_ids):
                raise ValidationError("duplicate cell ids")
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
    raw = counts.counts.astype(np.float64)
    libsizes = raw.sum(axis=1)
    if spec is PipelineSpec.PER10K:
        scaled = raw * (10000.0 / libsizes)[:, None]
        return np.log1p(scaled)
    factors = libsizes / np.median(libsizes)
    scaled = raw / factors[:, None]
    if spec is PipelineSpec.MEDIAN_NOLOG:
        return scaled
    return np.log1p(scaled)


def mean_effects(
    normalized: np.ndarray,
    cell_condition,
    gene_ids,
    perturbation_ids=None,
) -> EffectMatrix:
    """Per-perturbation mean effect relative to control cells.

    Effect row i is the columnwise mean over cells of perturbation i minus
    the columnwise mean over control cells. Perturbations are listed in
    lexicographic order unless an explicit list is given.
    """
    normalized = np.asarray(normalized, dtype=np.float64)
    condition = np.asarray([str(x) for x in cell_condition])
    if normalized.ndim != 2 or normalized.shape[0] != condition.shape[0]:
        raise ValidationError("normalized matrix and condition labels disagree on cell count")
    control = condition == CONTROL_LABEL
    if not control.any():
        raise MissingControl(f"no cell labeled {CONTROL_LABEL!r}")
    if perturbation_ids is None:
        perts = sorted(set(condition.tolist()) - {CONTROL_LABEL})
    else:
        perts = [str(x) for x in perturbation_ids]
    control_mean = normalized[control].mean(axis=0)
    rows = []
    for pert in perts:
        members = condition == pert
        if not members.any():
            raise EmptyPerturbation(f"perturbation {pert!r} has no cells")
        rows.append(normalized[members].mean(axis=0) - control_mean)
    return EffectMatrix(np.vstack(rows), tuple(perts), tuple(gene_ids))


def compare_pipelines(
    counts: CountMatrix,
    spec_a: PipelineSpec,
    spec_b: PipelineSpec,
    sign_threshold: float = 0.0,
) -> PipelineComparison:
    """Contrast the mean effects produced by two pipelines from the same counts."""
    effects_a = mean_effects(normalize(counts, spec_a), counts.cell_condition, counts.gene_ids)
    effects_b = mean_effects(normalize(counts, spec_b), counts.cell_condition, counts.gene_ids)
    a = effects_a.values
    b = effects_b.values
    columns = {
        "l1_norm_a": np.abs(a).sum(axis=1),
        "l1_norm_b": np.abs(b).sum(axis=1),
        "l2_norm_a": np.sqrt((a**2).sum(axis=1)),
        "l2_norm_b": np.sqrt((b**2).sum(axis=1)),
        "cosine_between": np.array([cosine(x, y) for x, y in zip(a, b)]),
        "sign_cosine_between": np.array([sign_cosine(x, y, sign_threshold) for x, y in zip(a, b)]),
    }
    for arr in columns.values():
        arr.setflags(write=False)
    return PipelineComparison(spec_a, spec_b, effects_a.perturbation_ids, **columns)
