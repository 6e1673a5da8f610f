"""Containers for perturbation-effect matrices and aligned prediction/truth pairs.

Effect vectors are dense rows over a shared gene axis, one row per
perturbation. All containers are immutable after construction and safe to
share read-only across threads.

A container copies any array a caller hands it, so writing through a kept
reference cannot change it, and takes without a copy one pdscore has just made
(a parse buffer, a gather, a transform product, mean effects, synthetic data),
handed over as _Made(array). Every array along its base chain is read-only.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateLabel,
    EmptyIntersection,
    UnknownPerturbation,
    ValidationError,
)


@dataclass(frozen=True)
class _Made:
    """An array pdscore has just made and holds no other reference to."""

    array: np.ndarray


def _frozen(values, dtype, check=lambda array: array) -> np.ndarray:
    """values as a read-only dtype array no caller can write through: a _Made array of
    that dtype as it is (its maker freezes any array it views), anything else copied.
    check(array) sees the array before any cast, and returns it or raises."""
    made = isinstance(values, _Made)
    array = check(values.array if made else values)
    if not (made and array.dtype == dtype):
        array = np.array(array, dtype=dtype)
    array.setflags(write=False)
    return array


def _check_unique(labels, axis_name: str, axis: int) -> None:
    first = {}
    for i, label in enumerate(labels):
        if first.setdefault(label, i) != i:
            raise DuplicateLabel(f"duplicate {axis_name} label {label!r}", at=(axis, first[label], i))


@dataclass(frozen=True)
class EffectMatrix:
    """N perturbation-effect vectors over p genes, with row and column labels."""

    values: np.ndarray
    perturbation_ids: tuple[str, ...]
    gene_ids: tuple[str, ...]

    def __post_init__(self):
        values = _frozen(self.values, np.float64)
        perturbation_ids = tuple(str(x) for x in self.perturbation_ids)
        gene_ids = tuple(str(x) for x in self.gene_ids)
        if values.ndim != 2:
            raise ValidationError("effect values must be a 2-d matrix")
        n, p = values.shape
        if n < 1 or p < 1:
            raise ValidationError("effect matrix needs at least one row and one column")
        if len(perturbation_ids) != n:
            raise ValidationError(f"{len(perturbation_ids)} perturbation ids for {n} rows")
        if len(gene_ids) != p:
            raise ValidationError(f"{len(gene_ids)} gene ids for {p} columns")
        _check_unique(gene_ids, "gene", 1)
        first = int(np.isfinite(values).argmin())  # the first value that is not finite, if any
        if not np.isfinite(values.flat[first]):
            raise ValidationError("effect values must all be finite", at=divmod(first, p))
        _check_unique(perturbation_ids, "perturbation", 0)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "perturbation_ids", perturbation_ids)
        object.__setattr__(self, "gene_ids", gene_ids)

    @property
    def n_perturbations(self) -> int:
        return self.values.shape[0]

    @property
    def n_genes(self) -> int:
        return self.values.shape[1]

    def perturbation_index(self, perturbation_id: str) -> int:
        try:
            return self.perturbation_ids.index(perturbation_id)
        except ValueError:
            raise UnknownPerturbation(f"unknown perturbation {perturbation_id!r}") from None

    def with_values(self, values) -> "EffectMatrix":
        """Same labels, new values (used by transforms)."""
        return EffectMatrix(values, self.perturbation_ids, self.gene_ids)


@dataclass(frozen=True)
class EffectPair:
    """Aligned predicted/true effect matrices sharing labels in identical order.

    target_gene_of optionally maps a perturbation id to the gene it targets;
    scoring can exclude that gene from the perturbation's own comparisons.
    target_columns, derived from it, holds each row's target gene column, -1
    for a perturbation without one. transform_chain records descriptors
    already applied to the predicted side.
    """

    predicted: EffectMatrix
    truth: EffectMatrix
    target_gene_of: dict = field(default_factory=dict)
    transform_chain: tuple = ()
    target_columns: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.predicted.perturbation_ids != self.truth.perturbation_ids:
            raise ValidationError(
                "predicted and truth must list identical perturbations in identical order"
            )
        if self.predicted.gene_ids != self.truth.gene_ids:
            raise ValidationError("predicted and truth must list identical genes in identical order")
        column_of = {gene: j for j, gene in enumerate(self.gene_ids)}
        targets = {str(k): str(v) for k, v in dict(self.target_gene_of).items()}
        for pert, gene in targets.items():
            if gene not in column_of:
                raise ValidationError(f"target gene {gene!r} of {pert!r} is not a gene of this pair")
        columns = np.array(
            [column_of[targets[pert]] if pert in targets else -1 for pert in self.perturbation_ids]
        )
        columns.setflags(write=False)
        object.__setattr__(self, "target_gene_of", targets)
        object.__setattr__(self, "target_columns", columns)
        object.__setattr__(self, "transform_chain", tuple(self.transform_chain))

    @property
    def perturbation_ids(self) -> tuple[str, ...]:
        return self.predicted.perturbation_ids

    @property
    def gene_ids(self) -> tuple[str, ...]:
        return self.predicted.gene_ids

    @property
    def n_perturbations(self) -> int:
        return self.predicted.n_perturbations

    @property
    def n_genes(self) -> int:
        return self.predicted.n_genes

    def with_predicted(self, predicted: EffectMatrix, extra_chain: tuple = ()) -> "EffectPair":
        return EffectPair(
            predicted, self.truth, self.target_gene_of, self.transform_chain + tuple(extra_chain)
        )


def align_pair(predicted: EffectMatrix, truth: EffectMatrix, target_gene_of=None) -> EffectPair:
    """Restrict two effect matrices to their shared labels, in lexicographic order.

    Rows and columns are reordered identically on both sides, so the result
    does not depend on the input file order. A matrix that already lists the
    shared labels in that order is returned as it is. Target-gene entries whose
    perturbation or gene falls outside the intersection are dropped (a
    missing entry simply means no mask for that perturbation).
    """
    shared_perts = tuple(sorted(set(predicted.perturbation_ids) & set(truth.perturbation_ids)))
    shared_genes = tuple(sorted(set(predicted.gene_ids) & set(truth.gene_ids)))
    if len(shared_perts) < 2:
        raise EmptyIntersection(
            f"only {len(shared_perts)} shared perturbation(s); need at least 2"
        )
    if not shared_genes:
        raise EmptyIntersection("no shared genes")

    def reindex(m: EffectMatrix) -> EffectMatrix:
        if m.perturbation_ids == shared_perts and m.gene_ids == shared_genes:
            return m
        row_of = {label: i for i, label in enumerate(m.perturbation_ids)}
        col_of = {label: j for j, label in enumerate(m.gene_ids)}
        rows = [row_of[x] for x in shared_perts]
        cols = [col_of[g] for g in shared_genes]
        return EffectMatrix(_Made(m.values[np.ix_(rows, cols)]), shared_perts, shared_genes)

    pert_set = set(shared_perts)
    gene_set = set(shared_genes)
    targets = {
        pert: gene
        for pert, gene in dict(target_gene_of or {}).items()
        if pert in pert_set and gene in gene_set
    }
    return EffectPair(reindex(predicted), reindex(truth), targets)


def target_columns(pair: EffectPair, apply_target_mask: bool) -> np.ndarray:
    """Column of each anchor's masked target gene, -1 where the anchor is not masked."""
    if not apply_target_mask:
        return np.full(pair.n_perturbations, -1)
    if pair.n_genes < 2 and (pair.target_columns >= 0).any():
        raise ValidationError("masking would leave no gene coordinates")
    return pair.target_columns
