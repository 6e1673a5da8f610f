"""Synthetic data with controllable geometry.

The pair generator places truths at isotropic random directions with
log-normal norms and builds each prediction at an exact requested cosine
to its own truth, so discrimination behavior can be dialed in directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .effects import EffectMatrix, EffectPair, _Made
from .errors import BadParameter, BadSpec
from .preprocessing import CONTROL_LABEL, CountMatrix


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for an aligned pair with controlled norms, cosines, and scale."""

    n_perturbations: int
    n_genes: int
    target_cosine: float
    norm_mu: float = 0.0
    norm_sigma: float = 1.0
    prediction_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_perturbations < 2:
            raise BadSpec("need at least two perturbations")
        if self.n_genes < 2:
            raise BadSpec("need at least two genes for an orthogonal completion")
        if not (0.0 <= self.target_cosine <= 1.0):
            raise BadSpec("target_cosine must lie in [0, 1]")
        if not np.isfinite(self.norm_mu):
            raise BadSpec("norm_mu must be finite")
        if not 0.0 <= self.norm_sigma < np.inf:  # NaN fails every comparison
            raise BadSpec("norm_sigma must be finite and >= 0")
        if not (np.isfinite(self.prediction_scale) and self.prediction_scale > 0.0):
            raise BadSpec("prediction_scale must be positive")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise BadParameter(f"seed must be a nonnegative integer, got {self.seed!r}")


def _unit(rng, p: int) -> np.ndarray:
    while True:
        g = rng.standard_normal(p)
        norm = math.sqrt(np.multiply(g, g).sum())  # pairwise, not BLAS: same bytes on any CPU
        if norm > 0.0:
            return g / norm


def _orthogonal_unit(rng, direction: np.ndarray) -> np.ndarray:
    # Gram-Schmidt against the direction, with pairwise sums; redraw on near collinearity.
    while True:
        g = rng.standard_normal(direction.shape[0])
        g -= np.multiply(g, direction).sum() * direction
        residual = float(np.multiply(g, g).sum())
        if residual >= 1e-12:
            return g / math.sqrt(residual)


def generate(spec: SynthSpec) -> EffectPair:
    """Build an aligned pair; deterministic per seed, with per-row substreams."""
    n, p = spec.n_perturbations, spec.n_genes
    rho = spec.target_cosine
    ortho_weight = math.sqrt(max(0.0, 1.0 - rho * rho))
    truth = np.empty((n, p))
    predicted = np.empty((n, p))
    children = np.random.SeedSequence(spec.seed).spawn(n)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        direction = _unit(rng, p)
        norm = rng.lognormal(spec.norm_mu, spec.norm_sigma)
        completion = _orthogonal_unit(rng, direction)
        truth[i] = norm * direction
        predicted[i] = spec.prediction_scale * (rho * direction + ortho_weight * completion)
    width = max(4, len(str(n - 1)))
    pert_ids = tuple(f"P{i:0{width}d}" for i in range(n))
    gene_ids = tuple(f"G{j:0{max(4, len(str(p - 1)))}d}" for j in range(p))
    return EffectPair(
        EffectMatrix(_Made(predicted), pert_ids, gene_ids),
        EffectMatrix(_Made(truth), pert_ids, gene_ids),
    )


@dataclass(frozen=True)
class CountSynthSpec:
    """Recipe for Poisson counts with heterogeneous cell library sizes.

    Each condition (control plus each perturbation) has its own gene rate
    vector; perturbations multiply a random subset of the baseline rates by
    log-normal fold changes. Every cell scales its condition's rates by a
    log-normal cell factor, which spreads library sizes.
    """

    n_perturbations: int
    cells_per_condition: int
    n_genes: int
    mean_counts_per_cell: float = 2000.0
    libsize_sigma: float = 0.6
    effect_fraction: float = 0.1
    effect_log_fc_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_perturbations < 1:
            raise BadSpec("need at least one perturbation")
        if self.cells_per_condition < 1:
            raise BadSpec("need at least one cell per condition")
        if self.n_genes < 2:
            raise BadSpec("need at least two genes")
        if not 0.0 < self.mean_counts_per_cell < np.inf:  # NaN fails every comparison
            raise BadSpec("mean_counts_per_cell must be positive and finite")
        if not (0.0 <= self.libsize_sigma < np.inf and 0.0 <= self.effect_log_fc_sigma < np.inf):
            raise BadSpec("sigmas must be finite and >= 0")
        if not (0.0 <= self.effect_fraction <= 1.0):
            raise BadSpec("effect_fraction must lie in [0, 1]")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise BadParameter(f"seed must be a nonnegative integer, got {self.seed!r}")


_DRAWS_PER_CELL = 1000  # an empty cell is redrawn; rates this small fail instead


def generate_counts(spec: CountSynthSpec) -> CountMatrix:
    """Draw a CountMatrix; deterministic per seed, with per-cell substreams."""
    root = np.random.SeedSequence(spec.seed)
    setup_seed, cells_seed = root.spawn(2)
    rng = np.random.default_rng(setup_seed)

    base = rng.lognormal(0.0, 1.0, spec.n_genes)
    base *= spec.mean_counts_per_cell / base.sum()
    width = max(4, len(str(spec.n_perturbations - 1)))
    pert_ids = [f"P{i:0{width}d}" for i in range(spec.n_perturbations)]
    rates = {CONTROL_LABEL: base}
    for pert in pert_ids:
        hit = rng.random(spec.n_genes) < spec.effect_fraction
        log_fc = rng.normal(0.0, spec.effect_log_fc_sigma, spec.n_genes) * hit
        with np.errstate(over="ignore"):  # an infinite rate fails when drawn
            rates[pert] = base * np.exp(log_fc)

    conditions = [CONTROL_LABEL] + pert_ids
    n_cells = len(conditions) * spec.cells_per_condition
    cell_children = cells_seed.spawn(n_cells)
    counts = np.empty((n_cells, spec.n_genes), dtype=np.int64)
    labels = []
    for c, child in enumerate(cell_children):
        condition = conditions[c // spec.cells_per_condition]
        labels.append(condition)
        cell_rng = np.random.default_rng(child)
        for _ in range(_DRAWS_PER_CELL):
            factor = cell_rng.lognormal(0.0, spec.libsize_sigma)
            try:
                row = cell_rng.poisson(factor * rates[condition])
            except ValueError:  # a rate beyond numpy's Poisson limit, or NaN
                raise BadSpec(f"Poisson rate of a {condition!r} cell out of range") from None
            if row.any():  # library size of at least one count
                counts[c] = row
                break
        else:
            raise BadSpec(f"a {condition!r} cell was empty in all {_DRAWS_PER_CELL} draws")
    return CountMatrix(_Made(counts), tuple(labels), tuple(f"G{j:04d}" for j in range(spec.n_genes)))
