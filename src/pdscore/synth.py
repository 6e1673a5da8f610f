"""Synthetic data with controllable geometry, plus independent brute-force oracles.

The pair generator places truths at isotropic random directions with
log-normal norms and builds each prediction at an exact requested cosine
to its own truth, so discrimination behavior can be dialed in directly.
The oracles recompute ranks by full sorting (not by comparison counting)
and recompute limit rankings from literal distance evaluations at a large
scale; they exist to cross-check the main implementations.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discrimination import ErrorPolicy, PdsEntry, PdsReport, finish_report, undefined_entry
from .effects import EffectMatrix, EffectPair, anchor_subproblem
from .errors import BadParameter, BadSpec, ZeroVector
from .metrics import DistanceKind, DistanceSpec, cosine, dist_l1, dist_l2, distance, sign_cosine
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


def _unit(rng: np.random.Generator, p: int) -> np.ndarray:
    while True:
        g = rng.standard_normal(p)
        norm = np.linalg.norm(g)
        if norm > 0.0:
            return g / norm


def _orthogonal_unit(rng: np.random.Generator, direction: np.ndarray) -> np.ndarray:
    # Gram-Schmidt against the direction; redraw on near collinearity.
    while True:
        g = rng.standard_normal(direction.shape[0])
        g -= (g @ direction) * direction
        residual = float(g @ g)
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
        EffectMatrix(predicted, pert_ids, gene_ids),
        EffectMatrix(truth, pert_ids, gene_ids),
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
    return CountMatrix(counts, tuple(labels), tuple(f"G{j:04d}" for j in range(spec.n_genes)))


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
    """One measure from the scalar functions; only the limit kinds, which have
    no scalar form, go through the batched kernel."""
    kind = spec.kind
    if kind is DistanceKind.L1:
        return dist_l1(a, r)
    if kind is DistanceKind.L2:
        return dist_l2(a, r)
    if kind is DistanceKind.COSINE_DISSIM:
        return 1.0 - cosine(a, r)
    if kind is DistanceKind.SIGN_COSINE_DISSIM:
        return 1.0 - sign_cosine(a, r, spec.sign_threshold)
    return distance(spec, a, r)


def oracle_pds(
    pair: EffectPair,
    spec: DistanceSpec,
    apply_target_mask: bool = False,
    error_policy: ErrorPolicy = ErrorPolicy.WORST,
) -> PdsReport:
    """Reference scorer: scalar distances plus full-sort average-of-tie ranks.

    Shares the masking rule and the error policy with compute_pds but none
    of the ranking code, and evaluates l1, l2, cosine and sign-cosine with
    the scalar measure functions rather than the batched kernel, so rank
    agreement is a meaningful cross-check.
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
            entries.append(undefined_entry(pid, n, error_policy, exc))
    return finish_report(pair, spec, entries, apply_target_mask, error_policy)


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
