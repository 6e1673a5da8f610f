"""Euclidean geometry of short distractors around a prediction direction.

Any candidate sitting on a ray orthogonal to the prediction can come
arbitrarily close to the prediction's distance floor as its length
shrinks: |pred - t u| approaches |pred| as t goes to 0. So the true effect
beats every orthogonal-ray candidate only when its own distance is at most
|pred|, which is a cosine condition. With matched norms the condition is
cosine >= 0.5, an angle of at most 60 degrees.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, NonpositiveNorm
from .metrics import _CACHED, DistanceKind, DistanceSpec, distance, pairwise_to_rows

_BATCH = 1 << 14
_L2 = DistanceSpec(DistanceKind.L2)  # a draw's l2 distance from the origin is its norm


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of the orthogonal-ray safety check; safe iff margin >= 0."""

    safe: bool
    cosine: float
    threshold: float
    margin: float


@dataclass(frozen=True)
class MonteCarloRegionResult:
    """Fraction of uniformly random directions whose scaled point beats the truth."""

    dimension: int
    norm_ratio: float
    true_cosine: float
    samples: int
    fraction_closer: float
    standard_error: float


def orthogonal_ray_certificate(
    pred_norm: float, true_norm: float, cosine_to_true: float
) -> CertificateResult:
    """Check whether the truth beats every point on every ray orthogonal to the prediction.

    With |pred - t u|^2 = pred_norm^2 + t^2 for unit u orthogonal to the
    prediction, the infimum over t > 0 is pred_norm. The truth's distance
    satisfies d^2 = pred_norm^2 + true_norm^2 - 2 pred_norm true_norm cos,
    so d <= pred_norm reduces to cos >= true_norm / (2 pred_norm).
    """
    if not (np.isfinite(pred_norm) and pred_norm > 0.0):
        raise NonpositiveNorm(f"pred_norm must be positive, got {pred_norm!r}")
    if not (np.isfinite(true_norm) and true_norm > 0.0):
        raise NonpositiveNorm(f"true_norm must be positive, got {true_norm!r}")
    if not np.isfinite(cosine_to_true) or abs(cosine_to_true) > 1.0:
        raise BadParameter(f"cosine must lie in [-1, 1], got {cosine_to_true!r}")
    threshold = true_norm / (2.0 * pred_norm)
    margin = float(cosine_to_true - threshold)  # a plain float, so safe is a plain bool
    return CertificateResult(margin >= 0.0, float(cosine_to_true), float(threshold), margin)


def region_fraction(
    dimension: int,
    norm_ratio: float,
    true_cosine: float,
    samples: int,
    seed: int,
    metric: str = "l2",
) -> MonteCarloRegionResult:
    """Monte Carlo estimate of how often a short random-direction distractor wins.

    The prediction is fixed at the first axis with unit norm; the truth is
    a unit vector at the requested cosine, built from the first axis plus
    one orthogonal completion axis. Directions u are sampled uniformly on
    the unit sphere and the fraction with |pred - norm_ratio u| strictly
    below the truth's distance is returned with its binomial standard
    error. Draws come in batches of 2**14, each from its own child seed,
    which fixes the random stream. A batch is drawn, normed, rescaled and
    measured in row chunks of about 2**16 values (one row once dimension
    exceeds that), so memory does not grow with samples or dimension; a
    draw of zero norm is redrawn after the batch's other draws. Every norm
    and distance comes from pairwise_to_rows.

    Under l2 the distractor wins iff u_1 > s = (norm_ratio^2 + 2 true_cosine
    - 1) / (2 norm_ratio). As dimension grows u_1 concentrates at 0, so the
    fraction falls towards 0 when s > 0, i.e. true_cosine above
    (1 - norm_ratio^2) / 2, and rises towards 1 when s < 0.
    """
    if dimension < 2:
        raise BadParameter("dimension must be at least 2")
    if samples < 1:
        raise BadParameter("samples must be at least 1")
    if not (np.isfinite(norm_ratio) and norm_ratio > 0.0):
        raise BadParameter(f"norm_ratio must be positive, got {norm_ratio!r}")
    if not np.isfinite(true_cosine) or abs(true_cosine) > 1.0:
        raise BadParameter(f"true_cosine must lie in [-1, 1], got {true_cosine!r}")
    if metric not in ("l1", "l2"):
        raise BadParameter(f"metric must be 'l1' or 'l2', got {metric!r}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise BadParameter(f"seed must be a nonnegative integer, got {seed!r}")

    spec = DistanceSpec(DistanceKind(metric))
    origin = np.zeros(dimension)
    pred = np.zeros(dimension)
    pred[0] = 1.0
    truth = np.zeros(dimension)
    truth[0] = true_cosine
    truth[1] = math.sqrt(max(0.0, 1.0 - true_cosine * true_cosine))
    true_distance = distance(spec, pred, truth)

    step = max(1, _CACHED // dimension)  # draws per chunk
    children = np.random.SeedSequence(seed).spawn((samples + _BATCH - 1) // _BATCH)
    wins = 0
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        pending = min(_BATCH, samples - i * _BATCH)
        while pending:  # zero draws (essentially unreachable) are redrawn after the rest
            redraw = 0
            for start in range(0, pending, step):
                draws = rng.standard_normal((min(step, pending - start), dimension))
                norms = pairwise_to_rows(_L2, origin, draws)
                zero = norms == 0.0
                redraw += int(zero.sum())
                # A rescaled coordinate, square or sum overflows only where the draw's exact
                # distance is far above any true distance (at most 1 + sqrt 2), and its inf
                # (NaN for a 0 coordinate times an inf factor) compares as not closer.
                with np.errstate(over="ignore", invalid="ignore"):
                    draws *= (norm_ratio / np.where(zero, 1.0, norms))[:, None]  # norm_ratio * u
                    wins += int((pairwise_to_rows(spec, pred, draws)[~zero] < true_distance).sum())
            pending = redraw

    fraction = wins / samples
    stderr = math.sqrt(fraction * (1.0 - fraction) / samples)
    return MonteCarloRegionResult(
        int(dimension), float(norm_ratio), float(true_cosine), int(samples), fraction, stderr
    )
