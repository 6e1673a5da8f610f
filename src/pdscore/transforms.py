"""Scaling and normalization transforms applied to predictions before scoring.

Transforms act on the predicted side only; truths are never rescaled.
Chains applied through apply_chain are recorded on the pair so reports can
state exactly what was done to the predictions.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .effects import EffectMatrix, EffectPair, _Made
from .errors import BadParameter, NonpositiveScale, ValidationError, ZeroPredictionNorm
from .metrics import _sign_threshold, _signs


class TransformKind(Enum):
    GLOBAL_SCALE = "scale"
    NORM_MATCH_L1 = "norm-match:l1"
    NORM_MATCH_L2 = "norm-match:l2"
    SIGN_PROJECT = "sign"


CHAIN_GRAMMAR = "scale:<c> | norm-match:l1 | norm-match:l2 | sign:<threshold>"


@dataclass(frozen=True)
class TransformDescriptor:
    """One transform plus its parameter (scale factor or sign threshold)."""

    kind: TransformKind
    parameter: float | None = None

    def __post_init__(self):
        if self.kind is TransformKind.GLOBAL_SCALE:
            if (
                self.parameter is None
                or not np.isfinite(self.parameter)
                or self.parameter <= 0.0
            ):
                raise NonpositiveScale("scale factor must be a finite positive number")
        elif self.kind is TransformKind.SIGN_PROJECT:
            _sign_threshold(self.parameter)
        elif self.parameter is not None:
            raise BadParameter(f"{self.kind.value} takes no parameter")

    @property
    def token(self) -> str:
        """Chain token; parse_chain reads the parameter back bit for bit."""
        if self.parameter is None:
            return self.kind.value
        return f"{self.kind.value}:{_exact(self.parameter)}"


def _exact(x: float) -> str:
    # Fewest %g digits, from the default six, that parse back to x exactly;
    # 17 significant digits always round-trip a float64.
    for digits in range(6, 17):
        text = f"{x:.{digits}g}"
        if float(text) == x:
            return text
    return f"{x:.17g}"


def global_scale(predicted: EffectMatrix, c: float) -> EffectMatrix:
    """Multiply every entry by a positive constant; labels unchanged."""
    if not np.isfinite(c) or c <= 0.0:
        raise NonpositiveScale(f"scale factor must be positive and finite, got {c!r}")
    check_scale(np.abs(predicted.values).max(axis=1), float(c), predicted.perturbation_ids)
    return predicted.with_values(_Made(predicted.values * float(c)))


def check_scale(peaks, c, perturbation_ids, name=None) -> None:
    """Raise ValidationError naming the rescale (by default "scale factor <c>") and the first
    perturbation whose values overflow times c, one factor or one per row. peaks holds each
    row's largest |value|: rounding is monotone, so a row overflows exactly where its peak does."""
    with np.errstate(over="ignore"):
        over = np.flatnonzero(np.isinf(peaks * c))
    if over.size:
        name, first = name or f"scale factor {_exact(c)}", perturbation_ids[over[0]]
        raise ValidationError(f"{name} overflows the predicted effects of {first!r}")


def norm_match(pair: EffectPair, p_norm: int) -> EffectPair:
    """Rescale each predicted row so its p-norm equals the matching truth row's.

    Row i is multiplied by c_i = |truth_i|_p / |predicted_i|_p. A zero-norm
    predicted row cannot be matched by scaling and is a hard error.
    """
    return pair.with_predicted(_norm_matched(pair.predicted, pair.truth, p_norm))


def _norm_matched(predicted: EffectMatrix, truth: EffectMatrix, p_norm: int) -> EffectMatrix:
    if p_norm not in (1, 2):
        raise BadParameter(f"p_norm must be 1 or 2, got {p_norm!r}")
    with np.errstate(all="ignore"):  # norms past the float range are refused below
        peaks, pred_norms = _peaks_and_norms(predicted.values, p_norm)
        ratios = _peaks_and_norms(truth.values, p_norm)[1] / pred_norms
    # an infinite norm overflows its row and is named before any zero one
    infinite, zero = np.isinf(pred_norms), np.flatnonzero(pred_norms == 0.0)
    if zero.size and not infinite.any():
        pid = predicted.perturbation_ids[int(zero[0])]
        raise ZeroPredictionNorm(f"predicted row {pid!r} has zero l{p_norm} norm")
    ratios = np.select([infinite, pred_norms > 0.0], [np.inf, ratios])  # 0 for a zero norm
    check_scale(peaks, ratios, predicted.perturbation_ids, f"l{p_norm} norm matching")
    return predicted.with_values(_Made(predicted.values * ratios[:, None]))


def _peaks_and_norms(values, p_norm: int):
    """Each row's largest |value| and its p-norm, taken over the power of two of that peak:
    a scaling exact for every value from 2^-1022 times the peak up, so a norm leaves the
    float range only where its exact value does, not where its squares do."""
    terms = np.abs(values)  # the one copy: scaled, and squared for l2, in place
    peaks = terms.max(axis=1)
    exponents = np.frexp(peaks)[1]
    np.ldexp(terms, -exponents[:, None], out=terms)
    if p_norm == 1:
        return peaks, np.ldexp(terms.sum(axis=1), exponents)
    return peaks, np.ldexp(np.sqrt(np.square(terms, out=terms).sum(axis=1)), exponents)


def sign_project(predicted: EffectMatrix, threshold: float = 0.0) -> EffectMatrix:
    """Replace each row by its sign vector (values in {-1, 0, 1}), with |x| <= threshold
    mapped to 0."""
    return predicted.with_values(_Made(_signs(predicted.values, _sign_threshold(threshold))))


def apply_chain(pair: EffectPair, chain) -> EffectPair:
    """Apply descriptors left to right to the predicted side, recording provenance."""
    chain, predicted = tuple(chain), pair.predicted
    for descriptor in chain:
        if descriptor.kind is TransformKind.GLOBAL_SCALE:
            predicted = global_scale(predicted, descriptor.parameter)
        elif descriptor.kind is TransformKind.SIGN_PROJECT:
            predicted = sign_project(predicted, descriptor.parameter)
        else:  # norm-match:l1 or norm-match:l2
            predicted = _norm_matched(predicted, pair.truth, int(descriptor.kind.value[-1]))
    return pair.with_predicted(predicted, chain)


def parse_chain(text: str) -> tuple[TransformDescriptor, ...]:
    """Parse a comma-separated transform chain; grammar: scale:<c> | norm-match:l1 | norm-match:l2 | sign:<threshold>."""
    text = text.strip()
    if not text:
        return ()
    return tuple(_descriptor(token.strip()) for token in text.split(","))


def chain_tokens(chain) -> list[str]:
    return [descriptor.token for descriptor in chain]


def _descriptor(token: str) -> TransformDescriptor:
    """A kind that takes no parameter by its name, any other as <name>:<number>."""
    try:
        return TransformDescriptor(TransformKind(token))
    except ValueError:  # not a kind, or a kind that needs a parameter
        pass
    name, _, raw = token.partition(":")
    try:
        kind = TransformKind(name)
    except ValueError:
        raise BadParameter(f"unknown transform {token!r}; grammar: {CHAIN_GRAMMAR}") from None
    try:
        value = float(raw)
    except ValueError:
        raise BadParameter(f"bad {name} parameter {raw!r}; grammar: {CHAIN_GRAMMAR}") from None
    return TransformDescriptor(kind, value)
