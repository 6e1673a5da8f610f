"""Distance and dissimilarity measures between effect vectors.

All reductions use numpy's fixed-order (pairwise) accumulation over
contiguous rows, so repeated runs and anchor-level parallelism reproduce
results to the last bit.
"""

import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadParameter, DimensionMismatch, ZeroSignVector, ZeroVector


class DistanceKind(Enum):
    L1 = "l1"
    L2 = "l2"
    COSINE_DISSIM = "cosine"
    SIGN_COSINE_DISSIM = "sign-cosine"
    L2_LIMIT = "l2-limit"
    L1_LIMIT = "l1-limit"


METRIC_TOKENS = tuple(kind.value for kind in DistanceKind)


@dataclass(frozen=True)
class DistanceSpec:
    """A distance measure plus its parameters.

    sign_threshold only affects the sign-based kinds; coordinates with
    magnitude at or below the threshold count as sign zero.
    """

    kind: DistanceKind
    sign_threshold: float = 0.0

    def __post_init__(self):
        threshold = float(self.sign_threshold)
        if not np.isfinite(threshold) or threshold < 0.0:
            raise BadParameter("sign_threshold must be finite and >= 0")
        object.__setattr__(self, "sign_threshold", threshold)

    @property
    def token(self) -> str:
        return self.kind.value


def spec_from_token(token: str, sign_threshold: float = 0.0) -> DistanceSpec:
    try:
        kind = DistanceKind(token)
    except ValueError:
        raise BadParameter(
            f"unknown metric {token!r}; choose from: {', '.join(METRIC_TOKENS)}"
        ) from None
    return DistanceSpec(kind, sign_threshold)


def _vector(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch("expected a 1-d vector")
    return arr


def _pair(a, b):
    a = _vector(a)
    b = _vector(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"vector lengths differ: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 1:
        raise DimensionMismatch("vectors must have at least one coordinate")
    return a, b


def dist_l1(a, b) -> float:
    """Sum of absolute coordinate differences."""
    a, b = _pair(a, b)
    return float(np.abs(a - b).sum())


def dist_l2(a, b) -> float:
    """Euclidean distance."""
    a, b = _pair(a, b)
    return float(np.sqrt(((a - b) ** 2).sum()))


def cosine(a, b) -> float:
    """Cosine similarity; raises ZeroVector when either direction is undefined."""
    a, b = _pair(a, b)
    na = float(np.sqrt((a * a).sum()))
    nb = float(np.sqrt((b * b).sum()))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine undefined for a zero vector")
    return float((a * b).sum()) / (na * nb)


def sign_vector(a, threshold: float = 0.0) -> np.ndarray:
    """Coordinatewise sign, with |x| <= threshold mapped to 0."""
    a = _vector(a)
    if threshold < 0.0:
        raise BadParameter("threshold must be >= 0")
    out = np.sign(a)
    if threshold > 0.0:
        out[np.abs(a) <= threshold] = 0.0
    return out


def sign_cosine(a, b, threshold: float = 0.0) -> float:
    """Cosine similarity between coordinatewise sign vectors.

    Equals (agreements - disagreements) / sqrt(nnz(a) * nnz(b)) where nnz
    counts nonzero signs.
    """
    a, b = _pair(a, b)
    sa = sign_vector(a, threshold)
    sb = sign_vector(b, threshold)
    nnz_a = float((sa != 0.0).sum())
    nnz_b = float((sb != 0.0).sum())
    if nnz_a == 0.0 or nnz_b == 0.0:
        raise ZeroSignVector("sign cosine undefined when a sign vector is all zero")
    return float((sa * sb).sum()) / float(np.sqrt(nnz_a * nnz_b))


_scratch = threading.local()


def _scratch_like(rows: np.ndarray) -> np.ndarray:
    """Scratch laid out as numpy lays out rows - a, reused by this thread's later calls.

    Fresh matrix-sized temporaries per anchor cost page faults whenever the allocator
    has returned freed ones to the system, which depends on earlier allocations.
    """
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < rows.size:
        buf = _scratch.buf = np.empty(rows.size)
    order = "F" if 0 < abs(rows.strides[0]) < abs(rows.strides[1]) else "C"
    return buf[: rows.size].reshape(rows.shape, order=order)


def pairwise_to_rows(spec: DistanceSpec, a, rows) -> np.ndarray:
    """Measure from one prediction row to every row of a truth matrix.

    The limit kinds return scores, not distances: their ascending order
    equals the large-scale limit of the matching norm-based ranking, and
    smaller still means closer. See the asymptotics module for derivations.
    """
    a = _vector(a)
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise DimensionMismatch("expected a 2-d matrix of candidate rows")
    if rows.shape[1] != a.shape[0]:
        raise DimensionMismatch(
            f"row length {rows.shape[1]} does not match vector length {a.shape[0]}"
        )
    # Reductions below use elementwise products plus fixed-order sums along
    # the last axis (never BLAS matrix products), so a batch of rows and a
    # single row produce bit-identical values for identical inputs.
    kind = spec.kind
    w = _scratch_like(rows)
    if kind is DistanceKind.L1:
        return np.abs(np.subtract(rows, a, out=w), out=w).sum(axis=1)
    if kind is DistanceKind.L2:
        return np.sqrt(np.square(np.subtract(rows, a, out=w), out=w).sum(axis=1))
    if kind is DistanceKind.COSINE_DISSIM:
        na = float(np.sqrt((a * a).sum()))
        rn = np.sqrt(np.multiply(rows, rows, out=w).sum(axis=1))
        if na == 0.0 or np.any(rn == 0.0):
            raise ZeroVector("cosine undefined for a zero vector")
        return 1.0 - np.multiply(rows, a, out=w).sum(axis=1) / (rn * na)
    if kind is DistanceKind.SIGN_COSINE_DISSIM:
        sa = sign_vector(a, spec.sign_threshold)
        sr = np.sign(rows, out=w)
        if spec.sign_threshold > 0.0:
            sr[np.abs(rows) <= spec.sign_threshold] = 0.0
        nnz_a = float((sa != 0.0).sum())
        nnz_r = (sr != 0.0).sum(axis=1).astype(np.float64)
        if nnz_a == 0.0 or np.any(nnz_r == 0.0):
            raise ZeroSignVector("sign cosine undefined when a sign vector is all zero")
        return 1.0 - np.multiply(sr, sa, out=w).sum(axis=1) / np.sqrt(nnz_a * nnz_r)
    if kind is DistanceKind.L2_LIMIT:
        return -np.multiply(rows, a, out=w).sum(axis=1)
    if kind is DistanceKind.L1_LIMIT:
        sa = sign_vector(a, spec.sign_threshold)
        # coordinate with a zero predicted sign contributes |r_j|, any other
        # contributes -sign(a_j) r_j
        np.multiply(rows, -sa, out=w)
        return np.abs(rows, out=w, where=sa == 0.0).sum(axis=1)
    raise BadParameter(f"unhandled distance kind {kind!r}")


def distance(spec: DistanceSpec, a, b) -> float:
    """Evaluate one measure between two vectors (dispatch over DistanceSpec)."""
    a, b = _pair(a, b)
    return float(pairwise_to_rows(spec, a, b[None, :])[0])
