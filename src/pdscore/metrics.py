"""Distance and dissimilarity measures between effect vectors.

Every reduction in pairwise_to_rows sums in an order fixed by the layout of
its rows, so repeated runs and anchor-level parallelism reproduce results to
the last bit. C-contiguous rows sum pairwise. Column-masked copies, which
numpy lays out in Fortran order, sum sequentially along each row. A gather
of two or more of their rows keeps that order, but a single row is
contiguous and sums pairwise.

screen bounds the same values from one matrix product per call, so a
caller can settle most comparisons without the elementwise kernel.
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
    return _signs(a, threshold)


def _signs(values, threshold: float, out=None) -> np.ndarray:
    out = np.sign(values, out=out)
    if threshold > 0.0:
        out[np.abs(values) <= threshold] = 0.0
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
    # Reductions below use elementwise products plus sums along the last axis
    # (never BLAS matrix products), in the order the layout of rows fixes:
    # pairwise for C-contiguous rows, sequential per row for column-masked
    # Fortran-ordered copies. A gather of two or more rows sums as the whole
    # matrix does; a single row is contiguous, so it sums pairwise.
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
        sr = _signs(rows, spec.sign_threshold, out=w)
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


_TINY = 2.0**-900  # a smaller squared norm may have lost bits to underflow
_HUGE = 2.0**1000  # from a squared norm this large up, kernel terms may overflow


def screen(spec: DistanceSpec, predicted, truth):
    """Bounds on pairwise_to_rows for every prediction row, from one matrix product.

    Returns bounds(i, column=None) -> (lo, hi) with lo[j] <= v[j] <= hi[j] for
    v = pairwise_to_rows(spec, predicted[i], truth), both without that column
    when it is given (a masked target gene: one term off each product). An
    entry is NaN where no bound is certain: a squared norm below 2**-900 or
    from 2**1000 up, or an undefined cosine. For sign-cosine lo is hi and is
    v itself, since sign products and counts are integers below 2**53. l1 has
    no product form: every entry is NaN. An inner product of p terms errs by at
    most gamma_p |a| |r|, gamma_p = p u / (1 - p u), in any summation order
    (Higham, Accuracy and Stability of Numerical Algorithms, section 3.1); the
    radius 4 (p + 4) u covers the product, the kernel and the bounds' rounding.
    """
    kind = spec.kind
    P = np.asarray(predicted, dtype=np.float64)
    T = np.asarray(truth, dtype=np.float64)
    if kind is DistanceKind.L1:
        return lambda i, column=None: (np.full(len(T), np.nan), np.full(len(T), np.nan))
    threshold = spec.sign_threshold
    eps = 4.0 * (T.shape[1] + 4) * 2.0**-53  # u = 2**-53, the unit roundoff

    if kind is DistanceKind.SIGN_COSINE_DISSIM:
        signs_p = _signs(P, threshold)
        signs_t = _signs(T, threshold, out=_scratch_like(T))
        dots = signs_p @ signs_t.T
        nnz_p, nnz_t = (np.count_nonzero(m, axis=1).astype(np.float64) for m in (signs_p, signs_t))

        def bounds(i, column=None):
            dot, nnz_a, nnz_r = dots[i], nnz_p[i], nnz_t
            if column is not None:
                sa, sr = _signs(P[i, [column]], threshold), _signs(T[:, column], threshold)
                dot, nnz_a, nnz_r = dot - sa * sr, nnz_a - (sa != 0.0), nnz_r - (sr != 0.0)
            with np.errstate(all="ignore"):  # a zero count leaves NaN
                exact = 1.0 - dot / np.sqrt(nnz_a * nnz_r)
            return exact, exact

        return bounds

    if kind is DistanceKind.L1_LIMIT:
        # score = sum of |r_k| where sign(a_k) = 0, minus sign(a) . r
        signs = _signs(P, threshold)
        abs_t = np.abs(T, out=_scratch_like(T))
        with np.errstate(all="ignore"):  # sums that overflow meet a NaN radius
            dots = signs @ T.T
            l1 = abs_t.sum(axis=1)
            scores = np.subtract(1.0, np.square(signs, out=signs), out=signs) @ abs_t.T - dots
        radius = np.where(l1 < _HUGE, eps * l1, np.nan)

        def bounds(i, column=None):
            score = scores[i]
            if column is not None:
                sa, r = _signs(P[i, [column]], threshold), T[:, column]
                with np.errstate(all="ignore"):
                    score = score - np.where(sa == 0.0, np.abs(r), -sa * r)
            return score - radius, score + radius

        return bounds

    with np.errstate(over="ignore"):  # overflow leaves a squared norm unsafe
        dots = P @ T.T
        sq_p, sq_t = (np.einsum("ij,ij->i", m, m) for m in (P, T))
    norm_p, norm_t = np.sqrt(sq_p), np.sqrt(sq_t)
    safe_t = (_TINY <= sq_t) & (sq_t < _HUGE)

    def bounds(i, column=None):
        dot, sq_a, sq_r = dots[i], sq_p[i], sq_t
        safe = safe_t & (_TINY <= sq_p[i] < _HUGE)
        with np.errstate(all="ignore"):  # entries that overflow or divide by 0 are unsafe
            if column is not None:
                a_k, r_k = P[i, column], T[:, column]
                dot, sq_a, sq_r = dot - a_k * r_k, sq_a - a_k * a_k, sq_r - r_k * r_k
            if kind is DistanceKind.L2_LIMIT:
                radius = eps * norm_p[i] * norm_t
                lo, hi = -dot - radius, radius - dot
            elif kind is DistanceKind.L2:
                squared = sq_a + sq_r - 2.0 * dot
                radius = eps * np.square(norm_p[i] + norm_t)
                lo, hi = np.sqrt(np.maximum(squared - radius, 0.0)), np.sqrt(squared + radius)
            else:  # cosine: quotient of the dot product's and the two norms' intervals
                low_a, low_r = sq_a - eps * sq_p[i], sq_r - eps * sq_t
                safe &= (low_a >= _TINY) & (low_r >= _TINY)
                norms_lo = np.sqrt(low_a) * np.sqrt(low_r)
                norms_hi = np.sqrt(sq_a + eps * sq_p[i]) * np.sqrt(sq_r + eps * sq_t)
                dot_lo, dot_hi = dot - eps * norm_p[i] * norm_t, dot + eps * norm_p[i] * norm_t
                cos_lo = np.minimum(dot_lo / norms_lo, dot_lo / norms_hi).clip(-1.0, 1.0)
                cos_hi = np.maximum(dot_hi / norms_lo, dot_hi / norms_hi).clip(-1.0, 1.0)
                lo, hi = 1.0 - cos_hi - eps, 1.0 - cos_lo + eps
        return np.where(safe, lo, np.nan), np.where(safe, hi, np.nan)

    return bounds
