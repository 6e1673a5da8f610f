"""Distance and dissimilarity measures between effect vectors.

Every reduction in pairwise_to_rows sums each row pairwise, whatever the
layout of its input, so a row measures the same alone, in any gather and in
any run, and parallel row-blocks of anchors reproduce results to the last bit.

screen bounds the same values (l1 from below) from one matrix product per
call, so a caller can settle most comparisons without the elementwise kernel.
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
    if not np.isfinite(threshold) or threshold < 0.0:
        raise BadParameter("threshold must be finite and >= 0")
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
    """C-ordered scratch shaped like rows, reused by this thread's later calls.

    Fresh matrix-sized temporaries per call cost page faults whenever the allocator
    has returned freed ones to the system, which depends on earlier allocations.
    """
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < rows.size:
        buf = _scratch.buf = np.empty(rows.size)
    return buf[: rows.size].reshape(rows.shape)


def pairwise_to_rows(spec: DistanceSpec, a, rows) -> np.ndarray:
    """Measure from one prediction row to every row of a truth matrix, or from each
    row of a matrix a to the same row of rows.

    The limit kinds return scores, not distances: their ascending order
    equals the large-scale limit of the matching norm-based ranking, and
    smaller still means closer. See the asymptotics module for derivations.

    A zero norm (cosine) or sign count (sign-cosine) leaves a row undefined: then
    ZeroVector (ZeroSignVector) is raised once every row is measured, with those
    rows in its `undefined` and every row's measure in its `values`.
    """
    a, rows = np.asarray(a, dtype=np.float64), np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or a.shape not in ((rows.shape[1],), rows.shape):
        raise DimensionMismatch(f"cannot measure {a.shape} against rows of shape {rows.shape}")
    a = a.reshape(-1, rows.shape[1])  # one row broadcasts over every row
    # Reductions below use elementwise products (never BLAS matrix products)
    # written into C-ordered scratch, so each row sums pairwise along the last axis.
    kind = spec.kind
    w = _scratch_like(rows)
    if kind is DistanceKind.L1:
        return np.abs(np.subtract(rows, a, out=w), out=w).sum(axis=1)
    if kind is DistanceKind.L2:
        return np.sqrt(np.square(np.subtract(rows, a, out=w), out=w).sum(axis=1))
    if kind is DistanceKind.L2_LIMIT:
        return -np.multiply(rows, a, out=w).sum(axis=1)
    if kind is DistanceKind.L1_LIMIT:
        sa = _signs(a, spec.sign_threshold)
        # coordinate with a zero predicted sign contributes |r_j|, any other
        # contributes -sign(a_j) r_j
        np.multiply(rows, -sa, out=w)
        return np.abs(rows, out=w, where=sa == 0.0).sum(axis=1)
    if kind is DistanceKind.COSINE_DISSIM:
        na = np.sqrt(np.multiply(a, a, out=w[: len(a)]).sum(axis=1))
        rn = np.sqrt(np.multiply(rows, rows, out=w).sum(axis=1))
        undefined, denominators = (na == 0.0) | (rn == 0.0), rn * na
        dots = np.multiply(rows, a, out=w).sum(axis=1)
        error, message = ZeroVector, "cosine undefined for a zero vector"
    elif kind is DistanceKind.SIGN_COSINE_DISSIM:
        sa = _signs(a, spec.sign_threshold)
        sr = _signs(rows, spec.sign_threshold, out=w)
        nnz_a, nnz_r = ((s != 0.0).sum(axis=1).astype(np.float64) for s in (sa, sr))
        undefined, denominators = (nnz_a == 0.0) | (nnz_r == 0.0), np.sqrt(nnz_a * nnz_r)
        dots = np.multiply(sr, sa, out=w).sum(axis=1)
        error, message = ZeroSignVector, "sign cosine undefined when a sign vector is all zero"
    else:
        raise BadParameter(f"unhandled distance kind {kind!r}")
    values = 1.0 - np.divide(dots, denominators, out=np.full(len(dots), np.nan), where=~undefined)
    if undefined.any():  # raised unnamed: a local naming it would be a cycle via its traceback
        raise error(message, undefined, values)
    return values


def distance(spec: DistanceSpec, a, b) -> float:
    """Evaluate one measure between two vectors (dispatch over DistanceSpec)."""
    a, b = _pair(a, b)
    return float(pairwise_to_rows(spec, a, b[None, :])[0])


_TINY = 2.0**-900  # a smaller squared norm may have lost bits to underflow
_HUGE = 2.0**1000  # from a squared norm this large up, kernel terms may overflow


def screen(spec: DistanceSpec, predicted, truth, columns):
    """Bounds on pairwise_to_rows for every prediction row, from one matrix product.

    Returns (lo, hi), len(predicted) x len(truth), with lo[i] <= v <= hi[i] for
    v = pairwise_to_rows(spec, predicted[i], truth), both with column columns[i]
    zeroed unless it is -1 (a masked target gene; each radius takes the unmasked
    truth norm, |r| >= |r0|). An entry
    is NaN where no bound is certain: a squared norm below 2**-900 or from 2**1000
    up, or an undefined cosine. For sign-cosine lo is hi and is v itself, since
    sign products and counts are integers below 2**53. An inner product of p terms
    errs by at most gamma_p |a| |r|, gamma_p = p u / (1 - p u), in any summation
    order (Higham, Accuracy and Stability of Numerical Algorithms, section 3.1);
    the radius 4 (p + 4) u covers the product, the kernel and the bounds' rounding.

    l1 has hi = +inf and lo from the l1-limit score s at sign threshold 0: as
    |a_k - r_k| >= |a_k| - sign(a_k) r_k, equal where a_k = 0 (s has |r_k|) or
    |a_k| >= |r_k|, |a - r|_1 >= |a|_1 + s. Every step of lo and of the kernel
    adds or subtracts (sign products are exact), erring by u times at most
    A + R = |a|_1 + |r|_1 to first order: p steps in the kernel, p in |a|_1, p in
    the two products (their terms split the k) and 5 more, (3 p + 5) u (A + R) in
    all, inside the radius 4 (p + 4) u (A + R), which is NaN from A + R = 2**1000
    up (|r|_1 alone for l1-limit). Sums below 2**-1022 are exact, and the radius
    underflows only where every sum is, so tiny norms need no guard.
    """
    kind = spec.kind
    P = np.array(predicted, dtype=np.float64)  # a copy: masked targets are zeroed
    T = np.asarray(truth, dtype=np.float64)
    threshold = 0.0 if kind is DistanceKind.L1 else spec.sign_threshold
    eps = 4.0 * (T.shape[1] + 4) * 2.0**-53  # u = 2**-53, the unit roundoff
    masked = np.flatnonzero(columns >= 0)
    P[masked, columns[masked]] = 0.0  # truth-side sums lose the target term by less
    r_k = T[:, columns[masked]].T  # each masked row's target column of every truth row

    def less(values, term):  # values broadcast to a row per prediction, less term on masked rows
        out = np.array(np.broadcast_to(values, (len(P), values.shape[-1])))
        out[masked] -= term
        return out

    if kind is DistanceKind.SIGN_COSINE_DISSIM:
        signs_p = _signs(P, threshold)
        signs_t = _signs(T, threshold, out=_scratch_like(T))
        dots = signs_p @ signs_t.T
        nnz_p, nnz_t = (np.count_nonzero(m, axis=1).astype(np.float64) for m in (signs_p, signs_t))
        nnz_r = less(nnz_t, signs_t[:, columns[masked]].T != 0.0)
        with np.errstate(all="ignore"):  # a zero count leaves NaN
            exact = 1.0 - dots / np.sqrt(nnz_p[:, None] * nnz_r)
        return exact, exact

    if kind in (DistanceKind.L1, DistanceKind.L1_LIMIT):
        # score = sum of |r_k| where sign(a_k) = 0, minus sign(a) . r; l1 >= |a|_1 + score
        signs = _signs(P, threshold)
        abs_t = np.abs(T, out=_scratch_like(T))
        l1_p = np.abs(P).sum(axis=1) if kind is DistanceKind.L1 else np.zeros(len(P))
        with np.errstate(all="ignore"):  # sums that overflow meet a NaN radius
            dots = signs @ T.T
            l1_t = abs_t.sum(axis=1)
            scores = np.subtract(1.0, np.square(signs, out=signs), out=signs) @ abs_t.T - dots
            total = l1_p[:, None] + l1_t
            radius = np.where(total < _HUGE, eps * total, np.nan)
            score = less(scores, np.abs(r_k))  # a zeroed target has sign 0
            if kind is DistanceKind.L1_LIMIT:
                return score - radius, score + radius
            return l1_p[:, None] + score - radius, np.full(dots.shape, np.inf)

    with np.errstate(over="ignore"):  # overflow leaves a squared norm unsafe
        dots = P @ T.T
        sq_p, sq_t = np.einsum("ij,ij->i", P, P)[:, None], np.einsum("ij,ij->i", T, T)
    norm_p, norm_t = np.sqrt(sq_p), np.sqrt(sq_t)
    safe = ((_TINY <= sq_p) & (sq_p < _HUGE)) & ((_TINY <= sq_t) & (sq_t < _HUGE))
    with np.errstate(all="ignore"):  # entries that overflow or divide by 0 are unsafe
        sq_r = less(sq_t, r_k * r_k)
        if kind is DistanceKind.L2_LIMIT:
            radius = eps * norm_p * norm_t
            lo, hi = -dots - radius, radius - dots
        elif kind is DistanceKind.L2:
            squared = sq_p + sq_r - 2.0 * dots
            radius = eps * np.square(norm_p + norm_t)
            lo, hi = np.sqrt(np.maximum(squared - radius, 0.0)), np.sqrt(squared + radius)
        else:  # cosine: quotient of the dot product's and the two norms' intervals
            low_a, low_r = sq_p - eps * sq_p, sq_r - eps * sq_t
            safe &= (low_a >= _TINY) & (low_r >= _TINY)
            norms_lo = np.sqrt(low_a) * np.sqrt(low_r)
            norms_hi = np.sqrt(sq_p + eps * sq_p) * np.sqrt(sq_r + eps * sq_t)
            dot_lo, dot_hi = dots - eps * norm_p * norm_t, dots + eps * norm_p * norm_t
            cos_lo = np.minimum(dot_lo / norms_lo, dot_lo / norms_hi).clip(-1.0, 1.0)
            cos_hi = np.maximum(dot_hi / norms_lo, dot_hi / norms_hi).clip(-1.0, 1.0)
            lo, hi = 1.0 - cos_hi - eps, 1.0 - cos_lo + eps
    return np.where(safe, lo, np.nan), np.where(safe, hi, np.nan)
