"""Distance and dissimilarity measures between effect vectors.

Every reduction in pairwise_to_rows sums each row pairwise, whatever the
layout of its input, so a row measures the same alone, in any gather and in
any run, and parallel row-blocks of anchors reproduce results to the last bit.
The module keeps no state between calls: callers bound a call's memory by
passing chunks of about _CACHED values.

Screen bounds the same values (l1 from below) at any scale of the predictions from
matrix products formed once, so a caller can settle most comparisons without the
elementwise kernel.
"""

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
        object.__setattr__(self, "sign_threshold", _sign_threshold(self.sign_threshold))

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


def _sign_threshold(value) -> float:
    """value as a float sign threshold: BadParameter unless it is finite and >= 0."""
    threshold = np.nan if value is None else float(value)
    if not 0.0 <= threshold < np.inf:
        raise BadParameter("sign threshold must be finite and >= 0")
    return threshold


def _signs(values, threshold: float, out=None) -> np.ndarray:
    """Coordinatewise sign, with |x| <= threshold mapped to 0."""
    out = np.sign(values, out=out)
    if threshold > 0.0:
        out[np.abs(values) <= threshold] = 0.0
    return out


# Row chunks of about this many values, and compute_pds's anchor blocks of about this
# many candidate pairs, stay in cache and bound the memory a call adds at any size.
_CACHED = 2**16


def _similarity(spec: DistanceSpec, a, rows):
    """(similarity, undefined) of the cosine kinds from each row of a 2-d a (one row, or one
    per row) to the rows of rows: the dot product of the rows (of their signs) over the product
    of their norms, NaN where a zero norm (sign count) leaves it undefined or norms overflow."""
    w = np.empty(rows.shape)
    if spec.kind is DistanceKind.COSINE_DISSIM:
        na = np.sqrt(np.multiply(a, a, out=w[: len(a)]).sum(axis=1))
        rn = np.sqrt(np.multiply(rows, rows, out=w).sum(axis=1))
        undefined, denominators = (na == 0.0) | (rn == 0.0), rn * na
        dots = np.multiply(rows, a, out=w).sum(axis=1)
    else:
        sa = _signs(a, spec.sign_threshold)
        sr = _signs(rows, spec.sign_threshold, out=w)
        nnz_a, nnz_r = ((s != 0.0).sum(axis=1).astype(np.float64) for s in (sa, sr))
        undefined, denominators = (nnz_a == 0.0) | (nnz_r == 0.0), np.sqrt(nnz_a * nnz_r)
        dots = np.multiply(sr, sa, out=w).sum(axis=1)
    defined = ~undefined & (denominators < np.inf)
    similarity = np.divide(dots, denominators, out=np.full(len(dots), np.nan), where=defined)
    return similarity, undefined


_UNDEFINED = {  # each cosine kind's exception for an undefined row, and its message
    DistanceKind.COSINE_DISSIM: (ZeroVector, "cosine undefined for a zero vector"),
    DistanceKind.SIGN_COSINE_DISSIM:
        (ZeroSignVector, "sign cosine undefined when a sign vector is all zero"),
}


def _measured(spec: DistanceSpec, a, rows):
    """(values, undefined) from each row of a 2-d float64 a (one row, or one per row) to
    the rows of rows: pairwise_to_rows's measures, NaN where a zero norm (cosine) or sign
    count (sign-cosine) leaves a row undefined, and which rows those are."""
    # Reductions here and in _similarity use elementwise products (never BLAS matrix
    # products) written into one fresh C-ordered array, so each row sums pairwise along
    # the last axis whatever the layout of a and rows.
    kind = spec.kind
    if kind in _UNDEFINED:
        similarity, undefined = _similarity(spec, a, rows)
        return 1.0 - similarity, undefined
    w, undefined = np.empty(rows.shape), np.zeros(len(rows), bool)  # always defined
    if kind is DistanceKind.L1:
        return np.abs(np.subtract(rows, a, out=w), out=w).sum(axis=1), undefined
    if kind is DistanceKind.L2:
        return np.sqrt(np.square(np.subtract(rows, a, out=w), out=w).sum(axis=1)), undefined
    if kind is DistanceKind.L2_LIMIT:
        return -np.multiply(rows, a, out=w).sum(axis=1), undefined
    sa = _signs(a, spec.sign_threshold)  # l1-limit
    # coordinate with a zero predicted sign contributes |r_j|, any other
    # contributes -sign(a_j) r_j
    np.multiply(rows, -sa, out=w)
    return np.abs(rows, out=w, where=sa == 0.0).sum(axis=1), undefined


def pairwise_to_rows(spec: DistanceSpec, a, rows) -> np.ndarray:
    """Measure from one prediction row to every row of a truth matrix, or from each
    row of a matrix a to the same row of rows.

    The limit kinds return scores, not distances: their ascending order
    equals the large-scale limit of the matching norm-based ranking, and
    smaller still means closer. See the asymptotics module for derivations.

    A zero norm (cosine) or sign count (sign-cosine) leaves a row undefined: then
    ZeroVector (ZeroSignVector) is raised once every row is measured.
    """
    a, rows = np.asarray(a, dtype=np.float64), np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or a.shape not in ((rows.shape[1],), rows.shape):
        raise DimensionMismatch(f"cannot measure {a.shape} against rows of shape {rows.shape}")
    values, undefined = _measured(spec, a.reshape(-1, rows.shape[1]), rows)  # a row broadcasts
    if undefined.any():
        error, message = _UNDEFINED[spec.kind]
        raise error(message)
    return values


def distance(spec: DistanceSpec, a, b) -> float:
    """Evaluate one measure between two vectors (dispatch over DistanceSpec)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape or a.size < 1:
        raise DimensionMismatch(f"need two vectors of one nonzero length, got {a.shape}, {b.shape}")
    return float(pairwise_to_rows(spec, a, b[None, :])[0])


_TINY = 2.0**-900  # a smaller squared norm may have lost bits to underflow
_HUGE = 2.0**1000  # from a squared norm this large up, kernel terms may overflow
_L1_KINDS = (DistanceKind.L1, DistanceKind.L1_LIMIT)
_SIGN_KINDS = (DistanceKind.SIGN_COSINE_DISSIM, *_L1_KINDS)  # products of signs


def _in_range(squared):
    return (_TINY <= squared) & (squared < _HUGE)


class Screen:
    """Bounds on pairwise_to_rows from prediction rows to every truth row, from products
    formed once: the truth side when the Screen is made (once per compute_pds call or
    sweep) and a block of rows' cross products with the truth, cross(rows). bounds derives
    a scale's block x N bounds from them elementwise and changes none of its arguments.

    bounds(cross(rows), scaled, columns, c) returns (lo, hi) with
    lo[i] <= v <= hi[i] for v = pairwise_to_rows(spec, scaled[i], truth), scaled =
    fl(c rows), both with column columns[i] zeroed unless it is -1 (a masked target gene,
    already zeroed in rows; each radius takes the unmasked truth norm, |r| >= |r0|). An
    entry is NaN where no bound is certain: a squared norm below 2**-900 or from 2**1000
    up, or an undefined cosine. For sign-cosine lo is hi and is v itself, since sign
    products and counts are integers below 2**53. An inner product of p terms errs by at most gamma_p sum|a_k r_k|,
    gamma_p = p u / (1 - p u), in any summation order (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.1), plus p 2**-1075 for products that underflow, below
    u |a| |r| when both squared norms are safe; 4 (p + 4) u covers the product, the kernel
    and the bounds' rounding at c = 1.

    At c != 1 the sign kinds' products hold while every row's zero pattern |fl(c a_k)| <= t
    is the one they were formed from, since a positive scale keeps every nonzero sign; once
    a row's pattern moves (when t > 0 or a coordinate underflows), bounds forms the block's
    products again from the scaled rows, so the sign kinds' bounds are the c = 1 bounds of
    the scaled rows. The others take fl(c fl(a.r)) for a'.r,
    a' = fl(c a), and an entry is NaN unless the squared norms of a, a' and r are all safe:
    a row whose squared norm is unsafe at c = 1 has NaN bounds at every scale, and the
    caller measures it with the kernel.
    Rounding to nearest gives |a'_k - c a_k| <= u c |a_k| + 2**-1075 and
    |fl(c x) - c x| <= u c |x| + 2**-1075, so |fl(c fl(a.r)) - a'.r| is at most
    c (gamma_p + 2 u + u gamma_p) sum|a_k r_k| + 2**-1075 (c p + |r|_1 + 1), with
    c |a| <= (|a'| + sqrt(p) 2**-1075) / (1 - u). When a, a' and r are safe the 2**-1075
    terms are below 3 u |a'| |r|, so the product errs by at most 5 u |a'| |r| more than at
    c = 1, to first order, which the radius 4 (p + 6) u covers.

    l1 has hi = +inf and lo from the l1-limit score s at sign threshold 0: as
    |a_k - r_k| >= |a_k| - sign(a_k) r_k, equal where a_k = 0 (s has |r_k|) or
    |a_k| >= |r_k|, |a - r|_1 >= |a|_1 + s. Every step of lo and of the kernel
    adds or subtracts (sign products are exact), erring by u times at most
    A + R = |a|_1 + |r|_1 to first order: p steps in the kernel, p in |a|_1, p in
    the two products (their terms split the k) and 5 more, (3 p + 5) u (A + R) in
    all, inside the radius 4 (p + 6) u (A + R), which is NaN from A + R = 2**1000
    up (|r|_1 alone for l1-limit). Sums below 2**-1022 are exact, and the radius
    underflows only where every sum is, so tiny norms need no guard.
    """

    def __init__(self, spec: DistanceSpec, truth):
        self.kind, self.truth = spec.kind, np.asarray(truth, dtype=np.float64)
        self.threshold = 0.0 if self.kind is DistanceKind.L1 else spec.sign_threshold
        T = self.truth
        self.eps = 4.0 * (T.shape[1] + 6) * 2.0**-53  # u = 2**-53, the unit roundoff
        with np.errstate(over="ignore"):  # sums that overflow meet a NaN radius
            if self.kind is DistanceKind.SIGN_COSINE_DISSIM:
                self.signs_t = _signs(T, self.threshold)
                self.nnz_t = np.count_nonzero(self.signs_t, axis=1).astype(np.float64)
            elif self.kind in _L1_KINDS:
                self.abs_t = np.abs(T)
                self.l1_t = self.abs_t.sum(axis=1)
            else:
                self.sq_t = np.einsum("ij,ij->i", T, T)
                self.norm_t = np.sqrt(self.sq_t)

    def cross(self, rows):
        """(key, products) of prediction rows with the truth: the sign products (sign-cosine),
        the l1-limit scores (l1, l1-limit) or rows @ truth.T, keyed by the coordinates whose
        sign is 0 (which fix the sign pattern of any positive scale of the rows) for the
        sign kinds and by the rows' squared norms for the others."""
        with np.errstate(all="ignore"):  # entries that overflow meet a NaN radius
            if self.kind in _SIGN_KINDS:
                signs = _signs(rows, self.threshold)
                zero = signs == 0.0
                if self.kind is DistanceKind.SIGN_COSINE_DISSIM:
                    return zero, signs @ self.signs_t.T
                # score = sum of |r_k| where sign(a_k) = 0, minus sign(a) . r
                dots = signs @ self.truth.T
                np.subtract(1.0, np.abs(signs, out=signs), out=signs)  # 1 where sign(a_k) = 0
                return zero, signs @ self.abs_t.T - dots
            return np.einsum("ij,ij->i", rows, rows), rows @ self.truth.T

    def bounds(self, cross, scaled, columns, c: float):
        """(lo, hi) for the rows scaled = fl(c rows) from cross = self.cross(rows); at c = 1
        every row takes cross as it is."""
        kind, T, eps = self.kind, self.truth, self.eps
        key, products = cross
        if c != 1.0 and kind in _SIGN_KINDS and ((np.abs(scaled) <= self.threshold) != key).any():
            key, products = self.cross(scaled)  # a zero pattern moved: the block's, formed again
        masked = np.flatnonzero(columns >= 0)
        r_k = T[:, columns[masked]].T  # each masked row's target column of every truth row

        def less(values, term):  # values broadcast to a row per prediction, less term if masked
            out = np.array(np.broadcast_to(values, products.shape))
            out[masked] -= term
            return out

        if kind is DistanceKind.SIGN_COSINE_DISSIM:
            nnz_p = (key.shape[1] - np.count_nonzero(key, axis=1)).astype(np.float64)
            nnz_r = less(self.nnz_t, self.signs_t[:, columns[masked]].T != 0.0)
            with np.errstate(all="ignore"):  # a zero count leaves NaN
                exact = 1.0 - products / np.sqrt(nnz_p[:, None] * nnz_r)
            return exact, exact

        with np.errstate(all="ignore"):  # entries that overflow or divide by 0 are unsafe
            if kind in _L1_KINDS:
                l1_p = np.abs(scaled).sum(axis=1) if kind is DistanceKind.L1 else np.zeros(len(key))
                total = l1_p[:, None] + self.l1_t
                radius = np.where(total < _HUGE, eps * total, np.nan)
                score = less(products, np.abs(r_k))  # a zeroed target has sign 0
                if kind is DistanceKind.L1_LIMIT:
                    return score - radius, score + radius
                return l1_p[:, None] + score - radius, np.full(products.shape, np.inf)

            dots, sq_p = products * c, np.einsum("ij,ij->i", scaled, scaled)[:, None]
            sq_t, norm_t, norm_p = self.sq_t, self.norm_t, np.sqrt(sq_p)
            safe = _in_range(sq_p) & _in_range(key)[:, None] & _in_range(sq_t)
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
