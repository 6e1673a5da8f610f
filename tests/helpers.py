"""Shared construction helpers for the test suite."""

import numpy as np
from hypothesis import strategies as st
from scipy.special import betainc

from pdscore import (
    DegeneratePair,
    EffectMatrix,
    EffectPair,
    ZeroVector,
    pairwise_to_rows,
    pds_row,
)
from pdscore.discrimination import ErrorPolicy, PdsEntry

from oracles import anchor_subproblem, policy_report, undefined_anchor


def labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i:04d}" for i in range(n))


def pair_from(pred, truth, target_gene_of=None) -> EffectPair:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    perts = labels("P", pred.shape[0])
    genes = labels("G", pred.shape[1])
    return EffectPair(
        EffectMatrix(pred, perts, genes),
        EffectMatrix(truth, perts, genes),
        target_gene_of or {},
    )


def random_pair(rng: np.random.Generator, n: int = 8, p: int = 6, zero_fraction: float = 0.0):
    pred = rng.standard_normal((n, p))
    if zero_fraction > 0.0:
        pred[rng.random((n, p)) < zero_fraction] = 0.0
    truth = rng.standard_normal((n, p))
    return pair_from(pred, truth)


def per_anchor_pds(pair, spec, apply_target_mask=False, error_policy=ErrorPolicy.WORST):
    """compute_pds measuring every candidate of every anchor with the elementwise kernel.

    The scoring path before screening: anchor_subproblem, then pairwise_to_rows
    over the whole truth matrix, then pds_row, with the reference error policy.
    """
    n = pair.n_perturbations
    entries = []
    for i in range(n):
        pid = pair.perturbation_ids[i]
        a, rows = anchor_subproblem(pair, i, apply_target_mask)
        try:
            dists = pairwise_to_rows(spec, a, rows)
            rank, value = pds_row(dists, i)
            entries.append(PdsEntry(pid, float(dists[i]), rank, value))
        except ZeroVector as exc:
            entries.append(undefined_anchor(pid, n, error_policy, exc))
    return policy_report(pair, spec, entries, apply_target_mask, error_policy)


def threshold_l1_per_anchor(pair, apply_target_mask=False):
    """convergence_threshold_l1 as a ratio matrix per anchor: the max over anchors,
    nonzero predicted coordinates and candidate rows of |r_j| / |a_j|."""
    best = 0.0
    for i in range(pair.n_perturbations):
        a, rows = anchor_subproblem(pair, i, apply_target_mask)
        nz = a != 0.0
        if nz.any():
            ratios = np.abs(rows[:, nz]) / np.abs(a[nz])
            best = max(best, float(ratios.max()))
    return best


def threshold_l2_per_anchor(pair, apply_target_mask=False):
    """convergence_threshold_l2's neighbour scan on each anchor's own subproblem: the
    masked truth copied and squared again per anchor, inner products a . r with both
    target coordinates zeroed."""
    best = 0.0
    for i in range(pair.n_perturbations):
        a, rows = anchor_subproblem(pair, i, apply_target_mask)
        inner, sqnorm = rows @ a, (rows**2).sum(axis=1)
        order = np.argsort(inner)
        gaps, consts = np.diff(inner[order]), np.diff(sqnorm[order])
        degenerate = np.flatnonzero((gaps == 0.0) & (consts != 0.0))
        if degenerate.size:
            r, s = order[degenerate[0]], order[degenerate[0] + 1]
            raise DegeneratePair(
                f"anchor {pair.perturbation_ids[i]!r}: candidates "
                f"{pair.perturbation_ids[r]!r} and {pair.perturbation_ids[s]!r} tie in the "
                "limit but differ in norm; no finite threshold"
            )
        nz = gaps != 0.0
        if nz.any():
            best = max(best, float((np.abs(consts[nz]) / (2.0 * gaps[nz])).max()))
    return best


def threshold_l2_all_pairs(pair, apply_target_mask=False):
    """convergence_threshold_l2 over every candidate pair: the max over anchors and
    pairs (r, s) with a.r != a.s of |(|r|^2 - |s|^2)| / (2 |a.r - a.s|), from N x N
    gap matrices per anchor; DegeneratePair where a.r == a.s but |r| != |s|."""
    best = 0.0
    for i in range(pair.n_perturbations):
        a, rows = anchor_subproblem(pair, i, apply_target_mask)
        inner = rows @ a
        sqnorm = (rows**2).sum(axis=1)
        gaps = inner[:, None] - inner[None, :]
        consts = sqnorm[:, None] - sqnorm[None, :]
        degenerate = (gaps == 0.0) & (consts != 0.0)
        if degenerate.any():
            r, s = map(int, np.argwhere(degenerate)[0])
            raise DegeneratePair(
                f"anchor {pair.perturbation_ids[i]!r}: candidates "
                f"{pair.perturbation_ids[r]!r} and {pair.perturbation_ids[s]!r} tie in the "
                "limit but differ in norm; no finite threshold"
            )
        nz = gaps != 0.0
        if nz.any():
            candidates = np.abs(consts[nz]) / (2.0 * np.abs(gaps[nz]))
            best = max(best, float(candidates.max()))
    return best


def region_win_threshold(rho: float, kappa: float) -> float:
    """s such that the distractor rho * u beats the truth iff u_1 > s.

    The prediction is the unit first axis and the truth a unit vector at
    cosine kappa to it: |e_1 - rho u|^2 < 2 - 2 kappa reduces to
    u_1 > (rho^2 + 2 kappa - 1) / (2 rho). s changes sign at
    kappa = (1 - rho^2) / 2.
    """
    return (rho * rho + 2.0 * kappa - 1.0) / (2.0 * rho)


def region_fraction_exact(d: int, rho: float, kappa: float) -> float:
    """Exact l2 win rate that ``region_fraction(d, rho, kappa, ...)`` estimates.

    For u uniform on S^{d-1} and s = region_win_threshold(rho, kappa),
    P(u_1 > s) = I_{1-s^2}((d-1)/2, 1/2) / 2 when s >= 0, and one minus that
    tail at |s| when s < 0 (I is the regularised incomplete beta). The rate
    therefore falls with d for s > 0 and rises with d for s < 0.
    """
    s = region_win_threshold(rho, kappa)
    if s >= 1.0:
        return 0.0
    if s <= -1.0:
        return 1.0
    tail = 0.5 * float(betainc((d - 1) / 2.0, 0.5, 1.0 - s * s))
    return tail if s >= 0.0 else 1.0 - tail


def region_wins_reference(dimension, norm_ratio, true_cosine, samples, seed, metric="l2"):
    """Win count of ``region_fraction`` from its own l1/l2 arithmetic, not the kernel's.

    Same batches (2**14 draws, one child seed each) and the same draws; each
    batch's norms come from np.linalg.norm, the distractors from a rescaled
    copy shifted by the prediction, and the distances from written-out sums.
    A draw of zero norm is replaced, in row order, by draws taken after the
    whole batch, until no norm is zero.
    """
    pred = np.zeros(dimension)
    pred[0] = 1.0
    truth = np.zeros(dimension)
    truth[0] = true_cosine
    truth[1] = np.sqrt(max(0.0, 1.0 - true_cosine * true_cosine))
    if metric == "l2":
        true_distance = float(np.sqrt(((pred - truth) ** 2).sum()))
    else:
        true_distance = float(np.abs(pred - truth).sum())
    batch = 1 << 14
    wins = 0
    remaining = samples
    for child in np.random.SeedSequence(seed).spawn((samples + batch - 1) // batch):
        rng = np.random.default_rng(child)
        m = min(batch, remaining)
        remaining -= m
        draws = rng.standard_normal((m, dimension))
        norms = np.linalg.norm(draws, axis=1)
        while (norms == 0.0).any():
            zero = norms == 0.0
            draws[zero] = rng.standard_normal((int(zero.sum()), dimension))
            norms = np.linalg.norm(draws, axis=1)
        points = draws * (norm_ratio / norms)[:, None]
        points[:, 0] -= 1.0  # points now hold (norm_ratio * u) - pred
        if metric == "l2":
            dists = np.sqrt((points**2).sum(axis=1))
        else:
            dists = np.abs(points).sum(axis=1)
        wins += int((dists < true_distance).sum())
    return wins


def padded(cells):
    pads = st.sampled_from(["", " ", "\t"])
    return st.tuples(pads, cells, pads).map("".join)


# Spellings where float() or int() and numpy's parse may part ways.
TRICKY_CELLS = st.one_of(
    st.sampled_from([
        "1_0", "１", "٣", "\xa01", "1\xa0", " 2", "0x10", "1d5", "1 2", "", " ", "-",
        "nan", "NaN", "-nan", "inf", "-Infinity", "+INF", "infinity", "1e5", "1E-5", ".5",
        "5.", "+.5e+3", "1.0", "-0", "007", "+3", str(2**63 - 1), str(2**63),
        str(-(2**63) - 1), "99999999999999999999999", "1e400", '"7"', '"1"5', 'x"',
    ]),
    st.integers(-(2**66), 2**66).map(str),
)
FLOAT_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".17g"))
COUNT_CELLS = st.integers(0, 10**6).map(str)
LABEL_TEXT = st.text(st.sampled_from(list('Ab é#,"\r\n')), max_size=4)
QUOTED_LABELS = LABEL_TEXT.map(lambda s: '"' + s.replace('"', '""') + '"')
LABELS = st.one_of(st.sampled_from(["A", "B", "#A", "7", "control"]), LABEL_TEXT, QUOTED_LABELS)


def exactly(k, elements, **kwargs):
    return st.lists(elements, min_size=k, max_size=k, **kwargs)


@st.composite
def matrix_csvs(draw, label_columns, clean_cells):
    """CSV text of a labelled matrix: on half the draws a clean file, on the others
    one with tricky cells and labels, blank, short and long rows, and CRLF mixed in."""
    tricky = draw(st.booleans())
    cells = st.one_of(clean_cells, TRICKY_CELLS) if tricky else clean_cells
    n, p = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    if tricky:
        ids, genes = draw(exactly(n, LABELS)), draw(exactly(p, LABELS))
        conditions = st.sampled_from(["control", "A", " A ", '"control"'])
    else:
        ids, genes = draw(exactly(n, st.sampled_from("ABCDE"), unique=True)), ["g1", "g2", "g3"][:p]
        conditions = st.sampled_from(["control", "A"])
    lines = [",".join([*label_columns, *genes])]
    for label in ids:
        if tricky and draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", ",,,", " , ", '""'])))
        width = p + (draw(st.integers(-1, 1)) if tricky and draw(st.booleans()) else 0)
        row = [label, *draw(exactly(len(label_columns) - 1, conditions))]
        lines.append(",".join(row + draw(exactly(width, padded(cells)))))
    if tricky and draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["", ",", " , "])))
    end = draw(st.sampled_from(["\n", "\r\n"])) if tricky else "\n"
    return end.join(lines) + draw(st.sampled_from([end, ""]))
