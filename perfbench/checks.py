"""Untimed checks of pdscore's outputs against the benchmark's own numpy code.

Each check returns a list of failure messages; an empty list is a pass.
Nothing here imports pdscore.
"""

import json
import math

import numpy as np

from inputs import read_matrix_csv


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _guard(check):
    """Turn a missing or malformed output into a failure message."""

    def guarded(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{check.__name__}: {type(exc).__name__}: {exc}"]

    guarded.__name__ = check.__name__
    return guarded


# --- score ---------------------------------------------------------------------


def distances(kind: str, a: np.ndarray, rows: np.ndarray):
    """Measure from a to every row, or None where the measure is undefined."""
    if kind == "l1":
        return np.abs(rows - a).sum(axis=1)
    if kind == "l2":
        return np.linalg.norm(rows - a, axis=1)
    if kind == "cosine":
        na, nr = np.linalg.norm(a), np.linalg.norm(rows, axis=1)
        if na == 0.0 or (nr == 0.0).any():
            return None
        return 1.0 - (rows @ a) / (nr * na)
    if kind == "sign-cosine":
        sa, sr = np.sign(a), np.sign(rows)
        nnz_a, nnz_r = float(np.count_nonzero(sa)), np.count_nonzero(sr, axis=1).astype(float)
        if nnz_a == 0.0 or (nnz_r == 0.0).any():
            return None
        return 1.0 - (sr @ sa) / np.sqrt(nnz_a * nnz_r)  # integer agreement counts are exact
    if kind == "l2-limit":
        return -(rows @ a)
    if kind == "l1-limit":
        zero = a == 0.0
        return np.abs(rows[:, zero]).sum(axis=1) - rows[:, ~zero] @ np.sign(a[~zero])
    raise ValueError(f"unknown measure {kind!r}")


def mid_rank(d: np.ndarray, i: int) -> float:
    """Rank of d[i] by full sort; a tied group shares the mean of its positions."""
    ordered = np.sort(d)
    below = int(np.searchsorted(ordered, d[i], "left"))
    through = int(np.searchsorted(ordered, d[i], "right"))
    return below + (through - below + 1) / 2.0


@_guard
def pds_report(path, kind: str, ctx, masked: bool, anchors) -> list:
    report = _read_json(path)
    entries = report["per_perturbation"]
    n = len(entries)
    failures = []
    if n != ctx["predicted"].shape[0]:
        return [f"{path.name}: {n} anchors, expected {ctx['predicted'].shape[0]}"]
    undefined = {i for i, e in enumerate(entries) if e["error"] is not None}
    expected = {ctx["zero_index"]} if kind in ("cosine", "sign-cosine") else set()
    if undefined != expected:
        failures.append(f"{path.name}: undefined anchors {sorted(undefined)}, expected {sorted(expected)}")
    pds = [e["pds"] for e in entries]
    if report["mean_pds"] != float(np.mean(np.asarray(pds, dtype=np.float64))):
        failures.append(f"{path.name}: mean_pds is not the mean of the listed scores")
    for i in anchors:
        a, rows = ctx["predicted"][i], ctx["truth"]
        if masked:
            keep = np.arange(a.size) != ctx["targets"][i]
            a, rows = a[keep], rows[:, keep]
        d = distances(kind, a, rows)
        e = entries[i]
        if d is None:
            if (e["rank"], e["pds"]) != (float(n), 0.0):
                failures.append(f"{path.name}: undefined anchor {i} has rank {e['rank']}, pds {e['pds']}")
            continue
        rank = mid_rank(d, i)
        if e["rank"] != rank or e["pds"] != 1.0 - (rank - 1.0) / (n - 1.0):
            failures.append(f"{path.name}: anchor {i} rank {e['rank']}, full-sort mid-rank {rank}")
        scale = float(np.abs(d).max()) or 1.0
        if not abs(e["true_distance"] - d[i]) <= 1e-9 * scale:
            failures.append(f"{path.name}: anchor {i} true_distance {e['true_distance']} vs {d[i]}")
    return failures


# --- analysis ------------------------------------------------------------------


@_guard
def sweep_report(path, threshold_l2, ctx) -> list:
    report = _read_json(path)
    scales = report["scales"]
    curves = report["mean_pds_per_scale"]
    limits = report["limit_mean_pds"]
    failures = []
    if len(scales) != 25 or sorted(curves) != ["l1", "l2"] or sorted(limits) != ["l1", "l2"]:
        return [f"sweep: expected 25 scales x l1,l2, got {len(scales)} x {sorted(curves)}"]
    values = [v for curve in curves.values() for v in curve] + list(limits.values())
    if len(values) != 52 or not all(0.0 <= v <= 1.0 for v in values):
        failures.append("sweep: values outside [0, 1] or curves of the wrong length")
    if threshold_l2 is None:
        return failures + ["sweep: no l2 threshold to compare against"]
    above = [(c, v) for c, v in zip(scales, curves["l2"]) if c > threshold_l2]
    ctx["limit_points_checked"] = len(above)
    for c, v in above:
        if v != limits["l2"]:
            failures.append(f"sweep: l2 mean {v} at c={c} > threshold differs from limit {limits['l2']}")
    return failures


def thresholds(threshold_l2, threshold_l1) -> list:
    if threshold_l2 is None or threshold_l1 is None:
        return ["threshold: not computed"]
    if not (math.isfinite(threshold_l2) and math.isfinite(threshold_l1)):
        return [f"threshold: not finite: l2 {threshold_l2}, l1 {threshold_l1}"]
    return []


@_guard
def region_report(path, samples: int) -> list:
    runs = _read_json(path)["runs"]
    failures = []
    if [r["d"] for r in runs] != [2, 10, 100, 1000]:
        return [f"region: dimensions {[r['d'] for r in runs]}"]
    for r in runs:
        f = r["fraction"]
        if r["samples"] != samples or not 0.0 <= f <= 1.0:
            failures.append(f"region: d={r['d']} fraction {f} over {r['samples']} samples")
        elif not math.isclose(r["stderr"], math.sqrt(f * (1.0 - f) / samples), abs_tol=1e-15):
            failures.append(f"region: d={r['d']} stderr {r['stderr']} is not the binomial error")
    return failures


# --- ingest --------------------------------------------------------------------


def _normalized(ctx, pipeline: str) -> np.ndarray:
    raw = ctx["counts"].astype(np.float64)
    libsizes = raw.sum(axis=1)
    if pipeline == "per10k":
        return np.log1p(raw * (10000.0 / libsizes)[:, None])
    return np.log1p(raw / (libsizes / np.median(libsizes))[:, None])


def _effects(ctx, pipeline: str):
    values = _normalized(ctx, pipeline)
    condition = np.asarray(ctx["conditions"])
    perts = sorted(set(ctx["conditions"]) - {"control"})
    control = values[condition == "control"].mean(axis=0)
    return perts, np.vstack([values[condition == p].mean(axis=0) - control for p in perts])


def _close(name, got, expected, rtol=1e-12) -> list:
    if got.shape != expected.shape:
        return [f"{name}: shape {got.shape}, expected {expected.shape}"]
    if not np.allclose(got, expected, rtol=rtol, atol=rtol):
        worst = float(np.abs(got - expected).max())
        return [f"{name}: differs from the numpy recomputation by up to {worst:g}"]
    return []


@_guard
def effects_csv(path, ctx) -> list:
    _, labels, values = read_matrix_csv(path, 1)
    perts, expected = _effects(ctx, "per10k")
    if [row[0] for row in labels] != perts:
        return ["effects: perturbation rows differ from the count conditions"]
    return _close("effects", values, expected)


@_guard
def normalized_csv(path, ctx) -> list:
    _, labels, values = read_matrix_csv(path, 2)
    if [row[1] for row in labels] != ctx["conditions"]:
        return ["normalize: cell conditions differ from the counts"]
    return _close("normalize", values, _normalized(ctx, "median"))


@_guard
def comparison_report(path, ctx) -> list:
    rows = _read_json(path)["per_perturbation"]
    perts, a = _effects(ctx, "per10k")
    _, b = _effects(ctx, "median")
    if [r["perturbation_id"] for r in rows] != perts:
        return ["compare: perturbations differ from the count conditions"]
    got = np.array(
        [[r[k] for k in ("l1_norm_a", "l1_norm_b", "l2_norm_a", "l2_norm_b", "cosine_between",
                         "sign_cosine_between")] for r in rows]
    )
    na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    sa, sb = np.sign(a), np.sign(b)
    sign_cos = (sa * sb).sum(axis=1) / np.sqrt(
        np.count_nonzero(sa, axis=1) * np.count_nonzero(sb, axis=1)
    )
    expected = np.column_stack(
        [np.abs(a).sum(axis=1), np.abs(b).sum(axis=1), na, nb, (a * b).sum(axis=1) / (na * nb), sign_cos]
    )
    return _close("compare", got, expected, rtol=1e-9)


@_guard
def norm_matched_csv(path, ctx) -> list:
    _, _, values = read_matrix_csv(path, 1)
    if values.shape != ctx["truth"].shape:
        return [f"norm_match: shape {values.shape}, expected {ctx['truth'].shape}"]
    got, want = np.linalg.norm(values, axis=1), np.linalg.norm(ctx["truth"], axis=1)
    if not (np.abs(got - want) <= 1e-12 * want).all():
        worst = float(np.abs(got / want - 1.0).max())
        return [f"norm_match: row norms differ from the truth's by up to {worst:g} relative"]
    return []


@_guard
def csv_shape(path, label_columns: int, rows: int, columns: int) -> list:
    _, _, values = read_matrix_csv(path, label_columns)
    if values.shape != (rows, columns):
        return [f"{path.parent.name}/{path.name}: shape {values.shape}, expected {(rows, columns)}"]
    return []
