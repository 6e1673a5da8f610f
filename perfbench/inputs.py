"""Seeded benchmark inputs, written with the benchmark's own CSV code.

Nothing here imports pdscore: a change to pdscore's generators or writers
cannot change the bytes the benchmark feeds it. Equal seeds give
byte-identical files on any commit.
"""

import hashlib
from pathlib import Path

import numpy as np

ZERO_COORD_FRACTION = 0.2  # exercises the l1-limit zero-coordinate term and sign zeros
DUPLICATE_ROW_FRACTION = 0.02  # duplicated truth rows give exact mid-rank ties


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _ids(prefix: str, n: int) -> list[str]:
    width = max(4, len(str(n - 1)))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def write_matrix_csv(path, header, labels, values) -> None:
    """Header row, then per row its comma-joined label cells and values (17 significant digits)."""
    values = np.asarray(values)
    cell = "%d" if np.issubdtype(values.dtype, np.integer) else "%.17g"
    row_format = ",".join([cell] * values.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for label, row in zip(labels, values.tolist()):
            fh.write(label + "," + row_format % tuple(row))


def read_matrix_csv(path, label_columns: int):
    """Parse a CSV written by pdscore: (header, per-row label cells, float values)."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        labels, rows = [], []
        for line in fh:
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(header):
                raise ValueError(f"{path}: {len(cells)} fields under a {len(header)}-field header")
            labels.append(cells[:label_columns])
            rows.append(cells[label_columns:])
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(header) - label_columns)
    return header, labels, values


def write_pair(
    out: Path, rng, n: int, p: int, *, duplicates: bool, zero_row: bool, scale: float = 1.0
) -> dict:
    """Truth rows with log-normal norms; predictions are scaled noisy truths with exact zeros.

    Every perturbation gets a target gene. With duplicates, about 2% of the
    truth rows copy another truth row; with zero_row, one prediction is all zero.
    """
    norms = rng.lognormal(0.0, 0.5, n)
    truth = rng.standard_normal((n, p)) * (norms / np.sqrt(p))[:, None]
    noise = rng.standard_normal((n, p)) * (norms / np.sqrt(p))[:, None]
    predicted = scale * (0.6 * truth + 0.8 * noise)
    predicted[rng.random((n, p)) < ZERO_COORD_FRACTION] = 0.0
    duplicated = []
    if duplicates:
        k = max(1, round(DUPLICATE_ROW_FRACTION * n))
        picks = rng.choice(n, size=2 * k, replace=False)
        truth[picks[k:]] = truth[picks[:k]]
        duplicated = sorted(int(i) for i in picks)
    zero_index = None
    if zero_row:
        zero_index = int(rng.integers(n))
        predicted[zero_index] = 0.0
    targets = rng.integers(p, size=n)
    perts, genes = _ids("P", n), _ids("G", p)
    header = ["perturbation", *genes]
    files = {
        "pred": out / "predicted.csv",
        "truth": out / "truth.csv",
        "targets": out / "targets.csv",
    }
    write_matrix_csv(files["pred"], header, perts, predicted)
    write_matrix_csv(files["truth"], header, perts, truth)
    with open(files["targets"], "w", newline="") as fh:
        fh.write("perturbation,target_gene\n")
        fh.writelines(f"{pid},{genes[j]}\n" for pid, j in zip(perts, targets.tolist()))
    return {
        "files": files,
        "predicted": predicted,
        "truth": truth,
        "targets": targets,
        "duplicated": duplicated,
        "zero_index": zero_index,
    }


def write_counts(out: Path, rng, n_perturbations: int, cells: int, p: int) -> dict:
    """Poisson counts, control plus perturbations, with log-normal library sizes."""
    base = rng.lognormal(0.0, 1.0, p)
    base *= 2000.0 / base.sum()
    conditions = ["control", *_ids("P", n_perturbations)]
    hit = rng.random((n_perturbations, p)) < 0.1
    log_fc = rng.normal(0.0, 1.0, (n_perturbations, p)) * hit
    rates = np.vstack([base, base * np.exp(log_fc)])
    labels = np.repeat(np.arange(len(conditions)), cells)
    factors = rng.lognormal(0.0, 0.6, labels.size)
    counts = rng.poisson(factors[:, None] * rates[labels]).astype(np.int64)
    counts[counts.sum(axis=1) == 0, 0] = 1  # every cell needs a library size of at least 1
    path = out / "counts.csv"
    cell_labels = [f"{cid},{conditions[c]}" for cid, c in zip(_ids("cell", labels.size), labels)]
    write_matrix_csv(path, ["cell", "condition", *_ids("G", p)], cell_labels, counts)
    return {
        "files": {"counts": path},
        "counts": counts,
        "conditions": [conditions[c] for c in labels],
    }
