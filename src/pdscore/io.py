"""CSV and JSON input/output.

Effect matrix CSV: header row of gene ids after one label cell; each data
row starts with the perturbation id. Counts CSV: header row of gene ids
after two label cells; each data row starts with the cell id and its
condition ("control" or a perturbation id). Floats are written with 17
significant digits so a round trip reproduces every value exactly.
"""

import csv
import hashlib
import json
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import ScaleSweepResult
from .discrimination import PdsEntry, PdsReport
from .effects import EffectMatrix
from .errors import DuplicateLabelInFile, ParseError
from .geometry import CertificateResult
from .preprocessing import CountMatrix, PipelineComparison, oversized_cells
from .transforms import chain_tokens


def fmt(value: float) -> str:
    return format(float(value), ".17g")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _rows_of(path) -> list:
    """(1-based line number, cells) of every row of a CSV file that is not blank."""
    with open(path, newline="") as fh:
        rows = enumerate(csv.reader(fh), start=1)
        return [(line, row) for line, row in rows if any(cell.strip() for cell in row)]


def _write_csv(path, header, rows) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _bad_cell(rows, n_label_columns: int, at, reason: str) -> ParseError:
    """ParseError for value c of data row r, where (r, c) = at, quoting the cell."""
    r, c = map(int, at)
    line, row = rows[r]
    column = n_label_columns + c
    return ParseError(line, column + 1, f"{reason}: {row[column].strip()!r}")


def _read_table(path, n_label_columns: int, parse, what: str, label_text: str):
    """Parse a header of gene ids after the label columns, then rows of labels and values.

    Returns (gene_ids, labels, data, rows): each data row's stripped label
    cells, its parsed values, and its (line, cells) for error positions.
    """
    rows = _rows_of(path)
    if not rows:
        raise ParseError(1, 1, "empty file")
    header_line, header = rows.pop(0)
    if len(header) <= n_label_columns:
        raise ParseError(header_line, 1, f"expected gene columns after {label_text}")
    gene_ids = [cell.strip() for cell in header[n_label_columns:]]
    columns = range(n_label_columns + 1, len(header) + 1)
    _check_unique(gene_ids, [(header_line, column) for column in columns], "gene")
    if not rows:
        raise ParseError(header_line, 1, "no data rows")
    labels = []
    data = []
    for line, row in rows:
        if len(row) != len(header):
            raise ParseError(line, 1, f"expected {len(header)} fields, found {len(row)}")
        labels.append([cell.strip() for cell in row[:n_label_columns]])
        values = []
        for column, cell in enumerate(row[n_label_columns:], start=n_label_columns + 1):
            try:
                values.append(parse(cell))
            except ValueError:
                raise ParseError(line, column, f"not {what}: {cell.strip()!r}") from None
        data.append(values)
    return gene_ids, labels, data, rows


def _check_unique(labels, cells, what: str) -> None:
    """Raise at the (line, column) cell of the first label seen before, naming where."""
    first = {}
    for cell, label in zip(cells, labels):
        line, column = first.setdefault(label, cell)
        if (line, column) != cell:
            where = f"on line {line}" if column == cell[1] else f"in column {column}"
            raise DuplicateLabelInFile(*cell, f"duplicate {what} id {label!r}, first {where}")


def _write_matrix(path, label_columns, labels, gene_ids, values) -> Path:
    """Write a labelled table: each row's label cells, then its values as integers
    (%d) for an integer array and with 17 significant digits (%.17g) otherwise."""
    values = np.asarray(values)
    cell = "%d" if np.issubdtype(values.dtype, np.integer) else "%.17g"
    row_format = ",".join([cell] * values.shape[1])
    cells = ((row_format % tuple(row.tolist())).split(",") for row in values)
    rows = ([*label, *row] for label, row in zip(labels, cells))
    return _write_csv(path, [*label_columns, *gene_ids], rows)


def read_effect_matrix(path) -> EffectMatrix:
    """Parse an effect matrix CSV; errors carry 1-based line and column."""
    gene_ids, labels, data, rows = _read_table(path, 1, float, "a number", "the label column")
    values = np.array(data, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        raise _bad_cell(rows, 1, bad[0], "not a finite number")
    (ids,) = zip(*labels)
    _check_unique(ids, [(line, 1) for line, _ in rows], "perturbation")
    return EffectMatrix(values, ids, tuple(gene_ids))


def write_effect_matrix(matrix: EffectMatrix, path) -> Path:
    labels = zip(matrix.perturbation_ids)
    return _write_matrix(path, ["perturbation"], labels, matrix.gene_ids, matrix.values)


def read_count_matrix(path) -> CountMatrix:
    """Parse a counts CSV (cell id, condition, then nonnegative integer counts)."""
    labels_text = "cell and condition columns"
    gene_ids, labels, data, rows = _read_table(path, 2, int, "an integer count", labels_text)
    try:
        counts = np.array(data, dtype=np.int64)
    except OverflowError:  # a cell beyond 64 bits: compare the exact integers instead
        exact = np.array(data, dtype=object)
        bad = np.argwhere((exact < 0) | (exact >= 2**63))
    else:
        bad = np.argwhere(counts < 0)
    if bad.size:
        raise _bad_cell(rows, 2, bad[0], "count out of range 0 to 2**63 - 1")
    empty = np.flatnonzero(counts.sum(axis=1) == 0)  # wrapped sums are caught first
    for cells, size in ((oversized_cells(counts), "exceeding 2**63 - 1"), (empty, "0")):
        if len(cells):
            line, row = rows[cells[0]]
            raise ParseError(line, 1, f"cell {row[0].strip()!r} has library size {size}")
    cell_ids, conditions = zip(*labels)
    _check_unique(cell_ids, [(line, 1) for line, _ in rows], "cell")
    return CountMatrix(counts, conditions, tuple(gene_ids), cell_ids)


_COUNT_LABELS = ["cell", "condition"]


def write_count_matrix(counts: CountMatrix, path) -> Path:
    labels = zip(counts.cell_ids, counts.cell_condition)
    return _write_matrix(path, _COUNT_LABELS, labels, counts.gene_ids, counts.counts)


def write_normalized_matrix(values, counts: CountMatrix, path) -> Path:
    labels = zip(counts.cell_ids, counts.cell_condition)
    return _write_matrix(path, _COUNT_LABELS, labels, counts.gene_ids, values)


def read_target_map(path) -> dict:
    """Parse a two-column perturbation-to-target-gene CSV; header optional, no conflicts."""
    out = {}
    for line, row in _rows_of(path):
        if len(row) != 2:
            raise ParseError(line, 1, f"expected 2 fields, found {len(row)}")
        key, value = row[0].strip(), row[1].strip()
        if line == 1 and key.lower() == "perturbation":
            continue
        if out.setdefault(key, value) != value:
            raise ParseError(line, 2, f"perturbation {key!r} already has target {out[key]!r}")
    return out


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def write_json(payload: dict, path) -> Path:
    # Encode first, so a payload that cannot be encoded leaves no partial file behind.
    text = json.dumps(payload, indent=2, default=_json_default) + "\n"
    path = Path(path)
    path.write_text(text)
    return path


def _payload(record: str, meta: dict | None, body: dict) -> dict:
    """A report: record name, tool and version, meta when given, then body."""
    payload = {"record": record, "tool": "pdscore", "version": __version__}
    if meta:
        payload["meta"] = meta
    payload.update(body)
    return payload


def pds_report_payload(report: PdsReport, meta: dict | None = None) -> dict:
    body = {
        "metric": {"kind": report.metric.token, "sign_threshold": report.metric.sign_threshold},
        "transform_chain": chain_tokens(report.transform_chain),
        "apply_target_mask": report.apply_target_mask,
        "error_policy": report.error_policy.value,
        "n_perturbations": report.n_perturbations,
        "mean_pds": report.mean_pds,
        "per_perturbation": [asdict(e) for e in report.per_perturbation],
    }
    return _payload("pds-report", meta, body)


# The CSV names the id column "perturbation"; the other columns are PdsEntry's fields.
_PDS_CSV_HEADER = ["perturbation", *(f.name for f in fields(PdsEntry)[1:])]


def write_pds_report_csv(report: PdsReport, path) -> Path:
    entries = map(astuple, report.per_perturbation)
    rows = ([pid, *map(fmt, numbers), error or ""] for pid, *numbers, error in entries)
    return _write_csv(path, _PDS_CSV_HEADER, rows)


def sweep_payload(result: ScaleSweepResult, meta: dict | None = None) -> dict:
    body = {
        "scales": list(result.scales),
        "mean_pds_per_scale": {k: list(v) for k, v in result.mean_pds_per_scale.items()},
        "limit_mean_pds": dict(result.limit_mean_pds),
    }
    return _payload("scale-sweep", meta, body)


def write_sweep_csv(result: ScaleSweepResult, path) -> Path:
    curves = result.mean_pds_per_scale.items()
    rows = ([fmt(c), m, fmt(v)] for m, curve in curves for c, v in zip(result.scales, curve))
    return _write_csv(path, ["c", "metric", "mean_pds"], rows)


# Per-perturbation columns of a comparison: the array fields of PipelineComparison.
_COMPARISON_COLUMNS = tuple(f.name for f in fields(PipelineComparison) if f.type is np.ndarray)


def _comparison_rows(result: PipelineComparison, cell):
    """Per perturbation: its id, then cell(v) for each of its _COMPARISON_COLUMNS values."""
    columns = zip(*(getattr(result, name) for name in _COMPARISON_COLUMNS))
    return ([pid, *map(cell, values)] for pid, values in zip(result.perturbation_ids, columns))


def comparison_payload(result: PipelineComparison, meta: dict | None = None) -> dict:
    keys = ("perturbation_id", *_COMPARISON_COLUMNS)
    rows = [dict(zip(keys, row)) for row in _comparison_rows(result, float)]
    pipelines = {"pipeline_a": result.spec_a.value, "pipeline_b": result.spec_b.value}
    return _payload("pipeline-comparison", meta, {**pipelines, "per_perturbation": rows})


def write_comparison_csv(result: PipelineComparison, path) -> Path:
    return _write_csv(path, ["perturbation", *_COMPARISON_COLUMNS], _comparison_rows(result, fmt))


# Region run columns: (report key, MonteCarloRegionResult attribute).
_REGION_COLUMNS = (
    ("d", "dimension"), ("rho", "norm_ratio"), ("kappa", "true_cosine"),
    ("samples", "samples"), ("fraction", "fraction_closer"), ("stderr", "standard_error"),
)


def region_payload(results, meta: dict | None = None) -> dict:
    runs = [{key: getattr(r, name) for key, name in _REGION_COLUMNS} for r in results]
    return _payload("region-fraction", meta, {"runs": runs})


def write_region_csv(results, path) -> Path:
    # region.csv leaves out the sample count; its first column, d, is an integer.
    columns = [column for column in _REGION_COLUMNS if column[0] != "samples"]
    rows = ([str(r.dimension), *(fmt(getattr(r, a)) for _, a in columns[1:])] for r in results)
    return _write_csv(path, [key for key, _ in columns], rows)


def certificate_payload(result: CertificateResult, meta: dict | None = None) -> dict:
    return _payload("orthogonal-ray-certificate", meta, asdict(result))
