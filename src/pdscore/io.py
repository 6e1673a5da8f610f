"""CSV and JSON input/output.

Effect matrix CSV: header row of gene ids after one label cell; each data
row starts with the perturbation id. Counts CSV: header row of gene ids
after two label cells; each data row starts with the cell id and its
condition ("control" or a perturbation id). Floats are written with 17
significant digits so a round trip reproduces every value exactly. Every
file is read and written as UTF-8, and a byte that does not decode is a
ParseError at its cell.

Matrix CSVs are parsed in bulk first: csv reads the header and numpy's C
reader the rest. Where numpy refuses a cell or a row (a spelling such as
"1_0", a non-ASCII digit or a blank cell, a short or long row, a row of blank
cells, no data rows) or the container refuses the table (a non-finite value, a
count out of range, an empty or oversized library, a duplicate id), the file is
parsed again cell by cell with float() or int(), and that positional reader
raises the error with its line and column. The rules of a valid matrix live in
EffectMatrix and CountMatrix alone: the reader builds the container and places
the first fault it finds (ValidationError.at) at the line where its row starts
and its column. Matrix writers quote only the label cells through csv and
work one row at a time: an integer row with one %-format, a float row with
%.17g once per cell or, where most of its first cells repeat a value (as
count-derived rows do), once per distinct value.
"""

import csv
import hashlib
import json
import warnings
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .asymptotics import ScaleSweepResult
from .discrimination import PdsEntry, PdsReport
from .effects import EffectMatrix, _check_unique, _Made
from .errors import DimensionMismatch, DuplicateLabelInFile, ParseError, ValidationError
from .geometry import CertificateResult
from .preprocessing import CountMatrix, PipelineComparison
from .transforms import chain_tokens


def fmt(value: float) -> str:
    return format(float(value), ".17g")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _rows_of(path, errors: str = "strict") -> list:
    """(1-based line where it starts, cells) of every row of a UTF-8 CSV file not blank,
    a leading byte-order mark dropped."""
    rows, line = [], 1
    try:
        with open(path, newline="", encoding="utf-8-sig", errors=errors) as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not _blank(row):
                    rows.append((line, row))
                line = reader.line_num + 1  # a quoted cell may span lines
    except csv.Error as exc:  # such as a cell past csv's field size limit
        raise ParseError(line, 1, str(exc)) from None
    except UnicodeDecodeError:  # placed at its cell by a reading that keeps the bad bytes
        for line, row in _rows_of(path, "surrogateescape"):
            for column, cell in enumerate(row, start=1):
                raw = cell.encode("utf-8", "surrogateescape")
                if raw.decode("utf-8", "replace") != cell:
                    raise ParseError(line, column, f"not UTF-8 text: {raw.strip()!r}") from None
        raise
    return rows


def _blank(row) -> bool:
    return not any(cell.strip() for cell in row)


def _write_csv(path, header, rows) -> Path:
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


@contextmanager
def _placing(where, n_label_columns: int, reason: str = ""):
    """Raise a container's fault at the line and column of its index (ValidationError.at),
    where(r) the (line, cells) of data row r and where(-1) the header's; value: "reason: 'cell'"."""
    try:
        yield
    except ValidationError as fault:
        repeated = str(fault).replace(" label ", " id ", 1)  # "duplicate gene id 'g1'"
        match fault.at:
            case (0, first, repeat):  # a repeated row id
                message = f"{repeated}, first on line {where(first)[0]}"
                raise DuplicateLabelInFile(where(repeat)[0], 1, message) from None
            case (1, first, repeat):  # a repeated gene id
                column = n_label_columns + 1  # the first gene's
                message = f"{repeated}, first in column {column + first}"
                raise DuplicateLabelInFile(where(-1)[0], column + repeat, message) from None
            case (r,):  # a library, which the container names by its row and the file by its id
                (line, row), size = where(r), str(fault).partition(" has ")[2]
                raise ParseError(line, 1, f"cell {row[0].strip()!r} has {size}") from None
            case (r, c):  # a value
                (line, row), column = where(r), n_label_columns + c
                raise ParseError(line, column + 1, f"{reason}: {row[column].strip()!r}") from None
        raise


def _read_table(path, n_label_columns: int, dtype):
    """Parse a header of gene ids after the label columns, then rows of labels and values.

    Returns (gene_ids, labels, values, where): the stripped cells of each label column,
    the values as a dtype array (an object array of ints where a count is beyond 64 bits,
    for the container to compare exactly), and where(r), the (line, cells) of data row r,
    or of the header at -1.
    """
    parse, what, label_text = (  # the cell parser, what a cell is, the label columns
        (int, "an integer count", "cell and condition columns") if dtype is np.int64
        else (float, "a number", "the label column")
    )
    rows = _rows_of(path)
    if not rows:
        raise ParseError(1, 1, "empty file")
    header_line, header = rows[0]
    if len(header) <= n_label_columns:
        raise ParseError(header_line, 1, f"expected gene columns after {label_text}")
    gene_ids = [cell.strip() for cell in header[n_label_columns:]]
    where = lambda r: rows[r + 1]  # rows[0] is the header, where(-1)
    with _placing(where, n_label_columns):  # before any row is parsed
        _check_unique(gene_ids, "gene", 1)
    if len(rows) == 1:
        raise ParseError(header_line, 1, "no data rows")
    labels, data = [], []
    for line, row in rows[1:]:
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
    try:
        values = np.asarray(data, dtype)
    except OverflowError:  # a count beyond 64 bits: the container compares the exact integers
        values = np.array(data, dtype=object)
    return gene_ids, list(zip(*labels)), values, where


class _Refused(Exception):
    """A bulk-parsed table may differ from the positional reader's, or holds a fault
    that only the positional reader can place at a line and column."""


def _refuse(_):
    raise _Refused


def _bulk_table(path, n_label_columns: int, dtype):
    """Parse a matrix CSV as _read_table does, but with numpy's C reader after the
    header: (gene_ids, labels, values, _refuse), values a read-only view of the parse
    buffer's value columns (with no usecols, so numpy still refuses a long row).

    numpy unquotes cells as csv does and parses a subset of the spellings that
    float() and int() accept, to the same values. Raises _Refused where the
    parse raises or warns, or where the first row is one _rows_of would skip.
    """
    labels = [[] for _ in range(n_label_columns)]
    # a label column's converter keeps the stripped cell and gives numpy a 0 in its place
    keep = {c: (lambda s, out=out: out.append(s.strip()) or 0) for c, out in enumerate(labels)}
    try:
        with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            header = next(csv.reader(fh), [])
            values = np.loadtxt(
                fh, dtype, comments=None, delimiter=",", converters=keep,
                ndmin=2, encoding=None, quotechar='"',  # encoding=None: str cells on numpy 1.x too
            )
    except (ValueError, Warning, csv.Error):
        raise _Refused from None
    if _blank(header) or len(header) <= n_label_columns or values.shape[1] != len(header):
        raise _Refused
    gene_ids = [cell.strip() for cell in header[n_label_columns:]]
    values.setflags(write=False)
    return gene_ids, labels, values[:, n_label_columns:], _refuse


def _write_matrix(path, label_columns, labels, gene_ids, values) -> Path:
    """Write a labelled table: each row's label cells as csv.writer quotes them, then
    its values as integers (%d) for an integer array and with 17 significant digits
    (%.17g) otherwise."""
    values = np.asarray(values)
    integer = np.issubdtype(values.dtype, np.integer)
    row_format = ",".join(["%d" if integer else "%.17g"] * values.shape[1]) + "\r\n"
    line = csv.writer(SimpleNamespace(write=str)).writerow  # returns the line it writes
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(line([*label_columns, *gene_ids]))
        for label, row in zip(labels, values):
            cells = row_format % tuple(row.tolist()) if integer else _float_cells(row, row_format)
            # the label cells and the comma after them, without the line end
            fh.write(line([*label, ""])[:-2] + cells)
    return path


def _float_cells(row, row_format) -> str:
    """A float row's %.17g cells and line end. Where most of its first 64 cells repeat
    a value (a count-derived row), each distinct value is formatted once, keyed on its
    bits so that -0.0 stays -0; a continuous row pays no sort of the whole row."""
    bits = np.ascontiguousarray(row, dtype=np.float64).view(np.uint64)
    probe = bits[:64].tolist()  # a set, as np.unique without an inverse imports numpy.ma
    if 2 * len(set(probe)) > len(probe):
        return row_format % tuple(bits.view(np.float64).tolist())
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array(["%.17g" % value for value in distinct.view(np.float64).tolist()], object)
    return ",".join(text[inverse].tolist()) + "\r\n"


def _read_matrix(path, n_label_columns: int, dtype, reason: str, build):
    """build(values, *label columns, gene_ids) from a matrix CSV: parsed in bulk, or, where
    numpy or the container refuses it, by the positional reader, which places the fault."""
    for parse in (_bulk_table, _read_table):
        try:
            gene_ids, labels, values, where = parse(path, n_label_columns, dtype)
            with _placing(where, n_label_columns, reason):
                return build(_Made(values), *labels, gene_ids)
        except _Refused:
            pass


def read_effect_matrix(path) -> EffectMatrix:
    """Parse an effect matrix CSV; errors carry 1-based line and column."""
    return _read_matrix(path, 1, np.float64, "not a finite number", EffectMatrix)


def write_effect_matrix(matrix: EffectMatrix, path) -> Path:
    labels = zip(matrix.perturbation_ids)
    return _write_matrix(path, ["perturbation"], labels, matrix.gene_ids, matrix.values)


def read_count_matrix(path) -> CountMatrix:
    """Parse a counts CSV (cell id, condition, then nonnegative integer counts)."""
    build = lambda counts, cells, conditions, genes: CountMatrix(counts, conditions, genes, cells)
    return _read_matrix(path, 2, np.int64, "count out of range 0 to 2**63 - 1", build)


_COUNT_LABELS = ["cell", "condition"]


def write_count_matrix(counts: CountMatrix, path) -> Path:
    labels = zip(counts.cell_ids, counts.cell_condition)
    return _write_matrix(path, _COUNT_LABELS, labels, counts.gene_ids, counts.counts)


def write_normalized_matrix(values, counts: CountMatrix, path) -> Path:
    """Write values (cells x genes, counts' shape) under counts' labels; a shape that
    differs raises DimensionMismatch before the file is opened."""
    values = np.asarray(values)
    if values.shape != counts.counts.shape:
        shapes = f"{values.shape} against counts of shape {counts.counts.shape}"
        raise DimensionMismatch(f"cannot write normalized values of shape {shapes}")
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


def write_json(payload: dict, path) -> Path:
    # Encode first, so a payload that cannot be encoded leaves no partial file behind.
    text = json.dumps(payload, indent=2) + "\n"
    path = Path(path)
    path.write_text(text, encoding="utf-8")
    return path


def _payload(record: str, meta: dict | None, body: dict) -> dict:
    """A report: record name, tool and version, meta when given, then body."""
    payload = {"record": record, "tool": "pdscore", "version": __version__}
    if meta:
        payload["meta"] = meta
    payload.update(body)
    return payload


def pds_report_payload(report: PdsReport, meta: dict | None = None) -> dict:
    entries = report.per_perturbation
    body = {
        "metric": {"kind": report.metric.token, "sign_threshold": report.metric.sign_threshold},
        "transform_chain": chain_tokens(report.transform_chain),
        "apply_target_mask": report.apply_target_mask,
        "error_policy": report.error_policy.value,
        "n_perturbations": report.n_perturbations,
        "mean_pds": report.mean_pds,
        "per_perturbation": [{f: getattr(e, f) for f in _PDS_FIELDS} for e in entries],
    }
    return _payload("pds-report", meta, body)


# PdsEntry's fields, read in order without deep copies; the CSV's id column is "perturbation".
_PDS_FIELDS = tuple(f.name for f in fields(PdsEntry))
_PDS_CSV_HEADER = ["perturbation", *_PDS_FIELDS[1:]]


def write_pds_report_csv(report: PdsReport, path) -> Path:
    entries = ([getattr(e, f) for f in _PDS_FIELDS] for e in report.per_perturbation)
    rows = ([pid, *map(fmt, numbers), error or ""] for pid, *numbers, error in entries)
    return _write_csv(path, _PDS_CSV_HEADER, rows)


def sweep_payload(result: ScaleSweepResult, meta: dict | None = None) -> dict:
    body = {
        "scales": result.scales,
        "mean_pds_per_scale": result.mean_pds_per_scale,
        "limit_mean_pds": result.limit_mean_pds,
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
