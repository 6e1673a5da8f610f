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
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import ScaleSweepResult
from .discrimination import PdsReport
from .effects import EffectMatrix
from .errors import ParseError
from .geometry import CertificateResult
from .preprocessing import CountMatrix, PipelineComparison


def fmt(value: float) -> str:
    return format(float(value), ".17g")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _rows_of(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh)]


def read_effect_matrix(path) -> EffectMatrix:
    """Parse an effect matrix CSV; errors carry 1-based line and column."""
    rows = _rows_of(path)
    rows = [(i, row) for i, row in enumerate(rows, start=1) if any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError(1, 1, "empty file")
    header_line, header = rows[0]
    if len(header) < 2:
        raise ParseError(header_line, 1, "expected gene columns after the label column")
    gene_ids = [cell.strip() for cell in header[1:]]
    if len(rows) < 2:
        raise ParseError(header_line, 1, "no data rows")
    ids = []
    data = []
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(line, 1, f"expected {len(header)} fields, found {len(row)}")
        ids.append(row[0].strip())
        values = []
        for column, cell in enumerate(row[1:], start=2):
            try:
                values.append(float(cell))
            except ValueError:
                raise ParseError(line, column, f"not a number: {cell.strip()!r}") from None
        data.append(values)
    values = np.array(data, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        r, c = map(int, np.argwhere(~finite)[0])
        line, row = rows[1 + r]
        raise ParseError(line, c + 2, f"not a finite number: {row[c + 1].strip()!r}")
    return EffectMatrix(values, tuple(ids), tuple(gene_ids))


def write_effect_matrix(matrix: EffectMatrix, path) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["perturbation", *matrix.gene_ids])
        for pid, row in zip(matrix.perturbation_ids, matrix.values):
            writer.writerow([pid, *(fmt(v) for v in row)])
    return path


def read_count_matrix(path) -> CountMatrix:
    """Parse a counts CSV (cell id, condition, then integer counts)."""
    rows = _rows_of(path)
    rows = [(i, row) for i, row in enumerate(rows, start=1) if any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError(1, 1, "empty file")
    header_line, header = rows[0]
    if len(header) < 3:
        raise ParseError(header_line, 1, "expected gene columns after cell and condition columns")
    gene_ids = [cell.strip() for cell in header[2:]]
    if len(rows) < 2:
        raise ParseError(header_line, 1, "no data rows")
    cell_ids = []
    conditions = []
    data = []
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(line, 1, f"expected {len(header)} fields, found {len(row)}")
        cell_ids.append(row[0].strip())
        conditions.append(row[1].strip())
        values = []
        for column, cell in enumerate(row[2:], start=3):
            text = cell.strip()
            try:
                values.append(int(text))
            except ValueError:
                raise ParseError(line, column, f"not an integer count: {text!r}") from None
        data.append(values)
    return CountMatrix(
        np.array(data, dtype=np.int64), tuple(conditions), tuple(gene_ids), tuple(cell_ids)
    )


def write_count_matrix(counts: CountMatrix, path) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "condition", *counts.gene_ids])
        for cid, condition, row in zip(counts.cell_ids, counts.cell_condition, counts.counts):
            writer.writerow([cid, condition, *(str(int(v)) for v in row)])
    return path


def write_normalized_matrix(values, counts: CountMatrix, path) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "condition", *counts.gene_ids])
        for cid, condition, row in zip(counts.cell_ids, counts.cell_condition, values):
            writer.writerow([cid, condition, *(fmt(v) for v in row)])
    return path


def read_target_map(path) -> dict:
    """Parse a two-column perturbation-to-target-gene CSV; header optional."""
    rows = _rows_of(path)
    out = {}
    for line, row in enumerate(rows, start=1):
        if not any(cell.strip() for cell in row):
            continue
        if len(row) != 2:
            raise ParseError(line, 1, f"expected 2 fields, found {len(row)}")
        key, value = row[0].strip(), row[1].strip()
        if line == 1 and key.lower() == "perturbation":
            continue
        out[key] = value
    return out


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def write_json(payload: dict, path) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=_json_default)
        fh.write("\n")
    return path


def _base_payload(record: str, meta: dict | None) -> dict:
    payload = {"record": record, "tool": "pdscore", "version": __version__}
    if meta:
        payload["meta"] = meta
    return payload


def pds_report_payload(report: PdsReport, meta: dict | None = None) -> dict:
    payload = _base_payload("pds-report", meta)
    payload.update(
        {
            "metric": {"kind": report.metric.token, "sign_threshold": report.metric.sign_threshold},
            "transform_chain": [d.token for d in report.transform_chain],
            "apply_target_mask": report.apply_target_mask,
            "error_policy": report.error_policy.value,
            "n_perturbations": report.n_perturbations,
            "mean_pds": report.mean_pds,
            "per_perturbation": [
                {
                    "perturbation_id": e.perturbation_id,
                    "true_distance": e.true_distance,
                    "rank": e.rank,
                    "pds": e.pds,
                    "error": e.error,
                }
                for e in report.per_perturbation
            ],
        }
    )
    return payload


def write_pds_report_csv(report: PdsReport, path) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["perturbation", "true_distance", "rank", "pds", "error"])
        for e in report.per_perturbation:
            writer.writerow(
                [e.perturbation_id, fmt(e.true_distance), fmt(e.rank), fmt(e.pds), e.error or ""]
            )
    return path


def sweep_payload(result: ScaleSweepResult, meta: dict | None = None) -> dict:
    payload = _base_payload("scale-sweep", meta)
    payload.update(
        {
            "scales": list(result.scales),
            "mean_pds_per_scale": {k: list(v) for k, v in result.mean_pds_per_scale.items()},
            "limit_mean_pds": dict(result.limit_mean_pds),
        }
    )
    return payload


def write_sweep_csv(result: ScaleSweepResult, path) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["c", "metric", "mean_pds"])
        for metric, curve in result.mean_pds_per_scale.items():
            for c, value in zip(result.scales, curve):
                writer.writerow([fmt(c), metric, fmt(value)])
    return path


def comparison_payload(result: PipelineComparison, meta: dict | None = None) -> dict:
    payload = _base_payload("pipeline-comparison", meta)
    payload.update(
        {
            "pipeline_a": result.spec_a.token,
            "pipeline_b": result.spec_b.token,
            "per_perturbation": [
                {
                    "perturbation_id": pid,
                    "l1_norm_a": float(result.l1_norm_a[i]),
                    "l1_norm_b": float(result.l1_norm_b[i]),
                    "l2_norm_a": float(result.l2_norm_a[i]),
                    "l2_norm_b": float(result.l2_norm_b[i]),
                    "cosine_between": float(result.cosine_between[i]),
                    "sign_cosine_between": float(result.sign_cosine_between[i]),
                }
                for i, pid in enumerate(result.perturbation_ids)
            ],
        }
    )
    return payload


def write_comparison_csv(result: PipelineComparison, path) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "perturbation",
                "l1_norm_a",
                "l1_norm_b",
                "l2_norm_a",
                "l2_norm_b",
                "cosine_between",
                "sign_cosine_between",
            ]
        )
        for i, pid in enumerate(result.perturbation_ids):
            writer.writerow(
                [
                    pid,
                    fmt(result.l1_norm_a[i]),
                    fmt(result.l1_norm_b[i]),
                    fmt(result.l2_norm_a[i]),
                    fmt(result.l2_norm_b[i]),
                    fmt(result.cosine_between[i]),
                    fmt(result.sign_cosine_between[i]),
                ]
            )
    return path


def region_payload(results, meta: dict | None = None) -> dict:
    payload = _base_payload("region-fraction", meta)
    payload["runs"] = [
        {
            "d": r.dimension,
            "rho": r.norm_ratio,
            "kappa": r.true_cosine,
            "samples": r.samples,
            "fraction": r.fraction_closer,
            "stderr": r.standard_error,
        }
        for r in results
    ]
    return payload


def write_region_csv(results, path) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d", "rho", "kappa", "fraction", "stderr"])
        for r in results:
            writer.writerow(
                [
                    str(r.dimension),
                    fmt(r.norm_ratio),
                    fmt(r.true_cosine),
                    fmt(r.fraction_closer),
                    fmt(r.standard_error),
                ]
            )
    return path


def certificate_payload(result: CertificateResult, meta: dict | None = None) -> dict:
    payload = _base_payload("orthogonal-ray-certificate", meta)
    payload.update(
        {
            "safe": result.safe,
            "cosine": result.cosine,
            "threshold": result.threshold,
            "margin": result.margin,
        }
    )
    return payload
