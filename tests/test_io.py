import csv
import io
import json
from dataclasses import fields

import numpy as np
import pytest

from pdscore import (
    CountMatrix,
    DistanceKind,
    DistanceSpec,
    DuplicateLabel,
    EffectMatrix,
    ParseError,
    compute_pds,
    generate_counts,
    CountSynthSpec,
    PipelineComparison,
    compare_pipelines,
    orthogonal_ray_certificate,
    pipeline_from_token,
    scale_sweep,
)
from pdscore import io as pio

from helpers import random_pair


class TestEffectMatrixRoundTrip:
    def test_small_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("perturbation,g1,g2\nA,1.5,2\nB,3,4.25\n")
        m = pio.read_effect_matrix(path)
        assert m.perturbation_ids == ("A", "B")
        assert m.gene_ids == ("g1", "g2")
        assert m.values.tolist() == [[1.5, 2.0], [3.0, 4.25]]

    def test_write_read_bitwise(self, tmp_path):
        pair = random_pair(np.random.default_rng(1), n=7, p=5)
        path = pio.write_effect_matrix(pair.predicted, tmp_path / "p.csv")
        back = pio.read_effect_matrix(path)
        assert np.array_equal(back.values, pair.predicted.values)
        assert back.perturbation_ids == pair.predicted.perturbation_ids
        assert back.gene_ids == pair.predicted.gene_ids

    def test_duplicate_perturbation_names_label(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("perturbation,g1\nA,1\nA,2\n")
        with pytest.raises(DuplicateLabel, match="'A'"):
            pio.read_effect_matrix(path)

    def test_non_numeric_cell_has_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("perturbation,g1,g2\nA,1,2\nB,oops,4\n")
        with pytest.raises(ParseError) as info:
            pio.read_effect_matrix(path)
        assert info.value.line == 3
        assert info.value.column == 2

    def test_non_finite_cell_has_position(self, tmp_path):
        path = tmp_path / "nonfinite.csv"
        for text, line, column in (
            ("perturbation,g1,g2\nA,1,nan\nB,3,4\n", 2, 3),
            ("perturbation,g1,g2\n\nA,1,2\nB,-inf,inf\n", 4, 2),
        ):
            path.write_text(text)
            with pytest.raises(ParseError, match="not a finite number") as info:
                pio.read_effect_matrix(path)
            assert (info.value.line, info.value.column) == (line, column)

    def test_duplicate_perturbation_id_has_position(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("perturbation,g1\nA,1\nB,2\n\nA,3\n")
        with pytest.raises(ParseError, match="id 'A', first on line 2") as info:
            pio.read_effect_matrix(path)
        assert (info.value.line, info.value.column) == (5, 1)

    def test_duplicate_gene_id_has_position(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("perturbation,g1,g2,g1\nA,1,2,3\n")
        with pytest.raises(ParseError, match="gene id 'g1', first in column 2") as info:
            pio.read_effect_matrix(path)
        assert (info.value.line, info.value.column) == (1, 4)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("perturbation,g1,g2\nA,1\n")
        with pytest.raises(ParseError):
            pio.read_effect_matrix(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            pio.read_effect_matrix(path)


class TestCountsRoundTrip:
    def test_write_read(self, tmp_path):
        counts = generate_counts(CountSynthSpec(3, 4, 10, mean_counts_per_cell=100.0, seed=3))
        path = pio.write_count_matrix(counts, tmp_path / "c.csv")
        back = pio.read_count_matrix(path)
        assert np.array_equal(back.counts, counts.counts)
        assert back.cell_condition == counts.cell_condition
        assert back.gene_ids == counts.gene_ids
        assert back.cell_ids == counts.cell_ids

    def test_fractional_count_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("cell,condition,g1\nc0,control,1.5\n")
        with pytest.raises(ParseError) as info:
            pio.read_count_matrix(path)
        assert info.value.line == 2
        assert info.value.column == 3

    def test_count_beyond_int64_has_position(self, tmp_path):
        path = tmp_path / "c.csv"
        for cell in ("99999999999999999999999", str(2**63), str(-(2**63) - 1)):
            path.write_text(f"cell,condition,g1,g2\nc0,control,1,2\n\nc1,A,3,{cell}\n")
            with pytest.raises(ParseError, match="out of range") as info:
                pio.read_count_matrix(path)
            assert (info.value.line, info.value.column) == (4, 4)

    def test_largest_int64_count_accepted(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(f"cell,condition,g1\nc0,control,{2**63 - 1}\nc1,A,1\n")
        assert pio.read_count_matrix(path).counts[0, 0] == 2**63 - 1

    def test_library_size_beyond_int64_has_position(self, tmp_path):
        path = tmp_path / "c.csv"
        big = 2**63 - 1
        path.write_text(f"cell,condition,g1,g2\nc0,control,{big - 1},1\nc1,A,1,0\n")
        assert pio.read_count_matrix(path).library_sizes().tolist() == [big, 1]
        # sums 2**63, 2**64 and 2**65 - 5 wrap to -2**63, 0 and -5 in int64
        for cells in ([big, 1], [big, big, 2], [big, big, big, big - 1]):
            genes = ",".join(f"g{j}" for j in range(len(cells)))
            ones, row = ",".join("1" * len(cells)), ",".join(map(str, cells))
            path.write_text(f"cell,condition,{genes}\nc0,control,{ones}\n\nc1,A,{row}\n")
            with pytest.raises(ParseError, match="cell 'c1' has library size exceeding 2") as info:
                pio.read_count_matrix(path)
            assert (info.value.line, info.value.column) == (4, 1)

    def test_negative_count_has_position(self, tmp_path):
        path = tmp_path / "c.csv"
        for text, line, column in (
            ("cell,condition,g1,g2\nc0,control,1,2\nc1,A,-3,4\n", 3, 3),
            # The first bad cell in row order is reported, also when a later one overflows.
            ("cell,condition,g1,g2\nc0,control,1,-1\nc1,A,99999999999999999999999,4\n", 2, 4),
        ):
            path.write_text(text)
            with pytest.raises(ParseError, match="out of range") as info:
                pio.read_count_matrix(path)
            assert (info.value.line, info.value.column) == (line, column)

    def test_duplicate_gene_id_has_position(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("\ncell,condition,g1,g1\nc0,control,1,2\nc1,A,3,4\n")
        with pytest.raises(ParseError, match="gene id 'g1', first in column 3") as info:
            pio.read_count_matrix(path)
        assert (info.value.line, info.value.column) == (2, 4)

    def test_duplicate_cell_id_has_position(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("cell,condition,g1\nc0,control,1\nc1,A,2\n\nc0,A,3\n")
        with pytest.raises(ParseError, match="cell id 'c0', first on line 2") as info:
            pio.read_count_matrix(path)
        assert (info.value.line, info.value.column) == (5, 1)

    def test_zero_library_size_has_position(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("cell,condition,g1,g2\nc0,control,1,2\nc1,A,0,0\n")
        with pytest.raises(ParseError, match="cell 'c1' has library size 0") as info:
            pio.read_count_matrix(path)
        assert (info.value.line, info.value.column) == (3, 1)


def seventeen_digits(value: float) -> str:
    return format(value, ".17g")


def csv_bytes(header, labels, values, cell) -> bytes:
    """A labelled table as csv.writer writes it, each value formatted by cell."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([*label, *map(cell, row)] for label, row in zip(labels, values.tolist()))
    return text.getvalue().encode()


class TestMatrixBytes:
    # extremes, subnormals, -0.0, negatives and integer-valued floats
    VALUES = np.array(
        [
            [5e-324, 1.7e308, -0.0, -2.5],
            [1.0, -3.0, 0.1, -1.7976931348623157e308],
            [2.0**53, 1e-310, 123456789.0, -5e-324],
        ]
    )
    GENES = ("g,1", 'g"2', "g 3", "g4")  # labels that csv.writer must quote
    COUNTS = CountMatrix(
        np.array([[2**63 - 1, 0, 0, 0], [0, 1, 7, 12345678901234], [3, 0, 0, 1]]),
        ("control", "A,1", 'B "x"'),
        GENES,
        ("c,0", 'c"1', "c\n2"),
    )

    def test_effect_matrix(self, tmp_path):
        ids = ("a,b", 'say "hi"', "two\nlines")
        matrix = EffectMatrix(self.VALUES, ids, self.GENES)
        path = pio.write_effect_matrix(matrix, tmp_path / "e.csv")
        header = ["perturbation", *self.GENES]
        assert path.read_bytes() == csv_bytes(header, zip(ids), self.VALUES, seventeen_digits)

    def test_normalized_and_count_matrices(self, tmp_path):
        header = ["cell", "condition", *self.GENES]
        labels = list(zip(self.COUNTS.cell_ids, self.COUNTS.cell_condition))
        path = pio.write_normalized_matrix(self.VALUES, self.COUNTS, tmp_path / "n.csv")
        assert path.read_bytes() == csv_bytes(header, labels, self.VALUES, seventeen_digits)
        path = pio.write_count_matrix(self.COUNTS, tmp_path / "c.csv")
        assert path.read_bytes() == csv_bytes(header, labels, self.COUNTS.counts, str)


class TestTargetMap:
    def test_with_and_without_header(self, tmp_path):
        with_header = tmp_path / "t1.csv"
        with_header.write_text("perturbation,target_gene\nA,g1\nB,g2\n")
        bare = tmp_path / "t2.csv"
        bare.write_text("A,g1\nB,g2\n")
        assert pio.read_target_map(with_header) == {"A": "g1", "B": "g2"}
        assert pio.read_target_map(bare) == {"A": "g1", "B": "g2"}

    def test_wrong_width(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("A,g1,extra\n")
        with pytest.raises(ParseError):
            pio.read_target_map(path)

    def test_conflicting_target_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("perturbation,target_gene\nA,G1\nB,G2\n\nA,G2\n")
        with pytest.raises(ParseError, match="'A' already has target 'G1'") as info:
            pio.read_target_map(path)
        assert (info.value.line, info.value.column) == (5, 2)

    def test_repeated_identical_row_accepted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("A,G1\nB,G2\nA,G1\n")
        assert pio.read_target_map(path) == {"A": "G1", "B": "G2"}


class TestReports:
    def test_pds_json_round_trip_is_bitwise(self, tmp_path):
        pair = random_pair(np.random.default_rng(2), n=9, p=6)
        report = compute_pds(pair, DistanceSpec(DistanceKind.L2))
        path = pio.write_json(pio.pds_report_payload(report), tmp_path / "r.json")
        loaded = json.loads(path.read_text())
        assert loaded["mean_pds"] == report.mean_pds
        for entry, raw in zip(report.per_perturbation, loaded["per_perturbation"]):
            assert raw["true_distance"] == entry.true_distance
            assert raw["rank"] == entry.rank
            assert raw["pds"] == entry.pds

    def test_pds_csv_row_count(self, tmp_path):
        pair = random_pair(np.random.default_rng(3), n=11, p=4)
        report = compute_pds(pair, DistanceSpec(DistanceKind.L1))
        path = pio.write_pds_report_csv(report, tmp_path / "r.csv")
        rows = list(csv.reader(path.open()))
        assert len(rows) == 12
        assert rows[0] == ["perturbation", "true_distance", "rank", "pds", "error"]
        parsed = [float(r[3]) for r in rows[1:]]
        assert np.array_equal(np.array(parsed), report.pds_values())

    def test_sweep_csv_columns(self, tmp_path):
        pair = random_pair(np.random.default_rng(4), n=5, p=6)
        result = scale_sweep(pair, [DistanceSpec(DistanceKind.L2)], (0.5, 1.0, 2.0))
        path = pio.write_sweep_csv(result, tmp_path / "s.csv")
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["c", "metric", "mean_pds"]
        assert len(rows) == 1 + 3
        assert all(r[1] == "l2" for r in rows[1:])
        assert [float(r[0]) for r in rows[1:]] == [0.5, 1.0, 2.0]

    def test_digest_is_stable(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"abc123")
        assert pio.sha256_file(path) == pio.sha256_file(path)
        assert len(pio.sha256_file(path)) == 64

    def test_comparison_csv_header_is_the_array_fields(self, tmp_path):
        counts = generate_counts(CountSynthSpec(n_perturbations=3, cells_per_condition=5, n_genes=30))
        result = compare_pipelines(counts, pipeline_from_token("per10k"), pipeline_from_token("median"))
        path = pio.write_comparison_csv(result, tmp_path / "c.csv")
        header = next(csv.reader(path.open()))
        assert header == ["perturbation", *(f.name for f in fields(PipelineComparison)[3:])]
        assert header[1:] == [
            "l1_norm_a", "l1_norm_b", "l2_norm_a", "l2_norm_b", "cosine_between", "sign_cosine_between"
        ]

    def test_certificate_from_numpy_inputs_is_json(self, tmp_path):
        result = orthogonal_ray_certificate(np.float64(1), 1.0, np.float64(0.6))
        assert type(result.safe) is bool
        path = pio.write_json(pio.certificate_payload(result), tmp_path / "certificate.json")
        assert json.loads(path.read_text())["safe"] is True

    def test_unencodable_payload_writes_no_file(self, tmp_path):
        path = tmp_path / "r.json"
        with pytest.raises(TypeError):
            pio.write_json({"x": object()}, path)
        assert not path.exists()
