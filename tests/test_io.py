import csv
import io
import json
import math
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pdscore import (
    CountMatrix,
    DimensionMismatch,
    DistanceKind,
    DistanceSpec,
    DuplicateLabel,
    EffectMatrix,
    MissingControl,
    ParseError,
    PdsError,
    SynthSpec,
    compute_pds,
    generate,
    generate_counts,
    CountSynthSpec,
    PipelineComparison,
    align_pair,
    compare_pipelines,
    mean_effects,
    normalize,
    orthogonal_ray_certificate,
    pipeline_from_token,
    scale_sweep,
)
from pdscore import io as pio
from pdscore.errors import DuplicateLabelInFile

from helpers import COUNT_CELLS, FLOAT_CELLS, exactly, matrix_csvs, random_pair


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

    def test_cell_past_csv_field_limit_has_line(self, tmp_path):
        # numpy refuses the "oops" cell; the positional reader then meets the long label
        path = tmp_path / "long.csv"
        path.write_text(f"perturbation,g1\nA,1\nB,oops\n{'C' * 200_000},3\n")
        limit = csv.field_size_limit()
        with pytest.raises(ParseError, match="field larger than field limit") as info:
            pio.read_effect_matrix(path)
        assert (info.value.line, info.value.column) == (4, 1)
        assert csv.field_size_limit() == limit

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
        for cell in ("1.5", "1.0", "1e5"):
            # int() rejects each, and so does numpy's int64 parse in the bulk reader
            with pytest.raises(ValueError):
                np.loadtxt([cell], dtype=np.int64)
            path.write_text(f"cell,condition,g1\nc0,control,{cell}\n")
            with pytest.raises(ParseError, match=f"not an integer count: '{cell}'") as info:
                pio.read_count_matrix(path)
            assert (info.value.line, info.value.column) == (2, 3)

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


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def outcome(read, path):
    """What a reader makes of a file: the matrix's bytes, dtype and labels, or its error."""
    try:
        m = read(path)
    except PdsError as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)
    if isinstance(m, EffectMatrix):
        return m.values.dtype, m.values.shape, m.values.tobytes(), m.perturbation_ids, m.gene_ids
    arrays = m.counts.dtype, m.counts.shape, m.counts.tobytes()
    return *arrays, m.cell_ids, m.cell_condition, m.gene_ids


def positional_outcome(read, path):
    """outcome() with the bulk parse refusing every file, so only _read_table parses."""
    with mock.patch.object(pio, "_bulk_table", side_effect=pio._Refused):
        return outcome(read, path)


class TestBulkReader:
    """The bulk parse gives exactly what the positional reader gives, errors included."""

    SETTINGS = settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )

    @SETTINGS
    @given(matrix_csvs(["perturbation"], FLOAT_CELLS))
    @example("perturbation,gé\nÄ,1\n")
    @example("\ufeffperturbation,g1\nA,1\n")
    @example('perturbation,g1\n"a,b",1\n"say ""hi""",3\n"two\r\nlines",4\n')
    @example("perturbation,g1\nA,1\n\nB,2\n,\n")
    @example("perturbation,g1\n#A,1\n")
    @example("perturbation,g1\nA,1,2\n")
    @example("perturbation,g1\nA,1\nA,2\n")
    @example("perturbation,g1\nA,1_0\n")
    @example("perturbation,g1\nA,１\n")
    @example("perturbation,g1\nA,nan\n")
    @example("perturbation,g1\r\nA,1\r\n")
    @example(",\nperturbation,7\nA,1\n")  # a blank row before a header numpy could parse
    def test_effect_matrix_equals_positional(self, tmp_path, text):
        path = tmp_path / "e.csv"
        path.write_bytes(text.encode())
        read = pio.read_effect_matrix
        assert outcome(read, path) == positional_outcome(read, path)

    @SETTINGS
    @given(matrix_csvs(["cell", "condition"], COUNT_CELLS))
    @example("cell,condition,g1\nc0,control,1.0\n")
    @example(",,\ncell,condition,7\nc0,control,1\n")
    def test_count_matrix_equals_positional(self, tmp_path, text):
        path = tmp_path / "c.csv"
        path.write_bytes(text.encode())
        read = pio.read_count_matrix
        assert outcome(read, path) == positional_outcome(read, path)

    def test_no_data_rows_warns_nothing(self, tmp_path):
        # numpy warns that the input "contained no data"; the bulk parse refuses
        # instead, and the positional reader names the error.
        path = tmp_path / "e.csv"
        path.write_text("perturbation,g1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError, match="no data rows"):
                pio.read_effect_matrix(path)
        assert caught == []

    def test_clean_files_take_the_bulk_path(self, tmp_path):
        pair = generate(SynthSpec(n_perturbations=6, n_genes=9, target_cosine=0.6, seed=4))
        effects = pio.write_effect_matrix(pair.truth, tmp_path / "truth.csv")
        counts = generate_counts(CountSynthSpec(2, 3, 8, mean_counts_per_cell=50.0, seed=2))
        counts_file = pio.write_count_matrix(counts, tmp_path / "counts.csv")
        files = [
            (pio.read_effect_matrix, GOLDEN_INPUTS / "truth.csv"),
            (pio.read_effect_matrix, GOLDEN_INPUTS / "ties_predicted.csv"),
            (pio.read_effect_matrix, effects),
            (pio.read_count_matrix, GOLDEN_INPUTS / "counts.csv"),
            (pio.read_count_matrix, counts_file),
        ]
        expected = [positional_outcome(read, path) for read, path in files]
        # A silent fall back to the positional reader would fail here, not just run slower.
        refuse = AssertionError("the positional reader was called")
        with mock.patch.object(pio, "_read_table", side_effect=refuse):
            assert [outcome(read, path) for read, path in files] == expected


BIG = 2**63 - 1


class TestErrorPlacement:
    """A file with a fault fails with the first fault at its line and column."""

    @pytest.mark.parametrize("read, text, error, line, column, reason", [
        # A repeated gene id comes before a bad cell in a later row.
        ("effect", "perturbation,g1,g1\nA,1,oops\nB,2,3\n", DuplicateLabelInFile, 1, 3,
         "duplicate gene id 'g1', first in column 2"),
        ("effect", "perturbation,g1\nA,1\nA,nan\n", ParseError, 3, 2,
         "not a finite number: 'nan'"),
        # a header of label cells only comes before a bad cell
        ("effect", "perturbation\nA,oops\n", ParseError, 1, 1,
         "expected gene columns after the label column"),
        ("count", "cell,condition\nc0,control,x\n", ParseError, 1, 1,
         "expected gene columns after cell and condition columns"),
        ("count", "cell,condition,g1,g1\nc0,control,1,-1\n", DuplicateLabelInFile, 1, 4,
         "duplicate gene id 'g1', first in column 3"),
        # a repeated cell id comes before the missing control cell
        ("count", "cell,condition,g1\nc0,A,1\nc0,A,2\n", DuplicateLabelInFile, 3, 1,
         "duplicate cell id 'c0', first on line 2"),
        # an oversized library comes before an empty one on an earlier line
        ("count", f"cell,condition,g1,g2\nc0,control,1,1\nc1,A,0,0\nc2,A,{BIG},1\n", ParseError,
         4, 1, "cell 'c2' has library size exceeding 2**63 - 1"),
        ("count", "cell,condition,g1,g2\nc0,control,0,0\nc1,A,1,-1\n", ParseError, 3, 4,
         "count out of range 0 to 2**63 - 1: '-1'"),
        # exact integers: 2**63 - 1 must not round up to 2**63 and take the fault's place
        ("count", f"cell,condition,g1,g2,g3\nc0,control,{BIG},-1,{BIG + 1}\n", ParseError, 2, 4,
         "count out of range 0 to 2**63 - 1: '-1'"),
    ])
    def test_first_fault_of_two(self, tmp_path, read, text, error, line, column, reason):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(PdsError) as info:
            getattr(pio, f"read_{read}_matrix")(path)
        assert type(info.value) is error
        assert (info.value.line, info.value.column, info.value.reason) == (line, column, reason)
        assert str(info.value) == f"line {line}, column {column}: {reason}"

    @pytest.mark.parametrize("read, text, reason", [
        (pio.read_effect_matrix, 'perturbation,g1\n"two\nlines",4\nB,oops\n', "not a number"),
        (pio.read_effect_matrix, 'perturbation,g1\n"two\nlines",4\n"two\nlines",5\n',
         "duplicate perturbation id 'two\\nlines', first on line 2"),
        (pio.read_target_map, 'perturbation,target\n"two\nlines",g1\n"two\nlines",g2\n',
         "already has target 'g1'"),
    ])
    def test_line_is_where_the_row_starts(self, tmp_path, read, text, reason):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            read(path)
        assert info.value.line == 4
        assert reason in info.value.reason

    @TestBulkReader.SETTINGS
    @given(st.one_of(
        matrix_csvs(["perturbation"], FLOAT_CELLS).map(lambda text: (pio.read_effect_matrix, text)),
        matrix_csvs(["cell", "condition"], COUNT_CELLS).map(lambda text: (pio.read_count_matrix, text)),
    ))
    def test_every_error_is_placed(self, tmp_path, read_text):
        read, text = read_text
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        try:
            read(path)
        except ParseError as err:
            assert type(err.line) is int and type(err.column) is int
            assert err.line >= 1 and err.column >= 1
            assert str(err) == f"line {err.line}, column {err.column}: {err.reason}"
        except MissingControl:
            pass


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


    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(st.data())
    def test_matches_csv_writer_per_cell(self, tmp_path, data):
        text = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "é", "中"]), max_size=4)
        n_labels, n, p = (data.draw(st.integers(1, k)) for k in (2, 3, 3))
        label_columns = data.draw(exactly(n_labels, text))
        labels = data.draw(exactly(n, st.tuples(*[text] * n_labels)))
        genes = data.draw(exactly(p, text))
        if data.draw(st.booleans()):
            values, cell = st.integers(-(2**63), 2**63 - 1), str
        else:
            values, cell = st.floats(allow_nan=False, allow_infinity=False), seventeen_digits
        rows = data.draw(exactly(n, exactly(p, values)))
        values = np.array(rows, dtype=np.int64 if cell is str else np.float64)
        path = pio._write_matrix(tmp_path / "m.csv", label_columns, labels, genes, values)
        assert path.read_bytes() == csv_bytes([*label_columns, *genes], labels, values, cell)

    @staticmethod
    def write(path, values) -> tuple:
        """The bytes of values written with one label column, and those csv.writer gives
        formatting each cell."""
        labels = [(f"r{i}",) for i in range(values.shape[0])]
        header = ["id", *(f"g{j}" for j in range(values.shape[1]))]
        pio._write_matrix(path, header[:1], labels, header[1:], values)
        return path.read_bytes(), csv_bytes(header, labels, values, seventeen_digits)

    def test_repeated_signed_zeros_and_ulp_neighbours(self, tmp_path):
        """Rows of a few values, each formatted once: 0.0 and -0.0 in one row, neighbours one
        ulp apart, one column, and rows on both sides of the distinct share in one file."""
        repeated = np.tile([0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)], 20)
        distinct = np.arange(1.0, 101.0) / 7.0
        for values in (np.vstack([repeated, distinct, -repeated]), repeated[:, None]):
            written, want = self.write(tmp_path / "m.csv", values)
            assert written == want

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(st.data())
    def test_rows_of_repeated_values_match_per_cell(self, tmp_path, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        seed = data.draw(finite)
        pool = [0.0, -0.0, seed, *data.draw(st.lists(finite, max_size=3))]
        neighbours = (math.nextafter(seed, math.inf), math.nextafter(seed, -math.inf))
        pool += [x for x in neighbours if math.isfinite(x)]
        n, p = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 100))
        # each row repeats the pool's values or is drawn freely, so one file can hold both kinds
        rows = [data.draw(exactly(p, st.sampled_from(pool) if data.draw(st.booleans()) else finite))
                for _ in range(n)]
        written, want = self.write(tmp_path / "m.csv", np.array(rows, dtype=np.float64))
        assert written == want

    def test_normalized_values_of_another_shape_write_nothing(self, tmp_path):
        path = tmp_path / "n.csv"
        for values in (self.VALUES[:, :3], self.VALUES[:2], self.VALUES.ravel()):
            with pytest.raises(DimensionMismatch, match="cannot write normalized values"):
                pio.write_normalized_matrix(values, self.COUNTS, path)
            assert not path.exists()


class TestTargetMap:
    def test_with_and_without_header(self, tmp_path):
        with_header = tmp_path / "t1.csv"
        with_header.write_text("perturbation,target_gene\nA,g1\nB,g2\n")
        bare = tmp_path / "t2.csv"
        bare.write_text("A,g1\nB,g2\n")
        assert pio.read_target_map(with_header) == {"A": "g1", "B": "g2"}
        assert pio.read_target_map(bare) == {"A": "g1", "B": "g2"}

    def test_byte_order_mark_before_header_is_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbfperturbation,target\nA,g1\nB,g2\n")
        assert pio.read_target_map(path) == {"A": "g1", "B": "g2"}

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

    def test_cell_past_csv_field_limit_has_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"A,G1\n\nB,{'G' * 200_000}\n")
        with pytest.raises(ParseError, match="field larger than field limit") as info:
            pio.read_target_map(path)
        assert (info.value.line, info.value.column) == (3, 1)

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
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 12
        assert rows[0] == ["perturbation", "true_distance", "rank", "pds", "error"]
        parsed = [float(r[3]) for r in rows[1:]]
        assert np.array_equal(np.array(parsed), report.pds_values())

    def test_sweep_csv_columns(self, tmp_path):
        pair = random_pair(np.random.default_rng(4), n=5, p=6)
        result = scale_sweep(pair, [DistanceSpec(DistanceKind.L2)], (0.5, 1.0, 2.0))
        path = pio.write_sweep_csv(result, tmp_path / "s.csv")
        with path.open() as fh:
            rows = list(csv.reader(fh))
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
        with path.open() as fh:
            header = next(csv.reader(fh))
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


class TestReadMemory:
    """Peak traced memory of read paths, as a multiple of the matrix they read: the
    parse buffer is handed on, not copied at each step."""

    @staticmethod
    def peak_of(run):
        tracemalloc.start()
        try:
            kept = run()
            return tracemalloc.get_traced_memory()[1], kept
        finally:
            tracemalloc.stop()

    def test_counts_to_mean_effects_under_2_6_counts(self, tmp_path):
        counts = generate_counts(CountSynthSpec(24, 20, 1000, seed=3))
        pio.write_count_matrix(counts, tmp_path / "counts.csv")
        size = counts.counts.nbytes
        del counts

        def run():
            read = pio.read_count_matrix(tmp_path / "counts.csv")
            per10k = normalize(read, pipeline_from_token("per10k"))
            return mean_effects(per10k, read.cell_condition, read.gene_ids)

        peak, _ = self.peak_of(run)
        assert peak < 2.6 * size

    def test_two_reads_and_alignment_under_2_8_matrices(self, tmp_path):
        pair = generate(SynthSpec(120, 2000, 0.5, seed=2))
        pio.write_effect_matrix(pair.predicted, tmp_path / "pred.csv")
        pio.write_effect_matrix(pair.truth, tmp_path / "truth.csv")
        size = pair.truth.values.nbytes
        del pair

        def run():
            read = pio.read_effect_matrix
            return align_pair(read(tmp_path / "pred.csv"), read(tmp_path / "truth.csv"))

        peak, aligned = self.peak_of(run)
        assert aligned.n_perturbations == 120
        assert peak < 2.8 * size


class TestWriteMemory:
    def test_count_derived_matrix_under_an_eighth_of_it(self, tmp_path):
        """The writer holds one row's cells at a time: writing 500 x 1000 normalized counts
        peaks under an eighth of the matrix."""
        counts = generate_counts(CountSynthSpec(49, 10, 1000, seed=1))
        values = normalize(counts, pipeline_from_token("median"))
        write = lambda: pio.write_normalized_matrix(values, counts, tmp_path / "n.csv")
        peak, _ = TestReadMemory.peak_of(write)
        assert values.shape == (500, 1000)
        assert peak < values.nbytes / 8
