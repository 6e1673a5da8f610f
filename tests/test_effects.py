import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdscore import (
    CountMatrix,
    CountSynthSpec,
    DuplicateLabel,
    EffectMatrix,
    EffectPair,
    EmptyIntersection,
    UnknownPerturbation,
    ValidationError,
    SynthSpec,
    align_pair,
    apply_chain,
    generate,
    generate_counts,
    mean_effects,
    normalize,
    parse_chain,
    pipeline_from_token,
)
from pdscore import io as pio

from helpers import labels, pair_from
from oracles import anchor_subproblem


def matrix(values, perts, genes):
    return EffectMatrix(np.asarray(values, dtype=float), tuple(perts), tuple(genes))


class TestEffectMatrix:
    def test_valid_construction(self):
        m = matrix([[1.0, 2.0], [3.0, 4.0]], ("A", "B"), ("g1", "g2"))
        assert m.n_perturbations == 2
        assert m.n_genes == 2
        assert m.perturbation_index("B") == 1

    def test_values_are_readonly(self):
        m = matrix([[1.0, 2.0]], ("A",), ("g1", "g2"))
        with pytest.raises(ValueError):
            m.values[0, 0] = 9.0

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabel, match="A"):
            matrix([[1.0], [2.0]], ("A", "A"), ("g1",))
        with pytest.raises(DuplicateLabel, match="g1"):
            matrix([[1.0, 2.0]], ("A",), ("g1", "g1"))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            matrix([[np.nan, 1.0]], ("A",), ("g1", "g2"))
        with pytest.raises(ValidationError):
            matrix([[np.inf, 1.0]], ("A",), ("g1", "g2"))

    @pytest.mark.parametrize(
        "values, perts, genes, message",
        [
            ([[1.0, 2.0]], ("A", "B"), ("g1", "g2"), "2 perturbation ids for 1 rows"),
            ([1.0, 2.0], ("A",), ("g1", "g2"), "effect values must be a 2-d matrix"),
            (np.empty((0, 2)), (), ("g1", "g2"), "at least one row and one column"),
            ([[1.0, 2.0]], ("A",), ("g1",), "1 gene ids for 2 columns"),
        ],
    )
    def test_shape_label_mismatch(self, values, perts, genes, message):
        with pytest.raises(ValidationError, match=message):
            matrix(values, perts, genes)

    def test_unknown_perturbation(self):
        m = matrix([[1.0]], ("A",), ("g1",))
        with pytest.raises(UnknownPerturbation) as info:
            m.perturbation_index("Z")
        assert str(info.value) == "unknown perturbation 'Z'"  # not a KeyError's repr


def handed_over(values, how):
    """(the array a caller hands a container, the writes the caller can still make).

    write(delta) adds delta to the caller's values through a reference it holds:
    the array itself, the writable base under a read-only view, or its own array
    that it froze before handing it over and thaws afterwards."""
    base = np.array(values)

    def through(array):
        def write(delta):
            array.setflags(write=True)
            array[...] += delta

        return write

    if how == "own":
        return base, through(base)
    if how == "frozen":
        base.setflags(write=False)
        return base, through(base)
    view = base[:, ::2] if how == "strided view" else base.view()
    view.setflags(write=False)
    return view, through(base)


def frozen_chain(array) -> bool:
    """Whether array and every array along its base chain is read-only."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return True


class TestOwnership:
    HOW = st.sampled_from(["own", "frozen", "read-only view", "strided view"])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), HOW, st.integers(0, 2**32 - 1))
    def test_caller_writes_never_reach_a_container(self, n, p, how, seed):
        rng = np.random.default_rng(seed)
        values, write = handed_over(rng.standard_normal((n, p)), how)
        perts, genes = labels("P", n), labels("G", values.shape[1])
        built = EffectMatrix(values, perts, genes)
        rebuilt = built.with_values(values)
        expected = np.array(values)
        write(1.0)
        assert np.array_equal(built.values, expected) and np.array_equal(rebuilt.values, expected)

        counts, write = handed_over(rng.integers(1, 6, (n + 1, p)), how)
        conditions = ("control", *perts)
        built = CountMatrix(counts, conditions, labels("G", counts.shape[1]))
        expected = np.array(counts)
        write(1)
        assert np.array_equal(built.counts, expected)

    def test_outputs_are_read_only_along_their_base_chain(self, tmp_path):
        pair = generate(SynthSpec(6, 5, 0.5, seed=1))
        counts = generate_counts(CountSynthSpec(2, 3, 4, seed=1))
        arrays = [pair.predicted.values, pair.truth.values, counts.counts]
        pio.write_effect_matrix(pair.predicted, tmp_path / "pred.csv")
        pio.write_count_matrix(counts, tmp_path / "counts.csv")
        # a 1_0 cell, which numpy refuses, sends each reader down its positional path
        (tmp_path / "slow.csv").write_text("perturbation,g1,g2\nB,1_0,2\nA,3,4\n")
        (tmp_path / "slow_counts.csv").write_text("cell,condition,g1\nc1,control,1_0\nc2,B,3\n")
        read = pio.read_effect_matrix(tmp_path / "pred.csv")
        slow = pio.read_effect_matrix(tmp_path / "slow.csv")
        read_counts = pio.read_count_matrix(tmp_path / "counts.csv")
        slow_counts = pio.read_count_matrix(tmp_path / "slow_counts.csv")
        arrays += [read.values, slow.values, read_counts.counts, slow_counts.counts]
        for truth in (read, pair.truth):  # the same labels, then a reordering gather
            aligned = align_pair(read, truth)
            arrays += [aligned.predicted.values, aligned.truth.values]
        arrays += [align_pair(slow, slow).predicted.values]
        for chain in ("scale:2", "norm-match:l1", "norm-match:l2", "sign:0.1"):
            arrays.append(apply_chain(pair, parse_chain(chain)).predicted.values)
        per10k = normalize(read_counts, pipeline_from_token("per10k"))
        arrays.append(mean_effects(per10k, read_counts.cell_condition, read_counts.gene_ids).values)
        assert all(frozen_chain(array) for array in arrays)


class TestAlignPair:
    def test_perturbation_intersection(self):
        pred = matrix([[1.0], [2.0], [3.0]], ("A", "B", "C"), ("g1",))
        truth = matrix([[4.0], [5.0], [6.0]], ("B", "C", "D"), ("g1",))
        pair = align_pair(pred, truth)
        assert pair.perturbation_ids == ("B", "C")
        assert pair.predicted.values[:, 0].tolist() == [2.0, 3.0]
        assert pair.truth.values[:, 0].tolist() == [4.0, 5.0]

    def test_gene_intersection(self):
        pred = matrix([[1.0, 2.0], [3.0, 4.0]], ("A", "B"), ("g1", "g2"))
        truth = matrix([[5.0, 6.0], [7.0, 8.0]], ("A", "B"), ("g2", "g3"))
        pair = align_pair(pred, truth)
        assert pair.gene_ids == ("g2",)
        assert pair.predicted.values[:, 0].tolist() == [2.0, 4.0]
        assert pair.truth.values[:, 0].tolist() == [5.0, 7.0]

    def test_canonical_order_independent_of_input_order(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((4, 3))
        perts = ("P3", "P1", "P2", "P0")
        genes = ("gB", "gC", "gA")
        pred = matrix(values, perts, genes)
        truth = matrix(values * 2.0, perts, genes)
        pair1 = align_pair(pred, truth)

        perm_r = [2, 0, 3, 1]
        perm_c = [1, 2, 0]
        pred_shuffled = matrix(
            values[np.ix_(perm_r, perm_c)],
            tuple(perts[i] for i in perm_r),
            tuple(genes[j] for j in perm_c),
        )
        pair2 = align_pair(pred_shuffled, truth)
        assert pair2.perturbation_ids == pair1.perturbation_ids == ("P0", "P1", "P2", "P3")
        assert pair2.gene_ids == pair1.gene_ids == ("gA", "gB", "gC")
        assert np.array_equal(pair1.predicted.values, pair2.predicted.values)
        assert np.array_equal(pair1.truth.values, pair2.truth.values)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        pred = matrix(rng.standard_normal((3, 2)), ("P1", "P0", "P2"), ("g1", "g0"))
        truth = matrix(rng.standard_normal((3, 2)), ("P0", "P2", "P1"), ("g0", "g1"))
        pair = align_pair(pred, truth)
        again = align_pair(pair.predicted, pair.truth, pair.target_gene_of)
        assert np.array_equal(pair.predicted.values, again.predicted.values)
        assert np.array_equal(pair.truth.values, again.truth.values)
        assert pair.perturbation_ids == again.perturbation_ids

    def test_empty_intersection(self):
        pred = matrix([[1.0], [2.0]], ("A", "B"), ("g1",))
        truth = matrix([[1.0], [2.0]], ("C", "D"), ("g1",))
        with pytest.raises(EmptyIntersection):
            align_pair(pred, truth)
        truth2 = matrix([[1.0], [2.0]], ("A", "B"), ("g9",))
        with pytest.raises(EmptyIntersection):
            align_pair(pred, truth2)

    def test_single_shared_perturbation_rejected(self):
        pred = matrix([[1.0], [2.0]], ("A", "B"), ("g1",))
        truth = matrix([[1.0], [2.0]], ("B", "C"), ("g1",))
        with pytest.raises(EmptyIntersection):
            align_pair(pred, truth)

    def test_out_of_intersection_targets_dropped(self):
        pred = matrix([[1.0, 2.0], [3.0, 4.0]], ("A", "B"), ("g1", "g2"))
        truth = matrix([[1.0, 2.0], [3.0, 4.0]], ("A", "B"), ("g2", "g3"))
        pair = align_pair(pred, truth, {"A": "g1", "B": "g2", "Z": "g2"})
        assert pair.target_gene_of == {"B": "g2"}


class TestEffectPair:
    def test_label_mismatch_rejected(self):
        a = matrix([[1.0], [2.0]], ("A", "B"), ("g1",))
        b = matrix([[1.0], [2.0]], ("B", "A"), ("g1",))
        with pytest.raises(ValidationError, match="identical perturbations"):
            EffectPair(a, b)
        c = matrix([[1.0], [2.0]], ("A", "B"), ("g2",))
        with pytest.raises(ValidationError, match="identical genes"):
            EffectPair(a, c)

    def test_target_gene_must_exist(self):
        a = matrix([[1.0], [2.0]], ("A", "B"), ("g1",))
        with pytest.raises(ValidationError):
            EffectPair(a, a, {"A": "gX"})


class TestAnchorSubproblem:
    """The reference scorers' masked subproblem, which the ranking and threshold
    references in oracles.py and helpers.py build on."""

    def test_target_mask_excludes_shared_column(self):
        pair = pair_from(
            [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
            [[7.0, 8.0, 9.0], [10.0, 11.0, 12.0]],
            {"P0000": "G0001"},
        )
        a, rows = anchor_subproblem(pair, 0, apply_target_mask=True)
        assert a.tolist() == [1.0, 0.0, 3.0]
        assert rows.tolist() == [[7.0, 0.0, 9.0], [10.0, 0.0, 12.0]]
        assert pair.predicted.values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert pair.truth.values.tolist() == [[7.0, 8.0, 9.0], [10.0, 11.0, 12.0]]

    def test_mask_disabled_returns_full_rows(self):
        pair = pair_from(
            [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
            [[7.0, 8.0, 9.0], [10.0, 11.0, 12.0]],
            {"P0000": "G0001"},
        )
        a, rows = anchor_subproblem(pair, 0, apply_target_mask=False)
        assert a.tolist() == [1.0, 2.0, 3.0]
        assert rows.tolist() == [[7.0, 8.0, 9.0], [10.0, 11.0, 12.0]]

    def test_missing_target_entry_means_no_mask(self):
        pair = pair_from(
            [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
            [[7.0, 8.0, 9.0], [10.0, 11.0, 12.0]],
            {"P0000": "G0001"},
        )
        a, rows = anchor_subproblem(pair, 1, apply_target_mask=True)
        assert a.tolist() == [4.0, 5.0, 6.0]
        assert rows.tolist() == [[7.0, 8.0, 9.0], [10.0, 11.0, 12.0]]

    def test_unexcluded_coordinates_unchanged(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal((5, 7))
        pair = pair_from(values, values * 3.0, {"P0002": "G0004"})
        a, rows = anchor_subproblem(pair, 2, apply_target_mask=True)
        keep = [0, 1, 2, 3, 5, 6]
        assert a.shape == (7,) and rows.shape == (5, 7)
        assert a[4] == 0.0 and not rows[:, 4].any()
        assert np.array_equal(a[keep], values[2, keep])
        assert np.array_equal(rows[:, keep], values[:, keep] * 3.0)
        assert np.array_equal(pair.predicted.values, values)
        assert np.array_equal(pair.truth.values, values * 3.0)

    def test_masking_everything_rejected(self):
        pair = pair_from([[1.0], [2.0]], [[3.0], [4.0]], {"P0000": "G0000"})
        with pytest.raises(ValidationError):
            anchor_subproblem(pair, 0, apply_target_mask=True)
