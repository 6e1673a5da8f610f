import numpy as np
import pytest

from pdscore import (
    DuplicateLabel,
    EffectMatrix,
    EffectPair,
    EmptyIntersection,
    UnknownPerturbation,
    ValidationError,
    align_pair,
    anchor_subproblem,
)

from helpers import pair_from


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

    def test_shape_label_mismatch(self):
        with pytest.raises(ValidationError):
            matrix([[1.0, 2.0]], ("A", "B"), ("g1", "g2"))

    def test_unknown_perturbation(self):
        m = matrix([[1.0]], ("A",), ("g1",))
        with pytest.raises(UnknownPerturbation):
            m.perturbation_index("Z")


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
        with pytest.raises(ValidationError):
            EffectPair(a, b)

    def test_target_gene_must_exist(self):
        a = matrix([[1.0], [2.0]], ("A", "B"), ("g1",))
        with pytest.raises(ValidationError):
            EffectPair(a, a, {"A": "gX"})


class TestAnchorSubproblem:
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
