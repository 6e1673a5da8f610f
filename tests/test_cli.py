import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdscore import __version__
from pdscore import io as pio
from pdscore.cli import main


@pytest.fixture()
def pair_files(tmp_path):
    out = tmp_path / "synth"
    code = main(
        [
            "synth", "pair",
            "--n", "12", "--genes", "20",
            "--target-cosine", "0.6", "--norm-sigma", "1.0",
            "--scale", "0.1", "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out / "predicted.csv", out / "truth.csv"


@pytest.fixture()
def counts_file(tmp_path):
    out = tmp_path / "counts"
    code = main(
        [
            "synth", "counts",
            "--perturbations", "4", "--cells-per-condition", "10",
            "--genes", "40", "--mean-counts", "200", "--seed", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out / "counts.csv"


class TestPdsCommand:
    def test_runs_all_metrics(self, pair_files, tmp_path, capsys):
        pred, truth = pair_files
        out = tmp_path / "pds"
        code = main(
            [
                "pds", "--pred", str(pred), "--truth", str(truth),
                "--metric", "l1,l2,cosine,sign-cosine",
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        for token in ("l1", "l2", "cosine", "sign-cosine"):
            assert (out / f"pds_{token}.json").exists()
            assert (out / f"pds_{token}.csv").exists()
            assert f"metric={token}" in printed
        config = json.loads((out / "run_config.json").read_text())
        assert config["command"] == "pds"
        assert len(config["input_digests"]) == 2
        report = json.loads((out / "pds_cosine.json").read_text())
        assert 0.0 <= report["mean_pds"] <= 1.0
        assert len(report["per_perturbation"]) == 12
        assert report["meta"]["inputs"] == {
            "pred": config["input_digests"][str(pred)],
            "truth": config["input_digests"][str(truth)],
        }

    def test_transform_chain_flag(self, pair_files, tmp_path):
        pred, truth = pair_files
        out = tmp_path / "pds_t"
        code = main(
            [
                "pds", "--pred", str(pred), "--truth", str(truth),
                "--metric", "l2", "--transform", "scale:2,norm-match:l2",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "pds_l2.json").read_text())
        assert report["transform_chain"] == ["scale:2", "norm-match:l2"]

    def test_mask_target_with_explicit_map(self, pair_files, tmp_path):
        pred, truth = pair_files
        targets = tmp_path / "targets.csv"
        targets.write_text("perturbation,target_gene\nP0000,G0003\nP0001,G0001\n")
        out = tmp_path / "pds_m"
        code = main(
            [
                "pds", "--pred", str(pred), "--truth", str(truth),
                "--metric", "l1", "--mask-target", "--targets", str(targets),
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "pds_l1.json").read_text())
        assert report["apply_target_mask"] is True

    def test_unknown_metric_exits_2_with_choices(self, pair_files, tmp_path, capsys):
        pred, truth = pair_files
        code = main(
            ["pds", "--pred", str(pred), "--truth", str(truth), "--metric", "manhattan"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "l1" in err and "sign-cosine" in err

    def test_workers_below_one_exits_2(self, pair_files, tmp_path, capsys):
        pred, truth = pair_files
        for workers in ("0", "-3"):
            out = tmp_path / f"w{workers}"
            code = main(
                [
                    "pds", "--pred", str(pred), "--truth", str(truth),
                    "--workers", workers, "--out", str(out),
                ]
            )
            assert code == 2
            assert "--workers" in capsys.readouterr().err
            assert not out.exists()

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(
            ["pds", "--pred", str(tmp_path / "none.csv"), "--truth", str(tmp_path / "none.csv")]
        )
        assert code == 1

    def test_reports_reproducible_across_runs(self, pair_files, tmp_path):
        pred, truth = pair_files
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(
                [
                    "pds", "--pred", str(pred), "--truth", str(truth),
                    "--metric", "l2", "--workers", "3", "--out", str(out),
                ]
            ) == 0
        assert (out_a / "pds_l2.json").read_text() == (out_b / "pds_l2.json").read_text()


class TestSweepCommand:
    def test_sweep_outputs(self, pair_files, tmp_path, capsys):
        pred, truth = pair_files
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--pred", str(pred), "--truth", str(truth),
                "--metric", "l1,l2", "--grid", "1e-1:1e2:5",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.reader((out / "sweep.csv").open()))
        assert rows[0] == ["c", "metric", "mean_pds"]
        assert len(rows) == 1 + 2 * 5
        payload = json.loads((out / "sweep.json").read_text())
        assert set(payload["limit_mean_pds"]) == {"l1", "l2"}
        assert "limit_mean_pds" in capsys.readouterr().out.replace("=", "_") or True

    def test_bad_grid_exits_2(self, pair_files):
        pred, truth = pair_files
        for grid in ("5:1:3", "nan:1e4:25", "1e-2:inf:25"):
            assert main(
                ["sweep", "--pred", str(pred), "--truth", str(truth), "--grid", grid]
            ) == 2, grid

    def test_repeated_metric_exits_2(self, pair_files, tmp_path, capsys):
        pred, truth = pair_files
        for command in ("pds", "sweep"):
            out = tmp_path / command
            code = main(
                [
                    command, "--pred", str(pred), "--truth", str(truth),
                    "--metric", "l2,l2", "--out", str(out),
                ]
            )
            assert code == 2, command
            assert "more than once" in capsys.readouterr().err
            assert not out.exists()


class TestNormMatchCommand:
    def test_emits_matched_predictions(self, pair_files, tmp_path):
        pred, truth = pair_files
        out = tmp_path / "nm"
        code = main(
            [
                "norm-match", "--pred", str(pred), "--truth", str(truth),
                "--norm", "l2", "--out", str(out),
            ]
        )
        assert code == 0
        matched = pio.read_effect_matrix(out / "norm_matched_predictions.csv")
        truth_m = pio.read_effect_matrix(truth)
        assert np.allclose(
            np.linalg.norm(matched.values, axis=1),
            np.linalg.norm(truth_m.values, axis=1),
            rtol=1e-12,
        )


    @pytest.mark.parametrize("option", [["--mask-target"], ["--sign-threshold", "0.5"]])
    def test_scoring_options_exit_2(self, pair_files, tmp_path, option, capsys):
        pred, truth = pair_files
        argv = ["norm-match", "--pred", str(pred), "--truth", str(truth), "--norm", "l2"]
        assert main([*argv, *option, "--out", str(tmp_path / "nm")]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "nm").exists()

    def test_targets_file_is_a_recorded_input(self, pair_files, tmp_path):
        pred, truth = pair_files
        targets = tmp_path / "targets.csv"
        targets.write_text("P0000,G0003\n")
        out = tmp_path / "nm_t"
        code = main(
            [
                "norm-match", "--pred", str(pred), "--truth", str(truth),
                "--targets", str(targets), "--norm", "l1", "--out", str(out),
            ]
        )
        assert code == 0
        config = json.loads((out / "run_config.json").read_text())
        assert list(config["input_digests"]) == [str(pred), str(truth), str(targets)]


class TestGeometryCommands:
    def test_certificate(self, tmp_path, capsys):
        out = tmp_path / "cert"
        code = main(
            [
                "geometry", "certificate",
                "--pred-norm", "1.0", "--true-norm", "1.0", "--cosine", "0.6",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "certificate.json").read_text())
        assert payload["safe"] is True
        assert payload["threshold"] == 0.5
        assert "safe=True" in capsys.readouterr().out

    def test_region(self, tmp_path):
        out = tmp_path / "region"
        code = main(
            [
                "geometry", "region",
                "--dims", "2,8", "--rho", "0.5", "--kappa", "0.4",
                "--samples", "2000", "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.reader((out / "region.csv").open()))
        assert rows[0] == ["d", "rho", "kappa", "fraction", "stderr"]
        assert len(rows) == 3

    def test_region_without_dims_exits_2(self, tmp_path, capsys):
        out = tmp_path / "region"
        code = main(
            [
                "geometry", "region",
                "--dims", "", "--rho", "0.5", "--kappa", "0.4", "--out", str(out),
            ]
        )
        assert code == 2
        assert "--dims" in capsys.readouterr().err
        assert not out.exists()


class TestPreprocessCommands:
    def test_normalize_effects_compare(self, counts_file, tmp_path):
        out_n = tmp_path / "norm"
        assert main(
            ["preprocess", "normalize", "--counts", str(counts_file), "--out", str(out_n)]
        ) == 0
        assert (out_n / "normalized.csv").exists()

        out_e = tmp_path / "effects"
        assert main(
            [
                "preprocess", "effects", "--counts", str(counts_file),
                "--pipeline", "median", "--out", str(out_e),
            ]
        ) == 0
        effects = pio.read_effect_matrix(out_e / "effects.csv")
        assert effects.n_perturbations == 4

        out_c = tmp_path / "cmp"
        assert main(
            [
                "preprocess", "compare", "--counts", str(counts_file),
                "--pipeline-a", "per10k", "--pipeline-b", "median",
                "--out", str(out_c),
            ]
        ) == 0
        rows = list(csv.reader((out_c / "comparison.csv").open()))
        assert len(rows) == 1 + 4
        payload = json.loads((out_c / "comparison.json").read_text())
        assert payload["pipeline_a"] == "per10k"

    def test_bad_count_exits_1_with_position(self, tmp_path, capsys):
        counts = tmp_path / "bad.csv"
        counts.write_text("cell,condition,g1,g2\nc0,control,1,2\nc1,A,3,99999999999999999999999\n")
        out = tmp_path / "x"
        code = main(["preprocess", "normalize", "--counts", str(counts), "--out", str(out)])
        assert code == 1
        assert "line 3, column 4" in capsys.readouterr().err
        # run_config.json is written before the input is parsed.
        config = json.loads((out / "run_config.json").read_text())
        assert list(config["input_digests"]) == [str(counts)]

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_sign_threshold_exits_1(self, counts_file, tmp_path, threshold, capsys):
        out = tmp_path / "cmp"
        code = main(
            [
                "preprocess", "compare", "--counts", str(counts_file),
                "--sign-threshold", threshold, "--out", str(out),
            ]
        )
        assert code == 1
        assert "must be finite and >= 0" in capsys.readouterr().err
        assert not (out / "comparison.csv").exists()

    def test_zero_effect_perturbation_is_reported_with_nan_cosines(self, tmp_path, capsys):
        # A's cells repeat the control cells, so A's effect is the zero vector under both pipelines
        counts = tmp_path / "counts.csv"
        counts.write_text(
            "cell,condition,g1,g2,g3\nc0,control,1,2,3\nc1,control,2,1,3\n"
            "c2,A,1,2,3\nc3,A,2,1,3\nc4,B,5,0,1\n"
        )
        out = tmp_path / "cmp"
        assert main(["preprocess", "compare", "--counts", str(counts), "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "comparison.csv").open()))
        assert [row["perturbation"] for row in rows] == ["A", "B"]
        assert rows[0]["cosine_between"] == rows[0]["sign_cosine_between"] == "nan"
        cosine_b = float(rows[1]["cosine_between"])
        assert f"perturbations=2 median_cosine={cosine_b:.4f}" in capsys.readouterr().out

    def test_compare_with_no_defined_cosine_prints_nan_median(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("cell,condition,g1,g2\nc0,control,1,2\nc1,A,1,2\n")
        out = tmp_path / "cmp"
        assert main(["preprocess", "compare", "--counts", str(counts), "--out", str(out)]) == 0
        assert "perturbations=1 median_cosine=nan" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["effects", "compare"])
    def test_only_control_cells_exits_1(self, tmp_path, command, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("cell,condition,g1,g2\nc0,control,1,2\nc1,control,2,1\n")
        out = tmp_path / command
        code = main(["preprocess", command, "--counts", str(counts), "--out", str(out)])
        assert code == 1
        assert "no perturbation cells found" in capsys.readouterr().err

    def test_unknown_pipeline_exits_1(self, counts_file, tmp_path):
        assert main(
            [
                "preprocess", "normalize", "--counts", str(counts_file),
                "--pipeline", "cpm", "--out", str(tmp_path / "x"),
            ]
        ) == 1


class TestSynthCommands:
    def test_pair_files_readable(self, pair_files):
        pred, truth = pair_files
        m = pio.read_effect_matrix(pred)
        t = pio.read_effect_matrix(truth)
        assert m.perturbation_ids == t.perturbation_ids
        assert m.n_genes == 20

    def test_counts_file_readable(self, counts_file):
        counts = pio.read_count_matrix(counts_file)
        assert counts.n_genes == 40
        assert "control" in counts.cell_condition

    def test_usage_error_without_subcommand(self):
        assert main(["synth"]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "pdscore" in capsys.readouterr().out

    def test_python_dash_m_entry_point(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "pdscore", "--version"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0
        assert done.stdout.strip() == f"pdscore {__version__}"

    @pytest.mark.parametrize(
        "option, message",
        [
            # rates so small that every draw of a cell is empty
            (["--mean-counts", "1e-300"], "a 'control' cell was empty in all 1000 draws"),
            (["--mean-counts", "nan"], "mean_counts_per_cell must be positive and finite"),
            (["--mean-counts", "inf"], "mean_counts_per_cell must be positive and finite"),
            (["--mean-counts", "1e30"], "Poisson rate of a 'control' cell out of range"),
            # each rate drawable, but a cell's counts sum past 2**63 - 1
            (["--genes", "1000", "--mean-counts", "1e20"],
             "cell 0 has library size exceeding 2**63 - 1"),
            (["--libsize-sigma", "nan"], "sigmas must be finite and >= 0"),
            (["--effect-sigma", "inf"], "sigmas must be finite and >= 0"),
            (["--genes", "100", "--effect-sigma", "1e300"],
             "Poisson rate of a 'P0000' cell out of range"),
        ],
    )
    def test_counts_out_of_range_is_an_error(self, option, message, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "pdscore", "synth", "counts", "--perturbations", "2",
             "--cells-per-condition", "3", "--genes", "6", *option, "--out", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (1, f"error: {message}\n")
