import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdscore import METRIC_TOKENS, EffectMatrix, __version__
from pdscore import cli
from pdscore import io as pio
from pdscore.cli import build_parser, main
from pdscore.errors import ValidationError

from helpers import COUNT_CELLS, FLOAT_CELLS, matrix_csvs


def _run(*argv, cwd=None):
    """pdscore run as `python -m pdscore argv` in a fresh process, so warnings reach stderr."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "pdscore", *map(str, argv)], cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )


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

    def test_targets_file_is_a_recorded_input(self, pair_files, tmp_path):
        pred, truth = pair_files
        targets = tmp_path / "targets.csv"
        targets.write_text("P0000,G0003\n")
        out = tmp_path / "pds_t"
        code = main(
            [
                "pds", "--pred", str(pred), "--truth", str(truth), "--metric", "l1",
                "--mask-target", "--targets", str(targets), "--out", str(out),
            ]
        )
        assert code == 0
        config = json.loads((out / "run_config.json").read_text())
        assert list(config["input_digests"]) == [str(pred), str(truth), str(targets)]

    def test_byte_order_mark_in_target_map_is_ignored(self, pair_files, tmp_path):
        """A headerless map saved with a UTF-8 byte-order mark still masks its first
        perturbation: the report equals the one from the same map without the mark."""
        pred, truth = pair_files
        reports = []
        for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            targets = tmp_path / f"{name}.csv"
            targets.write_bytes(mark + b"P0000,G0003\nP0001,G0001\n")
            out = tmp_path / name
            code = main(
                [
                    "pds", "--pred", str(pred), "--truth", str(truth),
                    "--metric", "l1", "--mask-target", "--targets", str(targets),
                    "--out", str(out),
                ]
            )
            assert code == 0
            reports.append((out / "pds_l1.csv").read_bytes())
        assert reports[0] == reports[1]

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

    @pytest.mark.parametrize("option", ["--pred", "--targets"])
    def test_an_empty_file_name_is_an_io_error(self, pair_files, tmp_path, option, capsys):
        """--targets "" names no file, as --pred "" does; it does not select the default map."""
        pred, truth = pair_files
        argv = ["pds", "--pred", str(pred), "--truth", str(truth), "--mask-target", option, ""]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert not (tmp_path / "o").exists()

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
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c", "metric", "mean_pds"]
        assert len(rows) == 1 + 2 * 5
        payload = json.loads((out / "sweep.json").read_text())
        assert set(payload["limit_mean_pds"]) == {"l1", "l2"}
        assert "limit_mean_pds" in capsys.readouterr().out.replace("=", "_") or True

    def test_bad_grid_exits_2(self, pair_files):
        pred, truth = pair_files
        for grid in ("5:1:3", "nan:1e4:25", "1e-2:inf:25", "1:2"):
            assert main(
                ["sweep", "--pred", str(pred), "--truth", str(truth), "--grid", grid]
            ) == 2, grid

    @pytest.mark.parametrize(
        "command, option, text",
        [("pds", "--metric", "l2"), ("sweep", "--metric", "l2"), ("pds", "--format", "json")],
    )
    def test_repeated_token_exits_2(self, pair_files, tmp_path, capsys, command, option, text):
        pred, truth = pair_files
        out = tmp_path / command
        code = main(
            [
                command, "--pred", str(pred), "--truth", str(truth),
                option, f"{text},{text}", "--out", str(out),
            ]
        )
        assert code == 2
        assert f"{option[2:]} {text!r} given more than once" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "command", [["sweep", "--grid", "1:1e10:2"], ["pds", "--transform", "scale:1e10"]]
    )
    def test_scale_overflow_is_one_error_line(self, command, tmp_path):
        """No numpy warning reaches stderr, and the error names the scale and the row."""
        ids, genes = ("P0000", "P0001", "P0002"), ("G0000", "G0001")
        values = [[1.0, 2.0], [1e300, -3e299], [0.5, 1.0]], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        for name, rows in zip(("pred", "truth"), values):
            matrix = EffectMatrix(np.array(rows), ids, genes)
            pio.write_effect_matrix(matrix, tmp_path / f"{name}.csv")
        done = _run(
            *command, "--pred", tmp_path / "pred.csv", "--truth", tmp_path / "truth.csv",
            "--out", tmp_path / "out",
        )
        assert done.returncode == 1
        message = "scale factor 1e+10 overflows the predicted effects of 'P0001'"
        assert done.stderr == f"error: {message}\n"
        assert not (tmp_path / "out" / "run_config.json").exists()


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


    @pytest.mark.parametrize(
        "option", [["--mask-target"], ["--sign-threshold", "0.5"], ["--targets", "t.csv"]]
    )
    def test_scoring_options_exit_2(self, pair_files, tmp_path, option, capsys):
        pred, truth = pair_files
        argv = ["norm-match", "--pred", str(pred), "--truth", str(truth), "--norm", "l2"]
        assert main([*argv, *option, "--out", str(tmp_path / "nm")]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "nm").exists()


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
        with (out / "region.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["d", "rho", "kappa", "fraction", "stderr"]
        assert len(rows) == 3

    @pytest.mark.parametrize("metric, rho", [("l1", "1e308"), ("l2", "1e200"), ("l2", "1e308")])
    def test_region_at_huge_rho_warns_nothing(self, metric, rho, tmp_path):
        """A distractor of norm rho >= 1e200 is farther than the truth (at most 1 + sqrt 2)
        whichever way it points, so it never wins, and an overflow on the way says nothing."""
        done = _run(
            "geometry", "region", "--dims", "2,8", "--rho", rho, "--kappa", "0.4",
            "--samples", "500", "--seed", "3", "--metric", metric, "--out", tmp_path,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.count("fraction=0.000000 stderr=0.000000") == 2

    @pytest.mark.parametrize("option, value", [("--dims", ""), ("--samples", "0")])
    def test_region_bad_count_exits_2(self, tmp_path, capsys, option, value):
        out = tmp_path / "region"
        argv = ["geometry", "region", "--dims", "2", "--rho", "0.5", "--kappa", "0.4"]
        assert main([*argv, option, value, "--out", str(out)]) == 2
        assert option in capsys.readouterr().err
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
        with (out_c / "comparison.csv").open() as fh:
            rows = list(csv.reader(fh))
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
        # run_config.json is written only once the command has succeeded.
        assert not (out / "run_config.json").exists()

    def test_failed_synthesis_leaves_no_run_config(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = main(
            ["synth", "pair", "--n", "5", "--genes", "10", "--norm-sigma", "nan", "--out", str(out)]
        )
        assert code == 1
        assert "norm_sigma must be finite" in capsys.readouterr().err
        assert not out.exists()

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
        with (out / "comparison.csv").open() as fh:
            rows = list(csv.DictReader(fh))
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

    @pytest.mark.parametrize(
        "command",
        [
            ["geometry", "region", "--dims", "2", "--rho", "0.5", "--kappa", "0.4"],
            ["synth", "pair"],
            ["synth", "counts"],
        ],
    )
    def test_negative_seed_exits_2(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*command, "--seed", "-1", "--out", str(out)]) == 2
        assert "--seed: must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

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
        done = _run(
            "synth", "counts", "--perturbations", "2", "--cells-per-condition", "3",
            "--genes", "6", *option, "--out", tmp_path,
        )
        assert (done.returncode, done.stderr) == (1, f"error: {message}\n")


def test_import_loads_no_thread_pool_or_logging():
    """One-worker runs need neither, and only synthesis draws random numbers, so importing
    pdscore loads none of them."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; import pdscore, pdscore.cli, pdscore.io; "
        "print(*sorted({'concurrent.futures', 'logging', 'numpy.random'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


@pytest.mark.parametrize(
    "command",
    [["normalize", "--pipeline", "median"], ["compare"]],
    ids=["normalize-median", "compare"],
)
def test_median_pipelines_load_no_masked_arrays(command, counts_file, tmp_path):
    """The median library size and the median cosine are taken without np.median, whose
    first call imports numpy.ma."""
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["preprocess", *command, "--counts", str(counts_file), "--out", str(tmp_path / "o")]
    code = (
        "import sys; from pdscore.cli import main; code = main(sys.argv[1:]); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize(
    "bad, command, where",
    [
        (b"perturbation,G1,G2\nA,1,2\nB,\xff\xfe,3\n",
         ["pds", "--pred", "bad.csv", "--truth", "good.csv"], "line 3, column 2"),
        (b"cell,condition,G1,G2\nc1,control,1,2\nc2,A,\xff\xfe,3\n",
         ["preprocess", "effects", "--counts", "bad.csv"], "line 3, column 3"),
        (b"perturbation,target\nB,\xff\xfe\n",
         ["pds", "--pred", "good.csv", "--truth", "good.csv", "--targets", "bad.csv",
          "--mask-target"], "line 2, column 2"),
    ],
    ids=["effects", "counts", "targets"],
)
def test_bytes_that_are_not_utf8_are_one_error_line(bad, command, where, tmp_path):
    """An effect, count or target CSV with bytes that do not decode fails at their cell."""
    (tmp_path / "bad.csv").write_bytes(bad)
    (tmp_path / "good.csv").write_text("perturbation,G1,G2\nA,1,2\nB,4,3\n", encoding="utf-8")
    done = _run(*command, "--out", "out", cwd=tmp_path)
    message = f"{where}: not UTF-8 text: b'\\xff\\xfe'"
    assert (done.returncode, done.stderr) == (1, f"error: {message}\n")
    assert not (tmp_path / "out" / "run_config.json").exists()


ZERO_PRED = "perturbation,g1,g2\nA,0,0\nB,0,0\nC,0,0\n"
TRUTH = "perturbation,g1,g2\nA,1,2\nB,3,1\nC,0,1\n"
REGION = ["geometry", "region", "--rho", "0.5", "--kappa", "0.4"]


@pytest.mark.parametrize("existed", [False, True])
@pytest.mark.parametrize(
    "command, message",
    [
        (["pds", "--pred", "zero.csv", "--truth", "truth.csv", "--metric", "l1,cosine",
          "--error-policy", "skip"], "every anchor failed; nothing to average"),
        (["geometry", "region", "--dims", "2", "--rho", "0", "--kappa", "0.4"],
         "norm_ratio must be positive"),
        (["synth", "counts", "--mean-counts", "nan"],
         "mean_counts_per_cell must be positive and finite"),
        (["synth", "pair", "--target-cosine", "2"], "target_cosine must lie in [0, 1]"),
        # sizes numpy refuses at once, without touching memory
        (["sweep", "--pred", "truth.csv", "--truth", "truth.csv", "--grid", "1:2:10000000000000"],
         "Unable to allocate"),
        ([*REGION, "--dims", "100000000000000", "--samples", "1"], "Unable to allocate"),
    ],
    ids=["pds-skip", "region-rho", "counts-mean", "pair-cosine", "sweep-grid", "region-memory"],
)
def test_a_failed_command_writes_nothing(command, message, existed, tmp_path, monkeypatch, capsys):
    """One error line and exit 1; an --out the run made is gone, and one it found is empty."""
    monkeypatch.chdir(tmp_path)
    Path("zero.csv").write_text(ZERO_PRED, encoding="utf-8")
    Path("truth.csv").write_text(TRUTH, encoding="utf-8")
    out = tmp_path / "out" / "sub"
    if existed:
        out.mkdir(parents=True)
    code = main([*command, "--out", "out/sub"])
    done = capsys.readouterr()
    assert code == 1
    assert done.err.startswith("error: ") and done.err.count("\n") == 1 and message in done.err
    assert "mean_pds" not in done.out  # no metric reports a score before another fails
    if existed:
        assert list(out.iterdir()) == []
    else:
        assert not (tmp_path / "out").exists()


PAIR = ["--pred", "truth.csv", "--truth", "truth.csv"]


@pytest.mark.parametrize("existed", [False, True])
@pytest.mark.parametrize(
    "command, message",
    [
        ([*REGION, "--dims", "2,1"], "--dims: must each be at least 2, got 1"),
        (["synth", "pair", "--n", "1"], "--n: must be at least 2, got 1"),
        (["synth", "pair", "--genes", "0"], "--genes: must be at least 2, got 0"),
        (["synth", "counts", "--genes", "1"], "--genes: must be at least 2, got 1"),
        (["synth", "counts", "--perturbations", "0"], "--perturbations: must be at least 1, got 0"),
        (["synth", "counts", "--cells-per-condition", "-1"],
         "--cells-per-condition: must be at least 1, got -1"),
        (["pds", *PAIR, "--metric", ","], "--metric: no metrics given; choose from: l1, l2"),
        (["pds", *PAIR, "--workers", "x"], "--workers: expected an integer, got 'x'"),
        (["sweep", *PAIR, "--grid", "1:2"], "--grid: grid must be <lo>:<hi>:<n>"),
        (["sweep", *PAIR, "--grid", "a:2:3"], "--grid: grid must be <lo>:<hi>:<n>"),
        ([*REGION, "--dims", "2,x"], "--dims: expected a comma-separated list of integers"),
        (["pds", *PAIR, "--transform", "bogus"], "--transform: unknown transform 'bogus'"),
        (["pds", *PAIR, "--targets", "truth.csv"], "--targets: not allowed without --mask-target"),
        (["sweep", *PAIR, "--targets", ""], "--targets: not allowed without --mask-target"),
        (["pds", *PAIR, "--metric", "l1,cosine,l2-limit", "--sign-threshold", "0.5"],
         "--sign-threshold: read only by sign-cosine and l1-limit"),
        (["sweep", *PAIR, "--sign-threshold", "1e-300"],
         "--sign-threshold: read only by sign-cosine and l1-limit"),
    ],
    ids=["region-dims", "pair-n", "pair-genes", "counts-genes", "counts-perturbations",
         "counts-cells", "no-metric", "workers", "grid-parts", "grid-number", "dims-number",
         "transform", "pds-targets", "sweep-targets", "pds-threshold", "sweep-threshold"],
)
def test_a_usage_error_writes_nothing(command, message, existed, tmp_path, monkeypatch, capsys):
    """A value below its option's floor, one its option cannot read, or an option that
    would change no report is one usage line and exit 2, before any --out is made; one it
    found stays empty."""
    monkeypatch.chdir(tmp_path)
    Path("truth.csv").write_text(TRUTH, encoding="utf-8")
    out = tmp_path / "out" / "sub"
    if existed:
        out.mkdir(parents=True)
    assert main([*command, "--out", "out/sub"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pdscore ") and err.count("\n") == 1 and f"argument {message}" in err
    if existed:
        assert list(out.iterdir()) == []
    else:
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, code, message",
    [
        (["geometry", "certificate", "--pred-norm", "1", "--true-norm", "1", "--cosine", "-1e-3"],
         0, ""),
        ([*REGION[:-2], "--dims", "2", "--kappa", "-inf"], 1,
         "error: true_cosine must lie in [-1, 1], got -inf\n"),
        (["pds", *PAIR, "--sign-threshold", "-1e-3"], 1,
         "error: sign threshold must be finite and >= 0\n"),
    ],
    ids=["cosine", "kappa", "sign-threshold"],
)
def test_a_negative_number_in_exponent_form_is_a_value(
    command, code, message, tmp_path, monkeypatch, capsys
):
    """-1e-3 or -inf as its own argument is the option's value, not another option."""
    monkeypatch.chdir(tmp_path)
    Path("truth.csv").write_text(TRUTH, encoding="utf-8")
    assert main([*command, "--out", "out"]) == code
    assert capsys.readouterr().err == message


def test_a_failed_run_keeps_what_others_wrote_beside_its_out(tmp_path, monkeypatch, capsys):
    """A parent the run made but another run wrote into stays, with what was written."""
    def fails(args, out, meta):
        (out.parent / "other").mkdir()
        (out.parent / "other" / "report.json").write_text("{}", encoding="utf-8")
        (out / "part.json").write_text("{}", encoding="utf-8")
        raise ValidationError("late failure")

    monkeypatch.setattr("pdscore.cli._cmd_geometry_certificate", fails)
    monkeypatch.chdir(tmp_path)
    argv = ["geometry", "certificate", "--pred-norm", "1", "--true-norm", "1", "--cosine", "0.5"]
    assert main([*argv, "--out", "results/a/b"]) == 1
    assert capsys.readouterr().err == "error: late failure\n"
    assert not (tmp_path / "results" / "a" / "b").exists()
    assert (tmp_path / "results" / "a" / "other" / "report.json").read_text() == "{}"


@pytest.mark.parametrize("out", ["loop/x", "a" * 300 + "/x"], ids=["symlink-loop", "too-long"])
def test_an_out_that_cannot_be_made_is_one_error_line(out, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    os.symlink("loop", "loop")
    argv = ["geometry", "certificate", "--pred-norm", "1", "--true-norm", "1", "--cosine", "0.5"]
    assert main([*argv, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["loop"]


def _commands(parser, words=()):
    """(words, parser) of each command that runs, such as (("synth", "pair"), its parser)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, (*words, name))
            return
    yield words, parser


@pytest.mark.parametrize("words", [w for w, _ in _commands(build_parser())], ids=" ".join)
def test_every_command_has_a_handler_and_help(words, capsys):
    """main runs _cmd_<command path>, such as _cmd_norm_match for `norm-match`; help
    renders too, though argparse %-formats each help string."""
    assert callable(getattr(cli, "_cmd_" + "_".join(words).replace("-", "_"), None))
    assert main([*words, "-h"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: pdscore {' '.join(words)} ")


def _joined(tokens, most=3):
    return st.lists(st.sampled_from(tokens), min_size=1, max_size=most, unique=True).map(",".join)


SIZE = st.integers(-1, 64).map(str)  # every count, dimension, sample and grid size
SIZED = ("n", "genes", "perturbations", "cells_per_condition", "samples")  # defaults run long
NUMBER = st.one_of(
    st.floats(-3.0, 3.0).map(repr),
    st.sampled_from(["0", "-1", "-1e-3", "-2.5E+1", "1e-300", "1e300", "nan", "inf", "-inf", "x",
                     ""]),
)
FILES = ["pred.csv", "truth.csv", "counts.csv", "targets.csv", "raw.bin", "missing.csv"]
PIPELINE = st.sampled_from(["per10k", "median", "median-nolog", "log"])
# Values of each option without choices, by its dest; a new option with no entry fails.
VALUES = {
    **{name: st.sampled_from([f"{name}.csv"] * 30 + FILES) for name in ("pred", "truth", "counts",
                                                                       "targets")},
    "out": st.sampled_from(["out", "out", "out/sub", "existing", "pred.csv"]),
    "metric": _joined([*METRIC_TOKENS, "l3"]),
    "format": st.sampled_from(["json", "csv", "json,csv", "csv,json", "json,json", "xml"]),
    "transform": _joined(["scale:2", "scale:0.5", "norm-match:l1", "norm-match:l2", "sign:0.5",
                          "scale:1e10", "scale:0", "sign:-1", "shift:1"], 2),
    "grid": st.one_of(st.just("0.5:2:3"), st.tuples(NUMBER, NUMBER, SIZE).map(":".join)),
    "dims": _joined([str(d) for d in range(-1, 65)] + ["x"]),
    "workers": st.integers(0, 4).map(str),
    "seed": st.integers(-1, 2**64).map(str),
    "pipeline": PIPELINE, "pipeline_a": PIPELINE, "pipeline_b": PIPELINE,
    **dict.fromkeys(SIZED, SIZE),
    **dict.fromkeys(
        ["sign_threshold", "pred_norm", "true_norm", "cosine", "rho", "kappa", "target_cosine",
         "norm_mu", "norm_sigma", "scale", "mean_counts", "libsize_sigma", "effect_fraction",
         "effect_sigma"],
        NUMBER,
    ),
}
# Files that read: four perturbations, or six cells with three controls, of three genes.
ROW = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3).map(lambda v: ",".join(map(repr, v)))
EFFECTS = st.lists(ROW, min_size=4, max_size=4).map(
    lambda rows: "perturbation,g1,g2,g3\n" + "".join(f"{a},{r}\n" for a, r in zip("ABCD", rows))
)
COUNTS = st.lists(st.integers(0, 9), min_size=18, max_size=18).map(
    lambda v: "cell,condition,g1,g2,g3\n" + "".join(
        f"c{i},{'control' if i % 2 else 'A'},{v[3 * i]},{v[3 * i + 1]},{v[3 * i + 2]}\n"
        for i in range(6)
    )
)
TARGETS = st.lists(
    st.tuples(st.sampled_from("ABCX"), st.sampled_from(["g1", "g2", "g9", ""])), max_size=4
).map(lambda rows: "perturbation,target\n" + "".join(f"{a},{b}\n" for a, b in rows))


@st.composite
def cli_runs(draw):
    """(files, argv): input files by name and the arguments of one command, drawn from the
    parser's own options, given or left out, with values in and out of range."""
    words, parser = draw(st.sampled_from(list(_commands(build_parser()))))
    argv = list(words)
    for action in parser._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if action.required or action.dest in SIZED or draw(st.integers(0, 2)) == 0:
            option = action.option_strings[0]
            if action.nargs == 0:  # a flag
                argv.append(option)
            else:
                values = VALUES[action.dest] if action.choices is None else st.sampled_from(
                    [*action.choices] * 3 + ["x"])
                value = draw(values)  # as --name=value, or as --name value, such as -1e-3
                argv += draw(st.sampled_from([[f"{option}={value}"], [option, value]]))
    effects = st.one_of(*[EFFECTS] * 3, matrix_csvs(["perturbation"], FLOAT_CELLS))
    counts = st.one_of(COUNTS, matrix_csvs(["cell", "condition"], COUNT_CELLS))
    texts = {"pred.csv": effects, "truth.csv": effects, "counts.csv": counts, "targets.csv": TARGETS}
    files = {name: draw(text).encode() for name, text in texts.items()}
    return {**files, "raw.bin": draw(st.binary(max_size=16))}, argv


@contextlib.contextmanager
def _inside(directory):
    """Run in directory and return to the working directory after."""
    before = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(before)


@settings(max_examples=300, deadline=None)
@given(cli_runs())
@example(({"pred.csv": ZERO_PRED.encode(), "truth.csv": TRUTH.encode()},
          ["pds", "--pred", "pred.csv", "--truth", "truth.csv", "--metric", "l1,cosine",
           "--error-policy", "skip", "--out=out"]))
@example(({"pred.csv": TRUTH.encode(), "truth.csv": TRUTH.encode()},
          ["sweep", "--pred", "pred.csv", "--truth", "truth.csv", "--grid", "1:2:10000000000000",
           "--out=out"]))
@example(({}, [*REGION, "--dims", "100000000000000", "--samples", "1", "--out=out"]))
def test_every_run_ends_in_at_most_one_line(case):
    """Exit code 0, 1 or 2, at most one line on stderr and no exception; a failed run
    writes nothing: no run_config.json, no --out it made, nothing in one it found."""
    files, argv = case
    with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
        for name, data in files.items():
            Path(name).write_bytes(data)
        Path("existing").mkdir()
        given = [a[6:] for a in argv if a.startswith("--out=")]
        given += [b for a, b in zip(argv, argv[1:]) if a == "--out"]
        out = Path(given[0] if given else ".")
        made = [d for d in (out, *out.parents) if not d.exists()]
        before = sorted(os.listdir(out)) if out.is_dir() else None
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 1, 2), argv
        assert err == "" or (err.count("\n") == 1 and err.endswith("\n")), (argv, err)
        assert (code == 0) == (out / "run_config.json").is_file(), argv
        if code:
            assert not any(d.exists() for d in made), argv
            assert (sorted(os.listdir(out)) if out.is_dir() else None) == before, argv
