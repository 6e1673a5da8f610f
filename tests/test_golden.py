"""Golden files: every subcommand must reproduce its reference outputs byte for byte.

The inputs in tests/golden/inputs were made once:
- predicted.csv and truth.csv by `pdscore synth pair --n 12 --genes 30
  --target-cosine 0.6 --scale 0.1 --seed 11`, with every cell of predicted
  row P0004 then set to 0 (an undefined anchor under the cosine kinds);
- counts.csv by `pdscore synth counts --perturbations 3
  --cells-per-condition 4 --genes 30 --mean-counts 300 --seed 5`;
- targets.csv by hand;
- ties_predicted.csv and ties_truth.csv, which hold exact ties, from `pdscore
  synth pair --n 20 --genes 40 --target-cosine 0.6 --scale 0.1 --seed 21`:
  truth row P0005 then repeats P0002's and P0013 repeats P0008's, predicted
  cells drawn with probability 0.25 from numpy.random.default_rng(21) and all
  of row P0017 are set to 0, and P0002's prediction is set to its own truth
  (so it ties at distance 0 with P0005); ties_targets.csv by hand, masking
  the same gene for P0002 and P0005.

Each run in RUNS reads copies of them in a temporary directory and must write
exactly the files under tests/golden/expected/<run>, with the same bytes.
run_config.json records input and output paths, so the temporary directory is
replaced by TMP before it is compared. After an intended format change,
regenerate the expected files with

    PYTHONPATH=src python tests/test_golden.py
"""

import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from pdscore.cli import main

GOLDEN = Path(__file__).parent / "golden"
TMP = "<tmp>"

_PAIR = ["--pred", "{in}/predicted.csv", "--truth", "{in}/truth.csv"]
# Predictions with no zero row, for the norm-matching runs.
_SWAPPED = ["--pred", "{in}/truth.csv", "--truth", "{in}/predicted.csv"]
_MASKED = ["--mask-target", "--targets", "{in}/targets.csv"]
_COUNTS = ["--counts", "{in}/counts.csv"]
_ALL_METRICS = "l1,l2,cosine,sign-cosine,l2-limit,l1-limit"
_TIES = ["--pred", "{in}/ties_predicted.csv", "--truth", "{in}/ties_truth.csv"]
_TIES_MASKED = ["--mask-target", "--targets", "{in}/ties_targets.csv"]

RUNS = {
    "pds_all": ["pds", *_PAIR, "--metric", _ALL_METRICS],
    "pds_all_masked": ["pds", *_PAIR, "--metric", _ALL_METRICS, *_MASKED],
    "ties_pds_all": ["pds", *_TIES, "--metric", _ALL_METRICS],
    "ties_pds_all_masked": ["pds", *_TIES, "--metric", _ALL_METRICS, *_TIES_MASKED],
    "ties_pds_sign_threshold": [
        "pds", *_TIES, "--metric", _ALL_METRICS, *_TIES_MASKED, "--sign-threshold", "0.02",
    ],
    "pds_skip_workers": [
        "pds", *_PAIR, "--metric", "l2,cosine,sign-cosine",
        "--error-policy", "skip", "--workers", "2",
    ],
    "pds_chain": [
        "pds", *_PAIR, "--metric", "l2,cosine", "--transform", "scale:2,sign:0.01",
    ],
    "pds_chain_norm_match": [
        "pds", *_SWAPPED, "--metric", "l1,l2-limit",
        "--transform", "scale:3.14159265358979,norm-match:l1",
    ],
    "pds_csv_only": ["pds", *_PAIR, "--metric", "l1,sign-cosine", "--format", "csv"],
    "pds_default_mask_json": [
        "pds", *_PAIR, "--metric", "sign-cosine", "--mask-target",
        "--sign-threshold", "0.01", "--format", "json",
    ],
    "sweep": ["sweep", *_PAIR, "--metric", "l1,l2", "--grid", "1e-1:1e2:5"],
    "sweep_masked": ["sweep", *_PAIR, "--metric", "l2,cosine", *_MASKED],
    "norm_match_l1": ["norm-match", *_SWAPPED, "--norm", "l1"],
    "norm_match_l2": ["norm-match", *_SWAPPED, "--norm", "l2"],
    "certificate": [
        "geometry", "certificate", "--pred-norm", "1", "--true-norm", "2", "--cosine", "0.6",
    ],
    "region": [
        "geometry", "region", "--dims", "2,8", "--rho", "0.5", "--kappa", "0.4",
        "--samples", "2000", "--seed", "3",
    ],
    "region_l1_csv": [
        "geometry", "region", "--dims", "3", "--rho", "0.3", "--kappa", "0.3",
        "--samples", "500", "--seed", "1", "--metric", "l1", "--format", "csv",
    ],
    "normalize": ["preprocess", "normalize", *_COUNTS, "--pipeline", "median"],
    "effects": ["preprocess", "effects", *_COUNTS, "--pipeline", "per10k"],
    "compare": ["preprocess", "compare", *_COUNTS],
    "compare_csv": [
        "preprocess", "compare", *_COUNTS, "--pipeline-b", "median-nolog",
        "--sign-threshold", "0.05", "--format", "csv",
    ],
    "synth_pair": ["synth", "pair", "--n", "5", "--genes", "8", "--seed", "3"],
    "synth_counts": [
        "synth", "counts", "--perturbations", "2", "--cells-per-condition", "3",
        "--genes", "6", "--mean-counts", "50", "--seed", "4",
    ],
}


def _run(name: str, tmp: Path) -> dict:
    """Run one entry of RUNS under tmp; returns {file name: bytes}, tmp replaced by TMP."""
    inputs = tmp / "in"
    if not inputs.exists():
        shutil.copytree(GOLDEN / "inputs", inputs)
    out = tmp / "out" / name
    argv = [a.replace("{in}", str(inputs)) for a in RUNS[name]] + ["--out", str(out)]
    with redirect_stdout(StringIO()):
        assert main(argv) == 0
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "run_config.json":
            data = data.replace(str(tmp).encode(), TMP.encode())
        files[path.name] = data
    return files


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_are_byte_identical(name, tmp_path):
    expected_dir = GOLDEN / "expected" / name
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    actual = _run(name, tmp_path)
    assert sorted(actual) == sorted(expected)
    for file_name, data in expected.items():
        assert actual[file_name] == data, f"{name}/{file_name} differs from its golden file"


def _regenerate() -> None:
    expected_root = GOLDEN / "expected"
    shutil.rmtree(expected_root, ignore_errors=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RUNS):
            target = expected_root / name
            target.mkdir(parents=True)
            for file_name, data in _run(name, Path(tmp)).items():
                (target / file_name).write_bytes(data)
    print(f"wrote {sum(1 for _ in expected_root.rglob('*.*'))} files under {expected_root}")


if __name__ == "__main__":
    sys.exit(_regenerate())
