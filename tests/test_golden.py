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
The synth pair commands above ran before `synth` summed its norms and dot products
pairwise, so they now write other bytes; the inputs stay as they were made.

Each run in RUNS reads copies of them in a temporary directory and must write
exactly the files under tests/golden/expected/<run>, with the same bytes.
run_config.json records input and output paths, so the temporary directory is
replaced by TMP before it is compared. Each run must also replay: the options
its run_config.json records rebuild a command line that writes the same bytes.
After an intended format change, regenerate the expected files with

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import json
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from pdscore.cli import build_parser, main

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


def _argv(name: str, tmp: Path) -> list:
    """The command line of one entry of RUNS, with its inputs and --out under tmp."""
    out = tmp / "out" / name
    return [a.replace("{in}", str(tmp / "in")) for a in RUNS[name]] + ["--out", str(out)]


def _run(name: str, tmp: Path) -> dict:
    """Run one entry of RUNS under tmp; returns {file name: bytes}, tmp replaced by TMP."""
    inputs = tmp / "in"
    if not inputs.exists():
        shutil.copytree(GOLDEN / "inputs", inputs)
    with redirect_stdout(StringIO()):
        assert main(_argv(name, tmp)) == 0
    return _outputs(tmp / "out" / name, tmp)


def _outputs(out: Path, *roots: Path) -> dict:
    """{file name: bytes} of the files in out, each root replaced by TMP in run_config.json."""
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "run_config.json":
            for root in roots:
                data = data.replace(str(root).encode(), TMP.encode())
        files[path.name] = data
    return files


def _replay_argv(options: dict, out: Path) -> list:
    """The command line that options, as run_config.json records them, came from, with
    out as its --out. Subcommands come from the subparsers' destinations and every other
    option from its flag, as the parser maps destinations to flags; a list is a comma
    separated value, and the grid <first>:<last>:<count>."""
    argv, flags, commands, parser = [], {}, set(), build_parser()
    while parser is not None:
        actions, parser = parser._actions, None
        for action in actions:
            if isinstance(action, argparse._SubParsersAction):
                commands.add(action.dest)
                argv.append(options[action.dest])
                parser = action.choices[options[action.dest]]
            elif action.option_strings:
                flags[action.dest] = action
    assert set(options) <= set(flags) | commands, "an option with no flag cannot be replayed"
    for dest, value in options.items():
        if dest in commands or dest == "out" or value is None or value is False:
            continue
        argv.append(flags[dest].option_strings[0])
        if dest == "grid":
            argv.append(f"{value[0]!r}:{value[-1]!r}:{len(value)}")
        elif isinstance(value, list):
            argv.append(",".join(map(str, value)))
        elif value is not True:
            argv.append(str(value))
    return [*argv, "--out", str(out)]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_are_byte_identical(name, tmp_path):
    expected_dir = GOLDEN / "expected" / name
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    actual = _run(name, tmp_path)
    assert sorted(actual) == sorted(expected)
    for file_name, data in expected.items():
        assert actual[file_name] == data, f"{name}/{file_name} differs from its golden file"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_config_replays_its_run(name, tmp_path):
    """A run's recorded options are its parsed options as they are, and they rebuild its
    command line: run from them alone, with a fresh --out, it writes the same bytes,
    run_config.json included."""
    first = _run(name, tmp_path / "first")
    config = tmp_path / "first" / "out" / name / "run_config.json"
    options = json.loads(config.read_text(encoding="utf-8"))["options"]
    parsed = vars(build_parser().parse_args(_argv(name, tmp_path / "first")))
    assert options == json.loads(json.dumps(parsed))
    out = tmp_path / "again" / "out" / name
    with redirect_stdout(StringIO()):
        assert main(_replay_argv(options, out)) == 0
    assert _outputs(out, tmp_path / "first", tmp_path / "again") == first


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
