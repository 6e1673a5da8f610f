"""The benchmark's tracer must find every pdscore function it wraps.

perfbench/tracing.py times pdscore by replacing the functions listed in its
WRAPPED table, looked up by name in each pdscore module. A rename or fold
that drops one of them would break `perfbench/run.py --trace 1`, so this
test loads the tracer by path, without changing it, and checks the table
against the library, then runs one command under the tracer.
"""

import importlib
import importlib.util
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from pdscore.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_pdscore_function(tracing):
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"pdscore.{layer}"), name, None))
    ]
    assert missing == []


def test_command_line_calls_are_seen_by_the_tracer(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.job("pds", "cli.main"), redirect_stdout(StringIO()):
            code = main(
                [
                    "pds", "--pred", str(GOLDEN_INPUTS / "predicted.csv"),
                    "--truth", str(GOLDEN_INPUTS / "truth.csv"), "--metric", "l2",
                    "--out", str(tmp_path),
                ]
            )
    finally:
        tracer.uninstall()
    assert code == 0
    seen = {span[3] for span in tracer.spans}
    assert {
        "io.sha256_file",
        "io.read_effect_matrix",
        "io.pds_report_payload",
        "io.write_json",
        "io.write_pds_report_csv",
        "effects.align_pair",
        "discrimination.compute_pds",
    } <= seen
