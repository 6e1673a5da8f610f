"""The benchmark's workloads: inputs, timed jobs and output checks.

Each workload generates its inputs from the seed with the benchmark's own
code, then runs a fixed list of jobs through pdscore's command line
(pdscore.cli.main, in process) or its public library functions. pdscore is
imported only by the jobs, after the inputs are written.

Sizes keep one pass over a workload's jobs at 2 to 3 s on one core, so a
run repeats the pass about ten times and reports medians.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

ALL_METRICS = "l1,l2,cosine,sign-cosine,l2-limit,l1-limit"

# score: the distance kernel and the per-anchor scoring loop, masked and not.
SCORE_N, SCORE_GENES = 120, 2000

# analysis: the scale sweep (52 compute_pds calls), both limit thresholds and
# the Monte Carlo region. Predictions are scaled up so that the l2 threshold
# falls inside the default sweep grid and the limit check has points to test.
ANALYSIS_N, ANALYSIS_GENES, ANALYSIS_SCALE = 110, 1000, 1e6
REGION_SAMPLES = 10000

# ingest: CSV parsing and writing around count preprocessing and synthesis.
INGEST_PERTURBATIONS, INGEST_CELLS, INGEST_GENES = 49, 10, 1000
INGEST_PAIR_N = 250
SYNTH_PAIR_N = 125


class JobFailed(Exception):
    """A job exited nonzero or raised."""


@dataclass(frozen=True)
class Job:
    name: str
    metric: str  # the end-to-end job time this job adds to
    run: Callable[[], None]
    root: str  # root span name when traced


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (work dir, seed) -> context dict with "files"
    jobs: Callable  # context -> list of Job
    check: Callable  # context -> {job name: [failure messages]}


def _out(ctx, job: str) -> Path:
    return ctx["work"] / "out" / job


def cli_job(ctx, name: str, metric: str, argv: list) -> Job:
    """A pdscore command writing into its own output directory."""
    argv = [str(a) for a in [*argv, "--out", _out(ctx, name)]]

    def run():
        from pdscore import cli

        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise JobFailed(f"pdscore {argv[0]} exited {code}: {err.getvalue().strip()}")

    return Job(name, metric, run, "cli.main")


# --- score -------------------------------------------------------------------


def setup_score(work: Path, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    ctx = inputs.write_pair(work, rng, SCORE_N, SCORE_GENES, duplicates=True, zero_row=True)
    ctx.update(work=work, seed=seed)
    return ctx


def jobs_score(ctx) -> list:
    f = ctx["files"]
    pds = ["pds", "--pred", f["pred"], "--truth", f["truth"], "--metric", ALL_METRICS]
    pds += ["--workers", 1]
    return [
        cli_job(ctx, "pds", "pds_s", pds),
        cli_job(ctx, "pds_masked", "pds_masked_s", [*pds, "--mask-target", "--targets", f["targets"]]),
    ]


def check_score(ctx) -> dict:
    rng = np.random.default_rng([ctx["seed"], 1])
    anchors = set(rng.choice(SCORE_N, size=6, replace=False).tolist())
    anchors |= {ctx["zero_index"], *ctx["duplicated"][:2]}
    return {
        job: [
            message
            for kind in ALL_METRICS.split(",")
            for message in checks.pds_report(
                _out(ctx, job) / f"pds_{kind}.json", kind, ctx, masked, sorted(anchors)
            )
        ]
        for job, masked in (("pds", False), ("pds_masked", True))
    }


# --- analysis ----------------------------------------------------------------


def setup_analysis(work: Path, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    ctx = inputs.write_pair(
        work, rng, ANALYSIS_N, ANALYSIS_GENES, duplicates=False, zero_row=False, scale=ANALYSIS_SCALE
    )
    ctx.update(work=work, seed=seed)
    return ctx


def jobs_analysis(ctx) -> list:
    f = ctx["files"]

    def thresholds():
        from pdscore import asymptotics, effects
        from pdscore import io as pio

        predicted = pio.read_effect_matrix(f["pred"])
        truth = pio.read_effect_matrix(f["truth"])
        pair = effects.align_pair(predicted, truth)
        ctx["threshold_l2"] = asymptotics.convergence_threshold_l2(pair)
        ctx["threshold_l1"] = asymptotics.convergence_threshold_l1(pair)

    sweep = ["sweep", "--pred", f["pred"], "--truth", f["truth"], "--metric", "l1,l2"]
    region = ["geometry", "region", "--dims", "2,10,100,1000", "--rho", 0.3, "--kappa", 0.3]
    region += ["--samples", REGION_SAMPLES, "--seed", ctx["seed"]]
    return [
        cli_job(ctx, "sweep", "sweep_s", sweep),
        Job("threshold", "threshold_s", thresholds, "bench.threshold"),
        cli_job(ctx, "region", "region_s", region),
    ]


def check_analysis(ctx) -> dict:
    threshold_l2 = ctx.get("threshold_l2")
    return {
        "sweep": checks.sweep_report(_out(ctx, "sweep") / "sweep.json", threshold_l2, ctx),
        "threshold": checks.thresholds(threshold_l2, ctx.get("threshold_l1")),
        "region": checks.region_report(_out(ctx, "region") / "region.json", REGION_SAMPLES),
    }


# --- ingest ------------------------------------------------------------------


def setup_ingest(work: Path, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    counts = inputs.write_counts(work, rng, INGEST_PERTURBATIONS, INGEST_CELLS, INGEST_GENES)
    ctx = inputs.write_pair(work, rng, INGEST_PAIR_N, INGEST_GENES, duplicates=True, zero_row=False)
    ctx["files"].update(counts.pop("files"))
    ctx.update(counts, work=work, seed=seed)
    return ctx


def jobs_ingest(ctx) -> list:
    f = ctx["files"]
    counts = ["--counts", f["counts"]]
    pair = ["--pred", f["pred"], "--truth", f["truth"]]
    genes_seed = ["--genes", INGEST_GENES, "--seed", ctx["seed"]]
    synth_counts = ["--perturbations", INGEST_PERTURBATIONS, "--cells-per-condition", INGEST_CELLS]
    return [
        cli_job(ctx, "effects", "preprocess_s", ["preprocess", "effects", *counts, "--pipeline", "per10k"]),
        cli_job(ctx, "compare", "preprocess_s", ["preprocess", "compare", *counts]),
        cli_job(
            ctx, "normalize", "preprocess_s", ["preprocess", "normalize", *counts, "--pipeline", "median"]
        ),
        cli_job(ctx, "norm_match", "norm_match_s", ["norm-match", *pair, "--norm", "l2"]),
        cli_job(ctx, "synth_pair", "synth_s", ["synth", "pair", "--n", SYNTH_PAIR_N, *genes_seed]),
        cli_job(ctx, "synth_counts", "synth_s", ["synth", "counts", *synth_counts, *genes_seed]),
    ]


def check_ingest(ctx) -> dict:
    synth_pair = _out(ctx, "synth_pair")
    counts_rows = (INGEST_PERTURBATIONS + 1) * INGEST_CELLS
    return {
        "effects": checks.effects_csv(_out(ctx, "effects") / "effects.csv", ctx),
        "compare": checks.comparison_report(_out(ctx, "compare") / "comparison.json", ctx),
        "normalize": checks.normalized_csv(_out(ctx, "normalize") / "normalized.csv", ctx),
        "norm_match": checks.norm_matched_csv(
            _out(ctx, "norm_match") / "norm_matched_predictions.csv", ctx
        ),
        "synth_pair": checks.csv_shape(synth_pair / "predicted.csv", 1, SYNTH_PAIR_N, INGEST_GENES)
        + checks.csv_shape(synth_pair / "truth.csv", 1, SYNTH_PAIR_N, INGEST_GENES),
        "synth_counts": checks.csv_shape(
            _out(ctx, "synth_counts") / "counts.csv", 2, counts_rows, INGEST_GENES
        ),
    }


WORKLOADS = {
    "score": Workload(setup_score, jobs_score, check_score),
    "analysis": Workload(setup_analysis, jobs_analysis, check_analysis),
    "ingest": Workload(setup_ingest, jobs_ingest, check_ingest),
}
