"""One child process of a benchmark run.

Generates the workload's inputs, imports pdscore from the checkout's src/,
and prints one line (the input digests) to say set-up is done. It then runs
the workload's jobs back to back (a closed loop, one job at a time) for
--seconds, with --check checks the outputs of its last pass, and writes
what it measured to --result as JSON. run.py starts it with the BLAS thread
variables already set to 1, so they hold before numpy is imported.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# From here on read no bytecode cache and write none, so every set-up compiles
# the benchmark and pdscore alike, whether or not the checkout holds
# __pycache__ directories.
sys.dont_write_bytecode = True
sys.pycache_prefix = str(Path(__file__).resolve().parent / "_work" / "no-bytecode")

import inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_pdscore():
    sys.path.insert(0, str(ROOT / "src"))
    import pdscore

    if Path(pdscore.__file__).resolve().parent != ROOT / "src" / "pdscore":
        raise ImportError(f"pdscore imported from {pdscore.__file__}, not from {ROOT / 'src'}")
    # The tracer patches names in these modules, so load them all up front.
    import pdscore.cli  # noqa: F401
    import pdscore.io  # noqa: F401


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def output_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode())
        digest.update(inputs.sha256_file(path).encode())
    return digest.hexdigest()


def cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def run_pass(jobs, tracer) -> dict:
    times, failures = {}, []
    cpu0 = cpu_s()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                job.run()
            else:
                with tracer.job(job.name, job.root):
                    job.run()
        except Exception as exc:  # a failed job is counted and the loop goes on
            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
        times[job.name] = time.perf_counter() - t0
    return {"traced": tracer is not None, "jobs": times, "cpu_s": cpu_s() - cpu0, "failures": failures}


def run_loop(workload, ctx, args) -> dict:
    jobs = workload.jobs(ctx)
    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics, layer_shares

        tracer = Tracer()
    passes, digests, spans = [], [], []
    start = time.perf_counter()
    while True:
        # Traced and untraced passes alternate; every other child starts traced, so
        # a first pass's warm-up falls on either side equally often.
        traced = bool(args.trace) and (len(passes) + args.child) % 2 == 1
        if traced:
            tracer.spans = []
            tracer.install()
        try:
            record = run_pass(jobs, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            record["layers"] = layer_metrics(tracer.spans)
            record["shares"] = layer_shares(tracer.spans)
            spans.extend([args.child, len(passes), *s] for s in tracer.spans)
        passes.append(record)
        digests.append(output_digest(ctx["work"] / "out"))
        elapsed = time.perf_counter() - start
        typical = statistics.median(sum(p["jobs"].values()) for p in passes)
        if len(passes) >= 1 + args.trace and elapsed + typical / 2 > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.spans is not None:
        with open(args.spans, "a") as fh:  # children run one after another
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    return {
        "passes": passes,
        "metric_of": {job.name: job.metric for job in jobs},
        "output_digests": sorted(set(digests)),
        "peak_rss_mb": peak_rss_mb,
        "checks": workload.check(ctx) if args.check else {},
        "limit_points_checked": ctx.get("limit_points_checked"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--child", type=int, default=0, help="index of this child in its run")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    ctx = workload.setup(work, args.seed)
    digests = {name: inputs.sha256_file(path) for name, path in sorted(ctx["files"].items())}
    import_pdscore()
    print(json.dumps(digests), flush=True)

    result = run_loop(workload, ctx, args)
    result["environment"] = environment()
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
