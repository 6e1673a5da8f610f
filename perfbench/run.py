"""pdscore benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload score --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports pdscore from its src/.
A run starts CHILDREN fresh child processes (child.py) one after another,
with BLAS pinned to one thread. Each generates the inputs, imports pdscore
and then runs the workload's jobs in a closed loop for its share of
--seconds; the last one also checks the outputs. Spreading the passes over
several processes keeps one process's luck from setting the result, and
gives CHILDREN set-up times to take the median of.

With --trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of the traced passes, which
alternate with untraced ones so the tracing overhead is measured in the
same run. The line before it, and perfbench/results/, hold the per-job
times, error rate, layer shares, input digests and environment.
"""

import argparse
import hashlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARIABLES, "1"))  # before numpy loads, here and in children
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

CHILDREN = 5
DEADLINE_S = 170  # a run ends within this, or is killed and fails


def git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_child(argv, deadline):
    """Run one child; returns (set-up seconds, its ready line) or raises RuntimeError."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = ""
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            if selector.select(max(0.0, deadline - time.monotonic())):
                line = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if not line or proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited {proc.returncode}")
    return setup_s, json.loads(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "pdscore" / "__init__.py").is_file():
        print(f"error: no pdscore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / "_work" / f"{name}-{os.getpid()}"
    spans_path = results / f"{name}.spans.jsonl"
    if args.trace:
        spans_path.write_text("[child, pass, job, span, parent, name, start_s, end_s, info]\n")
    setup_s, input_digests, children = [], [], []
    try:
        for k in range(CHILDREN):
            result_path = work / f"child{k}.json"
            argv = [sys.executable, str(HERE / "child.py"), "--workload", args.workload]
            argv += ["--seed", str(args.seed), "--seconds", str(args.seconds / CHILDREN)]
            argv += ["--trace", str(args.trace), "--child", str(k)]
            argv += ["--work", str(work), "--result", str(result_path)]
            argv += ["--spans", str(spans_path)] if args.trace else []
            argv += ["--check"] if k == CHILDREN - 1 else []
            seconds, digests = run_child(argv, deadline)
            setup_s.append(seconds)
            input_digests.append(digests)
            with open(result_path) as fh:
                children.append(json.load(fh))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = summarize(args, children, setup_s, input_digests)
    with open(results / f"{name}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report["detail"]))
    print(json.dumps(report["final"]))
    return 0


def summarize(args, children, setup_s, input_digests) -> dict:
    passes = [p for child in children for p in child["passes"]]
    metric_of = children[-1]["metric_of"]
    checks = children[-1]["checks"]
    failures = [f for p in passes for f in p["failures"]]
    failed = len(failures) + sum(1 for messages in checks.values() if messages)
    failures += [m for messages in checks.values() for m in messages]
    attempted = len(passes) * len(metric_of)
    if any(d != input_digests[0] for d in input_digests):
        failures.append("inputs differ between set-ups with one seed")
    if len({d for child in children for d in child["output_digests"]}) != 1:
        failures.append("outputs differ between passes")

    def job_medians(traced):
        runs = [p["jobs"] for p in passes if p["traced"] == traced]
        return {job: statistics.median(r[job] for r in runs) for job in metric_of}

    untraced = job_medians(False)
    jobs = dict.fromkeys(metric_of.values(), 0.0)
    for job, t in untraced.items():
        jobs[metric_of[job]] += t
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layers = {key: statistics.median(p["layers"][key] for p in traced) for key in traced[0]["layers"]}
        layers["proc.cpu_s"] = statistics.median(p["cpu_s"] for p in traced)
        layers["trace.overhead_s"] = sum(job_medians(True).values()) - sum(untraced.values())
        metrics = {key: {"value": value, "unit": unit_of(key)} for key, value in layers.items()}
        shares = {
            job: {name: statistics.median(p["shares"][job].get(name, 0.0) for p in traced) for name in names}
            for job, names in traced[0]["shares"].items()
        }
    else:
        metrics = {
            "wall_s": {"value": sum(untraced.values()), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in children), "unit": "MB"},
        }
        shares = None
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "jobs": {k: {"value": v, "unit": "s"} for k, v in jobs.items()},
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "failures": failures,
        "limit_points_checked": children[-1]["limit_points_checked"],
        "layer_shares": shares,
        "input_sha256": input_digests[0],
    }
    final = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    environment = dict(children[-1]["environment"], git_commit=git_commit(), src_sha256=src_digest())
    return {
        "detail": detail,
        "final": final,
        "setup_s": setup_s,
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
        "environment": environment,
        "passes": passes,
    }


def unit_of(key: str) -> str:
    if key.endswith("per_s"):
        return "1/s"
    if key.endswith("_s") or ".pairwise_s." in key:
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key == "metrics.bytes_computed":
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
