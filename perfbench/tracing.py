"""Spans around pdscore's public functions, recorded from the benchmark's side.

Tracer.install() replaces each wrapped function by a timing wrapper in every
loaded pdscore module that holds it, so calls through names imported with
`from .discrimination import compute_pds` are seen as well as calls through
the defining module. uninstall() puts the originals back. Spans stay in
memory, each tagged with its job and parent span, and are written out when
the run ends. Single-threaded: the benchmark runs pdscore with one worker.
"""

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Public functions timed per module (a layer is one pdscore module).
WRAPPED = {
    "io": (
        "read_effect_matrix",
        "read_count_matrix",
        "read_target_map",
        "write_effect_matrix",
        "write_count_matrix",
        "write_normalized_matrix",
        "write_json",
        "write_pds_report_csv",
        "write_sweep_csv",
        "write_comparison_csv",
        "write_region_csv",
        "pds_report_payload",
        "sweep_payload",
        "comparison_payload",
        "region_payload",
        "sha256_file",
    ),
    "effects": ("align_pair",),
    "transforms": ("apply_chain", "global_scale"),
    "metrics": ("pairwise_to_rows",),
    "discrimination": ("compute_pds", "pds_row"),
    "asymptotics": ("scale_sweep", "convergence_threshold_l2", "convergence_threshold_l1"),
    "geometry": ("region_fraction",),
    "preprocessing": ("normalize", "mean_effects", "compare_pipelines"),
    "synth": ("generate", "generate_counts"),
}

DISTANCE_KINDS = ("l1", "l2", "cosine", "sign-cosine", "l2-limit", "l1-limit")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


# What each span records besides its times: f(args, kwargs, result) -> dict.
# result is None when the call raised.
def _describe_pairwise(args, kwargs, result):
    a = np.asarray(_arg(args, kwargs, 1, "a"))
    rows = np.asarray(_arg(args, kwargs, 2, "rows"))
    moved = a.nbytes + rows.nbytes + (0 if result is None else result.nbytes)
    return {"kind": _arg(args, kwargs, 0, "spec").kind.value, "bytes": moved}


def _describe_pds_row(args, kwargs, result):
    d = np.asarray(_arg(args, kwargs, 0, "distances"))
    i = int(_arg(args, kwargs, 1, "true_index"))
    return {"tied": bool(result is not None and (d == d[i]).sum() > 1)}


def _describe_report(args, kwargs, result):
    if result is None:
        return {}
    undefined = sum(e.error is not None for e in result.per_perturbation)
    return {"anchors": result.n_perturbations, "undefined": undefined}


def _describe_read(args, kwargs, result):
    return {"mb": _file_mb(args[0])} if result is not None else {}


def _describe_write(args, kwargs, result):
    return {"mb": _file_mb(result)} if result is not None else {}


def _describe_region(args, kwargs, result):
    return {"samples": result.samples} if result is not None else {}


DESCRIBE = {
    "metrics.pairwise_to_rows": _describe_pairwise,
    "discrimination.pds_row": _describe_pds_row,
    "discrimination.compute_pds": _describe_report,
    "geometry.region_fraction": _describe_region,
    **{f"io.{n}": _describe_read for n in WRAPPED["io"] if n.startswith("read_")},
    **{f"io.{n}": _describe_write for n in WRAPPED["io"] if n.startswith("write_")},
}


class Tracer:
    def __init__(self):
        self.spans = []  # [job, span id, parent id, name, start, end, info]
        self._stack = []
        self._job = None
        self._patched = []  # (module, attribute, original)

    def install(self) -> None:
        for layer, names in WRAPPED.items():
            home = sys.modules[f"pdscore.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module_name, module in list(sys.modules.items()):
                    if module_name != "pdscore" and not module_name.startswith("pdscore."):
                        continue
                    for attribute, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attribute, wrapper)
                            self._patched.append((module, attribute, original))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched.clear()

    def _open(self, name):
        parent = self._stack[-1][1] if self._stack else None
        span = [self._job, len(self.spans), parent, name, time.perf_counter(), None, {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span[5] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        describe = DESCRIBE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(span)
                if describe is not None:
                    span[6] = describe(args, kwargs, result)

        return wrapper

    @contextmanager
    def job(self, job, root):
        """Root span of one job; everything pdscore does inside it is its child."""
        self._job = job
        span = self._open(root)
        try:
            yield
        finally:
            self._close(span)
            self._job = None


def self_times(spans):
    """Span duration minus the time its direct children cover, per span id."""
    own = {s[1]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[2] is not None:
            own[s[2]] -= s[5] - s[4]
    return own


# Self time of these spans is summed into one per-layer metric each.
TIME_METRICS = {
    "discrimination.compute_pds": "discrimination.compute_pds_self_s",
    "discrimination.pds_row": "discrimination.pds_row_s",
    "asymptotics.scale_sweep": "asymptotics.scale_sweep_self_s",
    "asymptotics.convergence_threshold_l2": "asymptotics.threshold_l2_s",
    "asymptotics.convergence_threshold_l1": "asymptotics.threshold_l1_s",
    "geometry.region_fraction": "geometry.region_s",
    "io.sha256_file": "io.hash_s",
    "preprocessing.normalize": "preprocessing.normalize_s",
    "preprocessing.mean_effects": "preprocessing.mean_effects_s",
    "preprocessing.compare_pipelines": "preprocessing.compare_s",
    "synth.generate": "synth.generate_s",
    "synth.generate_counts": "synth.generate_counts_s",
    "transforms.apply_chain": "transforms.apply_chain_s",
    "transforms.global_scale": "transforms.global_scale_s",
    "effects.align_pair": "effects.align_s",
    "cli.main": "cli.self_s",
}
COUNT_METRICS = (
    "metrics.pairwise_calls",
    "metrics.bytes_computed",
    "discrimination.anchors",
    "discrimination.undefined_anchors",
    "discrimination.tied_anchors",
    "asymptotics.compute_pds_calls",
    "io.hash_calls",
)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one pass from its spans: self times in s, sizes in MB, counts."""
    own = self_times(spans)
    name_of = {s[1]: s[3] for s in spans}
    out = dict.fromkeys(
        [f"metrics.pairwise_s.{kind}" for kind in DISTANCE_KINDS]
        + list(TIME_METRICS.values())
        + ["io.read_s", "io.read_mb", "io.write_s", "io.write_mb", "geometry.samples_per_s"],
        0.0,
    )
    out.update(dict.fromkeys(COUNT_METRICS, 0))
    samples = 0
    for _, span_id, parent, name, _, _, info in spans:
        t = own[span_id]
        if name in TIME_METRICS:
            out[TIME_METRICS[name]] += t
        elif name.startswith("io.read_"):
            out["io.read_s"] += t
            out["io.read_mb"] += info.get("mb", 0.0)
        elif name.startswith("io."):  # writers and the report payloads they serialise
            out["io.write_s"] += t
            out["io.write_mb"] += info.get("mb", 0.0)
        if name == "metrics.pairwise_to_rows":
            out[f"metrics.pairwise_s.{info['kind']}"] += t
            out["metrics.pairwise_calls"] += 1
            out["metrics.bytes_computed"] += info["bytes"]
        elif name == "discrimination.pds_row":
            out["discrimination.tied_anchors"] += int(info.get("tied", False))
        elif name == "discrimination.compute_pds":
            out["discrimination.anchors"] += info.get("anchors", 0)
            out["discrimination.undefined_anchors"] += info.get("undefined", 0)
            if name_of.get(parent) == "asymptotics.scale_sweep":
                out["asymptotics.compute_pds_calls"] += 1
        elif name == "io.sha256_file":
            out["io.hash_calls"] += 1
        elif name == "geometry.region_fraction":
            samples += info.get("samples", 0)
    if out["geometry.region_s"] > 0:
        out["geometry.samples_per_s"] = samples / out["geometry.region_s"]
    return out


def layer_shares(spans) -> dict:
    """Per job, the share of its time spent in each layer's own code.

    The root span of a job is "cli.main" for a command line job, so its self
    time is the cli layer's; a library job's root is the benchmark's own glue.
    """
    own = self_times(spans)
    shares = defaultdict(lambda: defaultdict(float))
    for job, span_id, _, name, *_ in spans:
        shares[job][name.split(".")[0]] += own[span_id]
    return {
        job: {layer: t / sum(layers.values()) for layer, t in sorted(layers.items())}
        for job, layers in shares.items()
    }
