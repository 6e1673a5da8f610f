"""Command line: compute scores, sweeps, transforms, geometry runs, preprocessing, synthesis.

Exit codes: 0 success, 1 validation or I/O failure, 2 usage error, each failure with
one line on stderr. Every successful run writes run_config.json into the output
directory, so results can be reproduced from the emitted options, seed, and input
digests alone; a run that fails writes nothing: it removes an output directory it made,
and each parent it made that is still empty.
"""

import argparse
import contextlib
import os
import re
import shutil
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, io
from .asymptotics import DEFAULT_SWEEP_SCALES, scale_sweep
from .discrimination import ErrorPolicy, compute_pds
from .effects import align_pair
from .errors import BadParameter, PdsError
from .geometry import orthogonal_ray_certificate, region_fraction
from .metrics import METRIC_TOKENS, spec_from_token
from .preprocessing import _median, compare_pipelines, mean_effects, normalize, pipeline_from_token
from .synth import CountSynthSpec, SynthSpec, generate, generate_counts
from .transforms import CHAIN_GRAMMAR, apply_chain, chain_tokens, norm_match, parse_chain


def _distinct(kind: str, choices):
    """Parser of a comma separated list of tokens from choices, none repeated."""
    listed = ", ".join(choices)

    def parse(text: str):
        tokens = [t.strip() for t in text.split(",") if t.strip()]
        if not tokens:
            raise argparse.ArgumentTypeError(f"no {kind}s given; choose from: {listed}")
        for token in tokens:
            if token not in choices:
                raise argparse.ArgumentTypeError(f"unknown {kind} {token!r}; choose from: {listed}")
            if tokens.count(token) > 1:
                raise argparse.ArgumentTypeError(f"{kind} {token!r} given more than once")
        return tokens

    return parse


_metric_list, _formats = _distinct("metric", METRIC_TOKENS), _distinct("format", ("json", "csv"))


def _chain(text: str):
    """The chain's canonical tokens, such as ['scale:2', 'norm-match:l2']."""
    try:
        return chain_tokens(parse_chain(text))
    except BadParameter as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be <lo>:<hi>:<n>, for example 1e-2:1e4:25")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError("grid must be <lo>:<hi>:<n>, for example 1e-2:1e4:25") from None
    if not (0 < lo < hi < np.inf) or n < 2:
        raise argparse.ArgumentTypeError("grid needs finite 0 < lo < hi and at least 2 points")
    return tuple(float(x) for x in np.geomspace(lo, hi, n))


def _int_at_least(lowest: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value

    return parse


def _int_list(text: str):
    """Comma separated dimensions, each at least 2."""
    try:
        values = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    if min(values) < 2:
        raise argparse.ArgumentTypeError(f"must each be at least 2, got {min(values)}")
    return values


# Options that name input files, in the order their digests are recorded.
_INPUTS = ("pred", "truth", "targets", "counts")


def _echo_config(args, out: Path, inputs: dict, digests: dict) -> None:
    """Write run_config.json, with digests holding the sha256 of each input, keyed like inputs."""
    digests = {str(inputs[name]): d for name, d in digests.items()}
    body = {"command": args.command, "options": vars(args), "input_digests": digests}
    io.write_json(io._payload("run-config", None, body), out / "run_config.json")


def _emit(args, out: Path, stem: str, result, meta, payload, write_csv) -> None:
    """Write result as <stem>.json and/or <stem>.csv, as --format asks."""
    if "json" in args.format:
        io.write_json(payload(result, meta), out / f"{stem}.json")
    if "csv" in args.format:
        write_csv(result, out / f"{stem}.csv")


def _load_pair(args):
    predicted = io.read_effect_matrix(args.pred)
    truth = io.read_effect_matrix(args.truth)
    targets = None
    if getattr(args, "targets", None) is not None:
        targets = io.read_target_map(args.targets)
    elif getattr(args, "mask_target", False):
        # Default map for gene perturbations named after their target gene.
        genes = set(predicted.gene_ids) & set(truth.gene_ids)
        targets = {p: p for p in predicted.perturbation_ids if p in genes}
    return align_pair(predicted, truth, targets)


def _cmd_pds(args, out: Path, meta: dict | None) -> None:
    pair = apply_chain(_load_pair(args), parse_chain(",".join(args.transform)))
    policy = ErrorPolicy(args.error_policy)
    reports = [  # every metric scored before any report is written
        compute_pds(
            pair, spec_from_token(token, args.sign_threshold), args.mask_target,
            error_policy=policy, workers=args.workers,
        )
        for token in args.metric
    ]
    for token, report in zip(args.metric, reports):
        _emit(
            args, out, f"pds_{token}", report, meta, io.pds_report_payload, io.write_pds_report_csv
        )
        print(f"metric={token} mean_pds={report.mean_pds:.6f}")


def _cmd_sweep(args, out: Path, meta: dict | None) -> None:
    specs = [spec_from_token(t, args.sign_threshold) for t in args.metric]
    grid = args.grid if args.grid is not None else DEFAULT_SWEEP_SCALES
    result = scale_sweep(_load_pair(args), specs, grid, args.mask_target)
    _emit(args, out, "sweep", result, meta, io.sweep_payload, io.write_sweep_csv)
    for token, value in result.limit_mean_pds.items():
        print(f"metric={token} limit_mean_pds={value:.6f}")


def _cmd_norm_match(args, out: Path, meta: dict | None) -> None:
    matched = norm_match(_load_pair(args), 1 if args.norm == "l1" else 2)
    path = io.write_effect_matrix(matched.predicted, out / "norm_matched_predictions.csv")
    print(f"wrote {path}")


def _cmd_geometry_certificate(args, out: Path, meta: dict | None) -> None:
    result = orthogonal_ray_certificate(args.pred_norm, args.true_norm, args.cosine)
    io.write_json(io.certificate_payload(result, meta), out / "certificate.json")
    print(
        f"safe={result.safe} cosine={result.cosine:g} "
        f"threshold={result.threshold:g} margin={result.margin:g}"
    )


def _cmd_geometry_region(args, out: Path, meta: dict | None) -> None:
    results = [
        region_fraction(d, args.rho, args.kappa, args.samples, args.seed, args.metric)
        for d in args.dims
    ]
    _emit(args, out, "region", results, meta, io.region_payload, io.write_region_csv)
    for r in results:
        print(f"d={r.dimension} fraction={r.fraction_closer:.6f} stderr={r.standard_error:.6f}")


def _cmd_preprocess_normalize(args, out: Path, meta: dict | None) -> None:
    counts = io.read_count_matrix(args.counts)
    values = normalize(counts, pipeline_from_token(args.pipeline))
    path = io.write_normalized_matrix(values, counts, out / "normalized.csv")
    print(f"wrote {path}")


def _cmd_preprocess_effects(args, out: Path, meta: dict | None) -> None:
    counts = io.read_count_matrix(args.counts)
    values = normalize(counts, pipeline_from_token(args.pipeline))
    effects = mean_effects(values, counts.cell_condition, counts.gene_ids)
    path = io.write_effect_matrix(effects, out / "effects.csv")
    print(f"wrote {path}")


def _cmd_preprocess_compare(args, out: Path, meta: dict | None) -> None:
    counts = io.read_count_matrix(args.counts)
    result = compare_pipelines(
        counts,
        pipeline_from_token(args.pipeline_a),
        pipeline_from_token(args.pipeline_b),
        args.sign_threshold,
    )
    _emit(args, out, "comparison", result, meta, io.comparison_payload, io.write_comparison_csv)
    defined = result.cosine_between[~np.isnan(result.cosine_between)]  # NaN for zero effects
    median = _median(defined) if defined.size else float("nan")
    print(f"perturbations={len(result.perturbation_ids)} median_cosine={median:.4f}")


def _spec(cls, args, **renamed):
    """cls from the options named like its fields; renamed maps a field to its option."""
    return cls(**{f.name: getattr(args, renamed.get(f.name, f.name)) for f in fields(cls)})


def _cmd_synth_pair(args, out: Path, meta: dict | None) -> None:
    spec = _spec(SynthSpec, args, n_perturbations="n", n_genes="genes", prediction_scale="scale")
    pair = generate(spec)
    io.write_effect_matrix(pair.predicted, out / "predicted.csv")
    io.write_effect_matrix(pair.truth, out / "truth.csv")
    print(f"wrote {out / 'predicted.csv'} and {out / 'truth.csv'}")


def _cmd_synth_counts(args, out: Path, meta: dict | None) -> None:
    spec = _spec(
        CountSynthSpec, args, n_perturbations="perturbations", n_genes="genes",
        mean_counts_per_cell="mean_counts", effect_log_fc_sigma="effect_sigma",
    )
    counts = generate_counts(spec)
    path = io.write_count_matrix(counts, out / "counts.csv")
    print(f"wrote {path}")


def _add_common_io(parser, with_formats=True):
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    if with_formats:
        parser.add_argument(
            "--format",
            type=_formats,
            default=["json", "csv"],
            help="report formats, comma separated subset of json,csv (default both)",
        )


def _add_pair_inputs(parser, scoring=True):
    """--pred and --truth; with scoring, also the options that shape a measure."""
    parser.add_argument("--pred", required=True, help="predicted effect matrix CSV")
    parser.add_argument("--truth", required=True, help="true effect matrix CSV")
    if not scoring:
        return
    parser.add_argument(
        "--targets",
        default=None,
        help="optional perturbation,target_gene CSV; default when masking is the "
        "perturbation id itself where it matches a gene id",
    )
    parser.add_argument(
        "--mask-target",
        action="store_true",
        help="exclude each anchor's target gene from its own comparisons",
    )
    parser.add_argument(
        "--sign-threshold",
        type=float,
        default=0.0,
        help="|x| at or below this counts as sign zero (default 0)",
    )


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1e-3 or -inf as its own argument is a value: no option begins -<digit>, -inf or -nan
        self._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)

    def error(self, message):
        """Exit code 2 after one line, with no usage; --help shows it."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pdscore",
        description="Perturbation discrimination scoring under interchangeable distance measures.",
    )
    parser.add_argument("--version", action="version", version=f"pdscore {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pds", help="compute discrimination scores for chosen metrics")
    _add_pair_inputs(p)
    p.add_argument(
        "--metric",
        type=_metric_list,
        default=["l1", "l2", "cosine", "sign-cosine"],
        help=f"comma separated metrics from: {', '.join(METRIC_TOKENS)}",
    )
    p.add_argument(
        "--transform",
        type=_chain,
        default=(),
        help=f"transform chain applied to predictions; grammar: {CHAIN_GRAMMAR}",
    )
    p.add_argument(
        "--error-policy",
        choices=[e.value for e in ErrorPolicy],
        default=ErrorPolicy.WORST.value,
        help="undefined-anchor handling: worst rank, or skip from the mean",
    )
    p.add_argument(
        "--workers", type=_int_at_least(1), default=1, help="threads over anchor row-blocks (>= 1)"
    )
    _add_common_io(p)

    p = sub.add_parser("sweep", help="mean score across a grid of global prediction scales")
    _add_pair_inputs(p)
    p.add_argument("--metric", type=_metric_list, default=["l1", "l2"])
    p.add_argument(
        "--grid",
        type=_grid,
        default=None,
        help="log grid <lo>:<hi>:<n> of scale factors (default 1e-2:1e4:25)",
    )
    _add_common_io(p)

    p = sub.add_parser("norm-match", help="emit predictions rescaled to matching row norms")
    _add_pair_inputs(p, scoring=False)
    p.add_argument("--norm", choices=["l1", "l2"], required=True)
    _add_common_io(p, with_formats=False)

    p = sub.add_parser("geometry", help="orthogonal-ray certificate and region fractions")
    geo = p.add_subparsers(dest="geometry_command", required=True)
    c = geo.add_parser("certificate", help="closed-form orthogonal-ray safety check")
    c.add_argument("--pred-norm", type=float, required=True)
    c.add_argument("--true-norm", type=float, required=True)
    c.add_argument("--cosine", type=float, required=True)
    _add_common_io(c, with_formats=False)
    r = geo.add_parser("region", help="Monte Carlo fraction of winning short distractors")
    r.add_argument("--dims", type=_int_list, required=True, help="comma separated dimensions")
    r.add_argument("--rho", type=float, required=True, help="distractor to prediction norm ratio")
    r.add_argument("--kappa", type=float, required=True, help="cosine between prediction and truth")
    r.add_argument("--samples", type=_int_at_least(1), default=100000)
    r.add_argument("--seed", type=_int_at_least(0), default=0)
    r.add_argument("--metric", choices=["l1", "l2"], default="l2")
    _add_common_io(r)

    p = sub.add_parser("preprocess", help="normalize counts, estimate effects, compare pipelines")
    pre = p.add_subparsers(dest="preprocess_command", required=True)
    n = pre.add_parser("normalize", help="write the normalized cell x gene matrix")
    n.add_argument("--counts", required=True)
    n.add_argument("--pipeline", default="per10k", help="per10k, median, or median-nolog")
    _add_common_io(n, with_formats=False)
    e = pre.add_parser("effects", help="write mean perturbation effects for one pipeline")
    e.add_argument("--counts", required=True)
    e.add_argument("--pipeline", default="per10k")
    _add_common_io(e, with_formats=False)
    c = pre.add_parser("compare", help="contrast effects from two pipelines")
    c.add_argument("--counts", required=True)
    c.add_argument("--pipeline-a", default="per10k")
    c.add_argument("--pipeline-b", default="median")
    c.add_argument("--sign-threshold", type=float, default=0.0)
    _add_common_io(c)

    p = sub.add_parser("synth", help="generate synthetic effect pairs or count matrices")
    syn = p.add_subparsers(dest="synth_command", required=True)
    sp = syn.add_parser("pair", help="aligned predicted/true effect matrices")
    sp.add_argument("--n", type=_int_at_least(2), default=100, help="perturbations")
    sp.add_argument("--genes", type=_int_at_least(2), default=500)
    sp.add_argument("--target-cosine", type=float, default=0.6)
    sp.add_argument("--norm-mu", type=float, default=0.0)
    sp.add_argument("--norm-sigma", type=float, default=1.0)
    sp.add_argument("--scale", type=float, default=1.0, help="global prediction scale")
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_common_io(sp, with_formats=False)
    sc = syn.add_parser("counts", help="Poisson counts with heterogeneous library sizes")
    sc.add_argument("--perturbations", type=_int_at_least(1), default=20)
    sc.add_argument("--cells-per-condition", type=_int_at_least(1), default=50)
    sc.add_argument("--genes", type=_int_at_least(2), default=1000)
    sc.add_argument("--mean-counts", type=float, default=2000.0)
    sc.add_argument("--libsize-sigma", type=float, default=0.6)
    sc.add_argument("--effect-fraction", type=float, default=0.1)
    sc.add_argument("--effect-sigma", type=float, default=1.0)
    sc.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_common_io(sc, with_formats=False)

    return parser


def _failed(exc: Exception) -> int:
    """Exit code 1 after one line naming exc."""
    kind = "i/o error" if isinstance(exc, OSError) else "error"
    print(f"{kind}: {str(exc) or 'out of memory'}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("pds", "sweep"):  # refuse an option that would change no report
            parser.prog += f" {args.command}"  # so the line starts as the command's own errors do
            if args.targets is not None and not args.mask_target:
                parser.error("argument --targets: not allowed without --mask-target")
            reads_threshold = {"sign-cosine", "l1-limit"} & {*args.metric}
            if 0 < args.sign_threshold < np.inf and not reads_threshold:
                parser.error("argument --sign-threshold: read only by sign-cosine and l1-limit")
    except SystemExit as exc:
        return int(exc.code or 0)
    except MemoryError as exc:  # a size numpy cannot allocate, such as --grid 1:2:1e13
        return _failed(exc)
    # a command's handler is named after its path: `synth pair` runs _cmd_synth_pair
    words = [args.command, *(v for k, v in vars(args).items() if k.endswith("_command"))]
    handler = globals()["_cmd_" + "_".join(words).replace("-", "_")]
    out, made = Path(args.out), []
    try:
        where = Path(os.path.abspath(out))  # with no ".." left
        made = [d for d in (where, *where.parents) if not d.exists()]  # what mkdir will make
        out.mkdir(parents=True, exist_ok=True)
        inputs = {n: getattr(args, n) for n in _INPUTS if getattr(args, n, None) is not None}
        digests = {name: io.sha256_file(path) for name, path in inputs.items()}
        handler(args, out, {"inputs": digests} if inputs else None)
        _echo_config(args, out, inputs, digests)
    except (PdsError, OSError, MemoryError) as exc:
        if made:  # a failed run removes its --out if it made it, then each parent it made
            shutil.rmtree(made[0], ignore_errors=True)
            with contextlib.suppress(OSError):  # up to the first that another run wrote into
                for parent in made[1:]:
                    parent.rmdir()
        return _failed(exc)
    return 0


def run() -> None:
    sys.exit(main())
