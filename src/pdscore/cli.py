"""Command line: compute scores, sweeps, transforms, geometry runs, preprocessing, synthesis.

Exit codes: 0 success, 1 validation or I/O failure, 2 usage error. Every
run writes run_config.json into the output directory before the command
runs, so results can be reproduced from the emitted options, seed, and
input digests alone.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, io
from .asymptotics import DEFAULT_SWEEP_SCALES, scale_sweep
from .discrimination import ErrorPolicy, compute_pds
from .effects import align_pair
from .errors import BadParameter, PdsError
from .geometry import orthogonal_ray_certificate, region_fraction
from .metrics import METRIC_TOKENS, spec_from_token
from .preprocessing import compare_pipelines, mean_effects, normalize, pipeline_from_token
from .synth import CountSynthSpec, SynthSpec, generate, generate_counts
from .transforms import CHAIN_GRAMMAR, apply_chain, chain_tokens, norm_match, parse_chain


def _metric_list(text: str):
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError(f"no metrics given; choose from: {', '.join(METRIC_TOKENS)}")
    for token in tokens:
        if token not in METRIC_TOKENS:
            raise argparse.ArgumentTypeError(
                f"unknown metric {token!r}; choose from: {', '.join(METRIC_TOKENS)}"
            )
    return tokens


def _chain(text: str):
    try:
        return parse_chain(text)
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
    if lo <= 0 or hi <= lo or n < 2:
        raise argparse.ArgumentTypeError("grid needs 0 < lo < hi and at least 2 points")
    return tuple(float(x) for x in np.geomspace(lo, hi, n))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _int_list(text: str):
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers") from None


# Options that name input files, in the order their digests are recorded.
_INPUTS = ("pred", "truth", "targets", "counts")


def _echo_config(args, out: Path, inputs: dict) -> dict:
    """Write run_config.json; returns the sha256 of each input, keyed like inputs."""
    options = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in vars(args).items()
        if not callable(v)
    }
    if "transform" in options:
        options["transform"] = chain_tokens(args.transform)
    digests = {name: io.sha256_file(path) for name, path in inputs.items()}
    payload = {
        "record": "run-config",
        "tool": "pdscore",
        "version": __version__,
        "command": args.command,
        "options": options,
        "input_digests": {str(inputs[name]): d for name, d in digests.items()},
    }
    io.write_json(payload, out / "run_config.json")
    return digests


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
    if getattr(args, "targets", None):
        targets = io.read_target_map(args.targets)
    elif getattr(args, "mask_target", False):
        # Default map for gene perturbations named after their target gene.
        genes = set(predicted.gene_ids) & set(truth.gene_ids)
        targets = {p: p for p in predicted.perturbation_ids if p in genes}
    return align_pair(predicted, truth, targets)


def _cmd_pds(args, out: Path, meta: dict | None) -> int:
    pair = apply_chain(_load_pair(args), args.transform or ())
    policy = ErrorPolicy(args.error_policy)
    for token in args.metric:
        spec = spec_from_token(token, args.sign_threshold)
        report = compute_pds(
            pair, spec, args.mask_target, error_policy=policy, workers=args.workers
        )
        _emit(
            args, out, f"pds_{token}", report, meta, io.pds_report_payload, io.write_pds_report_csv
        )
        print(f"metric={token} mean_pds={report.mean_pds:.6f}")
    return 0


def _cmd_sweep(args, out: Path, meta: dict | None) -> int:
    specs = [spec_from_token(t, args.sign_threshold) for t in args.metric]
    grid = args.grid if args.grid is not None else DEFAULT_SWEEP_SCALES
    result = scale_sweep(_load_pair(args), specs, grid, args.mask_target)
    _emit(args, out, "sweep", result, meta, io.sweep_payload, io.write_sweep_csv)
    for token, value in result.limit_mean_pds.items():
        print(f"metric={token} limit_mean_pds={value:.6f}")
    return 0


def _cmd_norm_match(args, out: Path, meta: dict | None) -> int:
    matched = norm_match(_load_pair(args), 1 if args.norm == "l1" else 2)
    path = io.write_effect_matrix(matched.predicted, out / "norm_matched_predictions.csv")
    print(f"wrote {path}")
    return 0


def _cmd_geometry_certificate(args, out: Path, meta: dict | None) -> int:
    result = orthogonal_ray_certificate(args.pred_norm, args.true_norm, args.cosine)
    io.write_json(io.certificate_payload(result, meta), out / "certificate.json")
    print(
        f"safe={result.safe} cosine={result.cosine:g} "
        f"threshold={result.threshold:g} margin={result.margin:g}"
    )
    return 0


def _cmd_geometry_region(args, out: Path, meta: dict | None) -> int:
    results = [
        region_fraction(d, args.rho, args.kappa, args.samples, args.seed, args.metric)
        for d in args.dims
    ]
    _emit(args, out, "region", results, meta, io.region_payload, io.write_region_csv)
    for r in results:
        print(f"d={r.dimension} fraction={r.fraction_closer:.6f} stderr={r.standard_error:.6f}")
    return 0


def _cmd_preprocess_normalize(args, out: Path, meta: dict | None) -> int:
    counts = io.read_count_matrix(args.counts)
    values = normalize(counts, pipeline_from_token(args.pipeline))
    path = io.write_normalized_matrix(values, counts, out / "normalized.csv")
    print(f"wrote {path}")
    return 0


def _cmd_preprocess_effects(args, out: Path, meta: dict | None) -> int:
    counts = io.read_count_matrix(args.counts)
    values = normalize(counts, pipeline_from_token(args.pipeline))
    effects = mean_effects(values, counts.cell_condition, counts.gene_ids)
    path = io.write_effect_matrix(effects, out / "effects.csv")
    print(f"wrote {path}")
    return 0


def _cmd_preprocess_compare(args, out: Path, meta: dict | None) -> int:
    counts = io.read_count_matrix(args.counts)
    result = compare_pipelines(
        counts,
        pipeline_from_token(args.pipeline_a),
        pipeline_from_token(args.pipeline_b),
        args.sign_threshold,
    )
    _emit(args, out, "comparison", result, meta, io.comparison_payload, io.write_comparison_csv)
    print(
        f"perturbations={len(result.perturbation_ids)} "
        f"median_cosine={float(np.median(result.cosine_between)):.4f}"
    )
    return 0


def _cmd_synth_pair(args, out: Path, meta: dict | None) -> int:
    spec = SynthSpec(
        n_perturbations=args.n,
        n_genes=args.genes,
        target_cosine=args.target_cosine,
        norm_mu=args.norm_mu,
        norm_sigma=args.norm_sigma,
        prediction_scale=args.scale,
        seed=args.seed,
    )
    pair = generate(spec)
    io.write_effect_matrix(pair.predicted, out / "predicted.csv")
    io.write_effect_matrix(pair.truth, out / "truth.csv")
    print(f"wrote {out / 'predicted.csv'} and {out / 'truth.csv'}")
    return 0


def _cmd_synth_counts(args, out: Path, meta: dict | None) -> int:
    spec = CountSynthSpec(
        n_perturbations=args.perturbations,
        cells_per_condition=args.cells_per_condition,
        n_genes=args.genes,
        mean_counts_per_cell=args.mean_counts,
        libsize_sigma=args.libsize_sigma,
        effect_fraction=args.effect_fraction,
        effect_log_fc_sigma=args.effect_sigma,
        seed=args.seed,
    )
    counts = generate_counts(spec)
    path = io.write_count_matrix(counts, out / "counts.csv")
    print(f"wrote {path}")
    return 0


def _formats(text: str):
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens or any(t not in ("json", "csv") for t in tokens):
        raise argparse.ArgumentTypeError("formats must be a comma separated subset of json,csv")
    return tokens


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
    """--pred, --truth and --targets; with scoring, also the options that shape a measure."""
    parser.add_argument("--pred", required=True, help="predicted effect matrix CSV")
    parser.add_argument("--truth", required=True, help="true effect matrix CSV")
    parser.add_argument(
        "--targets",
        default=None,
        help="optional perturbation,target_gene CSV; default when masking is the "
        "perturbation id itself where it matches a gene id",
    )
    if not scoring:
        return
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        "--workers", type=_positive_int, default=1, help="anchor-level worker threads (>= 1)"
    )
    _add_common_io(p)
    p.set_defaults(func=_cmd_pds)

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
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("norm-match", help="emit predictions rescaled to matching row norms")
    _add_pair_inputs(p, scoring=False)
    p.add_argument("--norm", choices=["l1", "l2"], required=True)
    _add_common_io(p, with_formats=False)
    p.set_defaults(func=_cmd_norm_match)

    p = sub.add_parser("geometry", help="orthogonal-ray certificate and region fractions")
    geo = p.add_subparsers(dest="geometry_command", required=True)
    c = geo.add_parser("certificate", help="closed-form orthogonal-ray safety check")
    c.add_argument("--pred-norm", type=float, required=True)
    c.add_argument("--true-norm", type=float, required=True)
    c.add_argument("--cosine", type=float, required=True)
    _add_common_io(c, with_formats=False)
    c.set_defaults(func=_cmd_geometry_certificate)
    r = geo.add_parser("region", help="Monte Carlo fraction of winning short distractors")
    r.add_argument("--dims", type=_int_list, required=True, help="comma separated dimensions")
    r.add_argument("--rho", type=float, required=True, help="distractor to prediction norm ratio")
    r.add_argument("--kappa", type=float, required=True, help="cosine between prediction and truth")
    r.add_argument("--samples", type=int, default=100000)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--metric", choices=["l1", "l2"], default="l2")
    _add_common_io(r)
    r.set_defaults(func=_cmd_geometry_region)

    p = sub.add_parser("preprocess", help="normalize counts, estimate effects, compare pipelines")
    pre = p.add_subparsers(dest="preprocess_command", required=True)
    n = pre.add_parser("normalize", help="write the normalized cell x gene matrix")
    n.add_argument("--counts", required=True)
    n.add_argument("--pipeline", default="per10k", help="per10k, median, or median-nolog")
    _add_common_io(n, with_formats=False)
    n.set_defaults(func=_cmd_preprocess_normalize)
    e = pre.add_parser("effects", help="write mean perturbation effects for one pipeline")
    e.add_argument("--counts", required=True)
    e.add_argument("--pipeline", default="per10k")
    _add_common_io(e, with_formats=False)
    e.set_defaults(func=_cmd_preprocess_effects)
    c = pre.add_parser("compare", help="contrast effects from two pipelines")
    c.add_argument("--counts", required=True)
    c.add_argument("--pipeline-a", default="per10k")
    c.add_argument("--pipeline-b", default="median")
    c.add_argument("--sign-threshold", type=float, default=0.0)
    _add_common_io(c)
    c.set_defaults(func=_cmd_preprocess_compare)

    p = sub.add_parser("synth", help="generate synthetic effect pairs or count matrices")
    syn = p.add_subparsers(dest="synth_command", required=True)
    sp = syn.add_parser("pair", help="aligned predicted/true effect matrices")
    sp.add_argument("--n", type=int, default=100, help="perturbations")
    sp.add_argument("--genes", type=int, default=500)
    sp.add_argument("--target-cosine", type=float, default=0.6)
    sp.add_argument("--norm-mu", type=float, default=0.0)
    sp.add_argument("--norm-sigma", type=float, default=1.0)
    sp.add_argument("--scale", type=float, default=1.0, help="global prediction scale")
    sp.add_argument("--seed", type=int, default=0)
    _add_common_io(sp, with_formats=False)
    sp.set_defaults(func=_cmd_synth_pair)
    sc = syn.add_parser("counts", help="Poisson counts with heterogeneous library sizes")
    sc.add_argument("--perturbations", type=int, default=20)
    sc.add_argument("--cells-per-condition", type=int, default=50)
    sc.add_argument("--genes", type=int, default=1000)
    sc.add_argument("--mean-counts", type=float, default=2000.0)
    sc.add_argument("--libsize-sigma", type=float, default=0.6)
    sc.add_argument("--effect-fraction", type=float, default=0.1)
    sc.add_argument("--effect-sigma", type=float, default=1.0)
    sc.add_argument("--seed", type=int, default=0)
    _add_common_io(sc, with_formats=False)
    sc.set_defaults(func=_cmd_synth_counts)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        inputs = {name: getattr(args, name) for name in _INPUTS if getattr(args, name, None)}
        digests = _echo_config(args, out, inputs)
        return args.func(args, out, {"inputs": digests} if inputs else None)
    except PdsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
