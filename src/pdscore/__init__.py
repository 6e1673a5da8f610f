"""Perturbation discrimination scoring under interchangeable distance measures.

Public surface: the effect containers, the distance measures, the rank
scorer, prediction transforms, large-scale limit analysis, distractor
geometry, count preprocessing, and synthetic generators with brute-force
oracles. File formats and the command line live in pdscore.io and
pdscore.cli.
"""

__version__ = "0.1.0"

from .asymptotics import (
    DEFAULT_SWEEP_SCALES,
    ScaleSweepResult,
    convergence_threshold_l1,
    convergence_threshold_l2,
    l1_limit_scores,
    l2_limit_scores,
    scale_sweep,
)
from .discrimination import ErrorPolicy, PdsEntry, PdsReport, compute_pds, pds_row
from .effects import EffectMatrix, EffectPair, align_pair, anchor_subproblem
from .errors import (
    BadIndex,
    BadParameter,
    BadSpec,
    DegeneratePair,
    DimensionMismatch,
    DuplicateLabel,
    EmptyIntersection,
    EmptyPerturbation,
    MissingControl,
    NonpositiveNorm,
    NonpositiveScale,
    ParseError,
    PdsError,
    UnknownPerturbation,
    ValidationError,
    ZeroLibrarySize,
    ZeroPredictionNorm,
    ZeroSignVector,
    ZeroVector,
)
from .geometry import (
    CertificateResult,
    MonteCarloRegionResult,
    orthogonal_ray_certificate,
    region_fraction,
)
from .metrics import (
    METRIC_TOKENS,
    DistanceKind,
    DistanceSpec,
    cosine,
    dist_l1,
    dist_l2,
    distance,
    pairwise_to_rows,
    sign_cosine,
    sign_vector,
    spec_from_token,
)
from .preprocessing import (
    CONTROL_LABEL,
    CountMatrix,
    PipelineComparison,
    PipelineKind,
    PipelineSpec,
    compare_pipelines,
    mean_effects,
    normalize,
    pipeline_from_token,
)
from .synth import (
    CountSynthSpec,
    SynthSpec,
    generate,
    generate_counts,
    oracle_l1_limit,
    oracle_pds,
    oracle_ray_certificate,
)
from .transforms import (
    CHAIN_GRAMMAR,
    TransformDescriptor,
    TransformKind,
    apply_chain,
    chain_tokens,
    global_scale,
    norm_match,
    parse_chain,
    sign_project,
)
