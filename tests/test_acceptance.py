"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 7c and 8b keep their stated parameters, whose prediction/truth
cosine 0.6 sits on the safe side of the cos = 0.5 boundary that the
orthogonal-ray certificate establishes (criterion 7b). Each asserts what the
geometry proves there, with expectations from closed forms: 7c that the
short-distractor win rate falls with dimension, 8b that norm matching
rescues l2 PDS exactly. Each also asserts the criterion's own claim on the
side of the boundary where it holds: a win rate rising with dimension below
kappa = (1 - rho^2) / 2, and norm matching failing to rescue at cosine 0.4.
"""

import math
import time

import numpy as np
from scipy import stats

from pdscore import (
    DistanceKind,
    DistanceSpec,
    SynthSpec,
    CountSynthSpec,
    compute_pds,
    convergence_threshold_l1,
    convergence_threshold_l2,
    generate,
    generate_counts,
    global_scale,
    compare_pipelines,
    norm_match,
    orthogonal_ray_certificate,
    pairwise_to_rows,
    pipeline_from_token,
    region_fraction,
    scale_sweep,
)
from pdscore import io as pio
from pdscore.transforms import apply_chain, parse_chain

from helpers import pair_from, random_pair, region_fraction_exact, region_win_threshold
from oracles import oracle_l1_limit, oracle_pds, oracle_ray_certificate

L1 = DistanceSpec(DistanceKind.L1)
L2 = DistanceSpec(DistanceKind.L2)
COS = DistanceSpec(DistanceKind.COSINE_DISSIM)
SIGNCOS = DistanceSpec(DistanceKind.SIGN_COSINE_DISSIM)
ALL_FOUR = (L1, L2, COS, SIGNCOS)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_perfect_prediction_identity():
    rng = np.random.default_rng(1001)
    truth = rng.standard_normal((100, 500))
    pair = pair_from(truth, truth)
    start = time.perf_counter()
    means = {spec.token: compute_pds(pair, spec).mean_pds for spec in ALL_FOUR}
    elapsed = time.perf_counter() - start
    ok = all(m == 1.0 for m in means.values()) and elapsed < 1.0
    _verdict(
        "criterion 01",
        ok,
        f"perfect prediction means={means} elapsed={elapsed:.3f}s (exact 1.0 required, < 1 s)",
    )


def test_criterion_02_random_baseline():
    grand = {spec.token: [] for spec in ALL_FOUR}
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        pair = pair_from(rng.standard_normal((100, 500)), rng.standard_normal((100, 500)))
        for spec in ALL_FOUR:
            grand[spec.token].append(compute_pds(pair, spec).mean_pds)
    means = {token: float(np.mean(vals)) for token, vals in grand.items()}
    ok = all(abs(m - 0.5) <= 0.03 for m in means.values())
    _verdict("criterion 02", ok, f"grand means over 20 seeds={means} (0.5 +/- 0.03 required)")


def test_criterion_03_scale_invariance_of_cosine_kinds():
    rng = np.random.default_rng(3001)
    failures = 0
    for _ in range(100):
        pair = random_pair(rng, n=10, p=16)
        factors = 10.0 ** rng.uniform(-6, 6, 10)
        scaled = pair.with_predicted(
            pair.predicted.with_values(pair.predicted.values * factors[:, None])
        )
        for spec in (COS, SIGNCOS):
            base = compute_pds(pair, spec).ranks()
            after = compute_pds(scaled, spec).ranks()
            if not np.array_equal(base, after):
                failures += 1
    _verdict(
        "criterion 03",
        failures == 0,
        f"{failures} rank mismatches across 100 instances x 2 metrics under per-row scaling",
    )


def test_criterion_04_l2_limit_exactness():
    rng = np.random.default_rng(4001)
    mismatches = 0
    plateau_breaks = 0
    for _ in range(8):
        pair = random_pair(rng, n=20, p=50)
        c_star = convergence_threshold_l2(pair)
        limit_ranks = compute_pds(pair, DistanceSpec(DistanceKind.L2_LIMIT)).ranks()
        for factor in (1.01, 2.0, 10.0, 100.0):
            scaled = pair.with_predicted(global_scale(pair.predicted, factor * c_star))
            if not np.array_equal(compute_pds(scaled, L2).ranks(), limit_ranks):
                mismatches += 1
        sweep = scale_sweep(pair, [L2], (1.05 * c_star, 2.0 * c_star, 8.0 * c_star))
        curve = sweep.mean_pds_per_scale["l2"]
        if not all(v == sweep.limit_mean_pds["l2"] for v in curve):
            plateau_breaks += 1
    ok = mismatches == 0 and plateau_breaks == 0
    _verdict(
        "criterion 04",
        ok,
        f"{mismatches} rank mismatches beyond c*, {plateau_breaks} non-constant plateaus "
        "(8 instances, N=20, p=50)",
    )


def test_criterion_05_l1_limit_with_correction():
    rng = np.random.default_rng(5001)
    mismatches = 0
    for _ in range(100):
        pair = random_pair(rng, n=6, p=8, zero_fraction=0.25)
        threshold = convergence_threshold_l1(pair)
        scaled = pair.with_predicted(global_scale(pair.predicted, 2.0 * threshold))
        got = compute_pds(scaled, L1).ranks()
        want = compute_pds(pair, DistanceSpec(DistanceKind.L1_LIMIT)).ranks()
        if not np.array_equal(got, want):
            mismatches += 1

    # documented counterexample: prediction (1, 0), truth (1, 5), distractor (-1, 0)
    pair = pair_from([[1.0, 0.0], [0.2, 0.3]], [[1.0, 5.0], [-1.0, 0.0]])
    brute = oracle_l1_limit(pair, 1e6)[0]
    corrected = compute_pds(pair, DistanceSpec(DistanceKind.L1_LIMIT)).per_perturbation[0].rank
    uncorrected = pairwise_to_rows(
        DistanceSpec(DistanceKind.L2_LIMIT), np.sign([1.0, 0.0]), pair.truth.values
    )
    corrected_matches = brute[0] == corrected == 2.0
    uncorrected_disagrees = int(np.argmin(uncorrected)) == 0 and int(brute.argmin()) == 1
    ok = mismatches == 0 and corrected_matches and uncorrected_disagrees
    _verdict(
        "criterion 05",
        ok,
        f"{mismatches} mismatches at 2x flip threshold over 100 zero-bearing instances; "
        f"counterexample: corrected rank {corrected} == brute {brute[0]}, "
        f"plain sign form prefers the wrong candidate: {uncorrected_disagrees}",
    )


def test_criterion_06_norm_matching():
    rng = np.random.default_rng(6001)
    norm_failures = 0
    rank_failures = 0
    for _ in range(20):
        pair = random_pair(rng, n=12, p=14)
        for p_norm, spec in ((1, L1), (2, L2)):
            matched = norm_match(pair, p_norm)
            if p_norm == 1:
                got = np.abs(matched.predicted.values).sum(axis=1)
                want = np.abs(pair.truth.values).sum(axis=1)
            else:
                got = np.linalg.norm(matched.predicted.values, axis=1)
                want = np.linalg.norm(pair.truth.values, axis=1)
            if not np.allclose(got, want, rtol=1e-12):
                norm_failures += 1
            plain = compute_pds(apply_chain(pair, parse_chain(f"norm-match:l{p_norm}")), spec)
            for c in (1e-3, 1.0, 1e3):
                chained = apply_chain(pair, parse_chain(f"scale:{c},norm-match:l{p_norm}"))
                if not np.array_equal(compute_pds(chained, spec).ranks(), plain.ranks()):
                    rank_failures += 1
    ok = norm_failures == 0 and rank_failures == 0
    _verdict(
        "criterion 06",
        ok,
        f"{norm_failures} norm mismatches (1e-12 rel), {rank_failures} rank differences "
        "between [scale:c, norm-match] and [norm-match] chains",
    )


def test_criterion_07a_certificate_matches_brute_force():
    rng = np.random.default_rng(7001)
    checked = 0
    disagreements = 0
    for _ in range(1000):
        pred_norm = float(rng.lognormal(0.0, 0.7))
        true_norm = float(rng.lognormal(0.0, 0.7))
        cosine = float(rng.uniform(-1.0, 1.0))
        result = orthogonal_ray_certificate(pred_norm, true_norm, cosine)
        if abs(result.margin) < 1e-6:
            continue
        checked += 1
        if result.safe != oracle_ray_certificate(pred_norm, true_norm, cosine):
            disagreements += 1
    ok = disagreements == 0 and checked > 900
    _verdict(
        "criterion 07a",
        ok,
        f"{disagreements} certificate/brute-force disagreements on {checked} off-boundary triples",
    )


def test_criterion_07b_flip_at_half_under_norm_matching():
    ok = True
    for norm in (0.25, 1.0, 3.0, 42.0):
        ok &= orthogonal_ray_certificate(norm, norm, 0.5).safe
        ok &= orthogonal_ray_certificate(norm, norm, 0.5 + 1e-9).safe
        ok &= not orthogonal_ray_certificate(norm, norm, 0.5 - 1e-9).safe
    _verdict("criterion 07b", ok, "safe/unsafe flip at cosine 0.5 +/- 1e-9 with matched norms")


REGION_DIMENSIONS = (2, 10, 100, 1000)


def _region_trend(rho: float, kappa: float, samples: int, seed: int) -> tuple[bool, str]:
    """Check region_fraction over REGION_DIMENSIONS against the exact win rate q_d.

    Each win count must lie in the central Binomial(samples, q_d) interval
    with tail 1e-6 on each side. The trend follows sign(s) for
    s = region_win_threshold(rho, kappa): q_d and the measured fractions fall
    with d when s > 0 and rise when s < 0, the fractions within 3 standard
    errors between neighbouring dimensions.
    """
    results = [region_fraction(d, rho, kappa, samples, seed=seed) for d in REGION_DIMENSIONS]
    exact = [region_fraction_exact(d, rho, kappa) for d in REGION_DIMENSIONS]
    s = region_win_threshold(rho, kappa)
    direction = -1.0 if s > 0.0 else 1.0
    in_interval = True
    for result, q in zip(results, exact):
        low, high = stats.binom.interval(1.0 - 2e-6, samples, q)
        in_interval &= bool(low <= round(result.fraction_closer * samples) <= high)
    exact_trend = all(direction * (b - a) >= 0.0 for a, b in zip(exact, exact[1:]))
    measured_trend = all(
        direction * (later.fraction_closer - earlier.fraction_closer)
        >= -3.0 * float(np.hypot(earlier.standard_error, later.standard_error))
        for earlier, later in zip(results, results[1:])
    )
    cells = ", ".join(
        f"d={d}: {r.fraction_closer} (q={q:.4g})"
        for d, r, q in zip(REGION_DIMENSIONS, results, exact)
    )
    trend = "nonincreasing" if direction < 0.0 else "nondecreasing"
    detail = (
        f"kappa={kappa} s={s:+.3f} [{cells}] counts in Binomial(n, q) 1e-6 tails: "
        f"{in_interval}, {trend} (exact {exact_trend}, measured {measured_trend})"
    )
    return in_interval and exact_trend and measured_trend, detail


def test_criterion_07c_region_fraction_nondecreasing_in_dimension():
    # Stated: rho=0.3, kappa=0.6, d in {2, 10, 100, 1000}, 1e5 samples, seed 777.
    # The distractor rho*u wins iff u_1 > s = (rho^2 + 2 kappa - 1) / (2 rho), so
    # the win rate rises with d only when s < 0, i.e. for kappa below
    # (1 - rho^2) / 2. The stated kappa lies above that boundary, where the rate
    # must fall with d; the criterion's nondecreasing clause is asserted as
    # written at kappa=0.3, below it, with the same rho, dimensions, samples and seed.
    rho, samples, seed = 0.3, 100_000, 777
    stated_kappa, below_kappa = 0.6, 0.3
    boundary = (1.0 - rho * rho) / 2.0
    sides = below_kappa < boundary < stated_kappa and all(
        (region_win_threshold(rho, kappa) > 0.0) == (kappa > boundary)
        for kappa in (stated_kappa, below_kappa)
    )
    start = time.perf_counter()
    stated_ok, stated_detail = _region_trend(rho, stated_kappa, samples, seed)
    elapsed = time.perf_counter() - start
    below_ok, below_detail = _region_trend(rho, below_kappa, samples, seed)
    ok = sides and stated_ok and below_ok and elapsed < 30.0
    _verdict(
        "criterion 07c",
        ok,
        f"boundary kappa=(1-rho^2)/2={boundary:.3f}, sign(s) matches side: {sides}; "
        f"stated {stated_detail} elapsed={elapsed:.1f}s (< 30 s); below {below_detail}",
    )


CRITERION_08_SEEDS = (11, 12, 13)


def _criterion_08_pairs(target_cosine: float, norm_sigma: float):
    return [
        generate(
            SynthSpec(
                n_perturbations=100,
                n_genes=500,
                target_cosine=target_cosine,
                norm_mu=0.0,
                norm_sigma=norm_sigma,
                prediction_scale=0.05,
                seed=seed,
            )
        )
        for seed in CRITERION_08_SEEDS
    ]


def _criterion_08_means(pairs):
    cos_means = [compute_pds(pair, COS).mean_pds for pair in pairs]
    l2_means = [compute_pds(pair, L2).mean_pds for pair in pairs]
    matched_means = [compute_pds(norm_match(pair, 2), L2).mean_pds for pair in pairs]
    return float(np.mean(cos_means)), float(np.mean(l2_means)), float(np.mean(matched_means))


def _rescue_premise(pair):
    """Per anchor i: its cosine kappa_i to its own truth and the bound (1 + gamma_i^2) / 2.

    gamma_i is the largest |cosine| between prediction i and another truth
    row. With matched norms r the truth lies at squared distance
    2 r^2 (1 - kappa_i), and a distractor at cosine gamma to the prediction at
    squared distance >= r^2 (1 - gamma^2) whatever its length, so
    kappa_i > (1 + gamma_i^2) / 2 makes the truth strictly closest.
    """
    pred = pair.predicted.values / np.linalg.norm(pair.predicted.values, axis=1)[:, None]
    truth = pair.truth.values / np.linalg.norm(pair.truth.values, axis=1)[:, None]
    cosines = pred @ truth.T
    kappa = np.diag(cosines).copy()
    np.fill_diagonal(cosines, 0.0)
    gamma = np.abs(cosines).max(axis=1)
    return kappa, (1.0 + gamma**2) / 2.0


def test_criterion_08a_metric_gap_on_documented_spec():
    cos_mean, l2_mean, _ = _criterion_08_means(_criterion_08_pairs(0.6, 1.0))
    ok = cos_mean >= 0.75 and l2_mean <= 0.6
    _verdict(
        "criterion 08a",
        ok,
        f"documented spec (cosine 0.6, sigma 1.0, scale 0.05): cosine mean={cos_mean:.4f} "
        f"(>= 0.75), l2 mean={l2_mean:.4f} (<= 0.6)",
    )


def test_criterion_08b_norm_matching_fails_to_rescue():
    # Stated: target cosine 0.6, sigma 1.0, scale 0.05, seeds 11-13.
    # (a) Every anchor meets kappa > (1 + gamma^2) / 2 (see _rescue_premise), so
    # norm matching rescues l2 PDS exactly: 1.0, equal to the cosine mean, while
    # unmatched l2 stays <= 0.6 as in 08a. The premise is asserted first: if the
    # generator stops producing near-orthogonal distractors the test fails on
    # it, and the rescue assertion never runs under another meaning.
    # (b) The fails-to-rescue clause holds below cos = 0.5. At cosine 0.4, same
    # sigma, scale and seeds, a near-orthogonal distractor j beats anchor i's
    # truth iff |t_j|^2 < (1 - 2 kappa) |t_i|^2; with log-normal norms that has
    # probability Phi(ln sqrt(1 - 2 kappa) / (sigma sqrt 2)), and PDS is one minus it.
    kappa, sigma = 0.6, 1.0
    pairs = _criterion_08_pairs(kappa, sigma)
    premises = [_rescue_premise(pair) for pair in pairs]
    premise_ok = all(bool(np.all(k > bound)) for k, bound in premises)
    kappa_min = min(float(k.min()) for k, _ in premises)
    bound_max = max(float(bound.max()) for _, bound in premises)
    _verdict(
        "criterion 08b premise",
        premise_ok,
        f"every anchor kappa > (1+gamma^2)/2: kappa min={kappa_min:.4f}, "
        f"(1+gamma^2)/2 max={bound_max:.4f}",
    )
    cos_mean, l2_mean, matched_mean = _criterion_08_means(pairs)
    rescued = matched_mean == 1.0 == cos_mean and l2_mean <= 0.6

    below = 0.4
    estimate = 1.0 - float(
        stats.norm.cdf(math.log(math.sqrt(1.0 - 2.0 * below)) / (sigma * math.sqrt(2.0)))
    )
    below_cos, _, below_matched = _criterion_08_means(_criterion_08_pairs(below, sigma))
    not_rescued = abs(below_matched - estimate) <= 0.05 and below_matched <= below_cos - 0.2
    _verdict(
        "criterion 08b",
        rescued and not_rescued,
        f"cosine {kappa}: norm-matched l2 mean={matched_mean:.4f} (== 1.0 == cosine mean "
        f"{cos_mean:.4f}; premise (1+gamma^2)/2 max={bound_max:.4f} < {kappa}), "
        f"l2 mean={l2_mean:.4f} (<= 0.6); cosine {below}: norm-matched l2 mean="
        f"{below_matched:.4f} (estimate {estimate:.4f} +/- 0.05, <= cosine mean "
        f"{below_cos:.4f} - 0.2)",
    )


def test_criterion_08_companion_pattern_below_threshold():
    # Same construction with the true cosine on the unsafe side of 0.5:
    # all three clauses hold.
    cos_mean, l2_mean, matched_mean = _criterion_08_means(_criterion_08_pairs(0.4, 2.0))
    ok = cos_mean >= 0.75 and l2_mean <= 0.6 and matched_mean <= 0.65
    _verdict(
        "criterion 08 companion",
        ok,
        f"cosine 0.4, sigma 2.0: cosine mean={cos_mean:.4f}, l2 mean={l2_mean:.4f}, "
        f"norm-matched l2 mean={matched_mean:.4f}",
    )


def test_criterion_09_preprocessing_divergence():
    start = time.perf_counter()
    counts = generate_counts(
        CountSynthSpec(
            n_perturbations=19,
            cells_per_condition=100,
            n_genes=1000,
            mean_counts_per_cell=2000.0,
            libsize_sigma=0.6,
            seed=9001,
        )
    )
    result = compare_pipelines(
        counts, pipeline_from_token("per10k"), pipeline_from_token("median")
    )
    elapsed = time.perf_counter() - start
    high_cosine_fraction = float(np.mean(result.cosine_between > 0.9))
    ratio = np.maximum(result.l1_norm_a, result.l1_norm_b) / np.minimum(
        result.l1_norm_a, result.l1_norm_b
    )
    median_ratio = float(np.median(ratio))
    ok = high_cosine_fraction >= 0.95 and median_ratio >= 1.2 and elapsed < 10.0
    _verdict(
        "criterion 09",
        ok,
        f"{counts.n_cells} cells x {counts.n_genes} genes: cosine>0.9 for "
        f"{high_cosine_fraction:.0%} of perturbations, median l1 ratio={median_ratio:.2f}, "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_10_oracle_equivalence_and_determinism():
    rng = np.random.default_rng(10_001)
    mismatches = 0
    for trial in range(1000):
        n = int(rng.integers(3, 9))
        p = int(rng.integers(2, 7))
        pair = random_pair(rng, n=n, p=p)
        if trial % 5 == 0:  # engineered exact ties via a duplicated truth row
            values = pair.truth.values.copy()
            values[1] = values[0]
            pair = pair.with_predicted(pair.predicted)
            pair = pair_from(pair.predicted.values, values)
        spec = ALL_FOUR[trial % 4]
        if not np.array_equal(compute_pds(pair, spec).ranks(), oracle_pds(pair, spec).ranks()):
            mismatches += 1

    pair = random_pair(rng, n=60, p=80)
    deterministic = True
    for spec in ALL_FOUR:
        serial = compute_pds(pair, spec, workers=1)
        parallel = compute_pds(pair, spec, workers=4)
        if serial != parallel:
            deterministic = False
        if pio.pds_report_payload(serial) != pio.pds_report_payload(parallel):
            deterministic = False
    ok = mismatches == 0 and deterministic
    _verdict(
        "criterion 10",
        ok,
        f"{mismatches} rank disagreements over 1000 instances (ties included); "
        f"serial == parallel reports: {deterministic}",
    )
