"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria with statistical content use the pinned master seed below; their
tolerances (4-sigma windows, Wilson floors) are stated inline.  Criterion 7
is retained in its full stated form even though its certification level is
out of desk-scale reach (hit probabilities of exact lattice points grow
logarithmically in the horizon; see the discussion in
``radwalk.construction``): the test runs the faithful pipeline, prints the
measured per-round numbers, and is expected to fail honestly rather than be
weakened.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from radwalk import construction as cn
from radwalk import exact
from radwalk import rng as rw
from radwalk import sequences as sq
from radwalk import verify as vf
from radwalk import walk as wk

SEED = 2025

FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

#: Exact worst residue-class masses for steps (1..k) mod k, frozen from the
#: independent dense-enumeration oracle run (cross-checked in test_exact).
MODLEMMA_EXPECTED_SUP = {
    4: Fraction(1, 2),
    8: Fraction(1, 4),
    16: Fraction(1, 8),
    32: Fraction(1, 16),
    64: Fraction(1, 32),
    128: Fraction(1, 64),
}


def report(num: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'}: {detail}")


def canonical_bytes(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Shared experiment runners (criteria 5-7 reuse these for the determinism
# criterion, which re-runs them with a different worker count)
# ---------------------------------------------------------------------------

CONST1 = sq.make_sequence("constant", value=1)


def run_crit5_mc(workers: int) -> tuple[dict, float]:
    t0 = time.perf_counter()
    est = wk.monte_carlo_return(CONST1, 2, 100_000, SEED, (0, 0), workers=workers)
    return est.to_json_dict(), time.perf_counter() - t0


def run_crit5_hit(workers: int) -> tuple[dict, float]:
    t0 = time.perf_counter()
    res = vf.hitting_time_experiment(2, trials=100_000, master_seed=SEED, workers=workers)
    return res.to_json_dict(), time.perf_counter() - t0


def run_crit6(workers: int) -> tuple[dict, float]:
    t0 = time.perf_counter()
    out = {}
    for r in (5, 10):
        res = vf.hitting_time_experiment(r, trials=10_000, master_seed=SEED, workers=workers)
        out[str(r)] = res.to_json_dict()
    return out, time.perf_counter() - t0


def run_crit7(workers: int) -> tuple[cn.ConstructionPlan, cn.PlanEvaluation, dict, float]:
    t0 = time.perf_counter()
    prefix = cn.GoodSetPrefix(FIRST_PRIMES)
    plan, _seq = cn.build_recurrent_sequence(
        prefix,
        3,
        master_seed=SEED,
        trials=400,
        confidence=0.95,
        horizon_cap=1 << 14,
        workers=workers,
    )
    evaluation = cn.evaluate_plan(plan, 1000, SEED + 7, level=0.95, workers=workers)
    doc = {"plan": plan.to_json_dict(), "evaluation": evaluation.to_json_dict()}
    return plan, evaluation, doc, time.perf_counter() - t0


@pytest.fixture(scope="module")
def crit5_mc_run():
    return run_crit5_mc(workers=1)


@pytest.fixture(scope="module")
def crit5_hit_run():
    return run_crit5_hit(workers=1)


@pytest.fixture(scope="module")
def crit6_run():
    return run_crit6(workers=1)


@pytest.fixture(scope="module")
def crit7_run():
    return run_crit7(workers=1)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_exact_oracle_ground_truth():
    t0 = time.perf_counter()
    p4 = exact.pmf_2d([1, 1, 1, 1]).mass((0, 0))
    law = exact.pmf_1d([1, 2, 3]).as_dict()
    expected_law = {
        -6: Fraction(1, 8),
        -4: Fraction(1, 8),
        -2: Fraction(1, 8),
        0: Fraction(1, 4),
        2: Fraction(1, 8),
        4: Fraction(1, 8),
        6: Fraction(1, 8),
    }
    m = exact.mod_probability([1, 2, 3], 3, 0)
    elapsed = time.perf_counter() - t0
    ok = p4 == Fraction(9, 64) and law == expected_law and m == Fraction(1, 2)
    ok = ok and elapsed < 1.0
    report(1, ok, f"P(S4=0)={p4}, 8-pattern law ok, mod sup={m} ({elapsed:.3f}s < 1s)")
    assert p4 == Fraction(9, 64)
    assert law == expected_law
    assert m == Fraction(1, 2)
    assert elapsed < 1.0


def test_criterion_02_drift_grid():
    t0 = time.perf_counter()
    rep = vf.verify_supermartingale(200)
    elapsed = time.perf_counter() - t0
    # two independent routes at the unit points: the direct four-neighbor
    # average of the potential must reproduce 126/e^5
    target = 126.0 * math.exp(-5.0)
    neighbor_ok = all(
        abs(math.exp(4 * vf.supermartingale_delta(x, y).delta_direct) - target)
        <= 1e-12 * target
        for x, y in ((1, 0), (-1, 0), (0, 1), (0, -1))
    )
    neighbor = vf.supermartingale_delta(1, 0)
    ok = (
        rep.passed
        and rep.nonpositive
        and rep.identity_failures == 0
        and rep.max_agreement_gap <= 1e-12
        and neighbor_ok
        and elapsed < 10.0
    )
    report(
        2,
        ok,
        f"{rep.points} points, max Delta={rep.max_delta:.3g}, "
        f"agreement gap={rep.max_agreement_gap:.2e} <= 1e-12, "
        f"exp(4D) at unit={neighbor.exp4_closed:.12f} ({elapsed:.2f}s < 10s)",
    )
    assert rep.nonpositive, "found a positive drift value"
    assert rep.identity_failures == 0
    assert rep.max_agreement_gap <= 1e-12
    assert neighbor_ok
    assert rep.passed
    assert elapsed < 10.0


def test_criterion_03_interval_bound_exhaustive():
    t0 = time.perf_counter()
    checked = 0
    violations = []
    for D in (1, 2):
        entries = range(D, 3 * D + 1)
        for m in range(1, 11):
            for combo in itertools.combinations_with_replacement(entries, m):
                sup, _ = exact.max_interval_probability(list(combo), D)
                checked += 1
                if sup * sup * m > Fraction(16, 25):
                    violations.append((D, combo, sup))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 120.0
    report(
        3,
        ok,
        f"{checked} step multisets (m<=10, entries in D..3D, D in {{1,2}}), "
        f"{len(violations)} violations ({elapsed:.1f}s < 120s)",
    )
    assert violations == []
    assert elapsed < 120.0


def test_criterion_04_mod_lemma_trend():
    t0 = time.perf_counter()
    ratios = {}
    for k in (4, 8, 16, 32, 64, 128):
        rep = vf.verify_mod_lemma(list(range(1, k + 1)), k, cap=10.0)
        assert rep.sup == MODLEMMA_EXPECTED_SUP[k], f"sup changed at k={k}"
        ratios[k] = rep.ratio
    elapsed = time.perf_counter() - t0
    bounded = all(r <= 10.0 for r in ratios.values())
    trend = all(
        ratios[b] <= 1.2 * ratios[a] for a, b in ((16, 32), (32, 64), (64, 128))
    )
    ok = bounded and trend and elapsed < 60.0
    pretty = ", ".join(f"k={k}:{v:.3f}" for k, v in ratios.items())
    report(4, ok, f"ratios {pretty}; cap 10, trend from k=16 within 20% ({elapsed:.1f}s)")
    assert bounded
    assert trend
    assert elapsed < 60.0


def test_criterion_05_mc_vs_exact(crit5_mc_run, crit5_hit_run):
    mc_doc, mc_elapsed = crit5_mc_run
    hit_doc, hit_elapsed = crit5_hit_run
    est = mc_doc["estimate"]
    sigma_mc = (0.25 * 0.75 / 100_000) ** 0.5
    mc_ok = abs(est - 0.25) <= 4 * sigma_mc

    p = float(Fraction(hit_doc["exact"]))
    assert Fraction(hit_doc["exact"]) == Fraction(2791, 16384)
    sigma_hit = (p * (1 - p) / 100_000) ** 0.5
    hit_ok = abs(hit_doc["estimate"] - p) <= 4 * sigma_hit
    elapsed = mc_elapsed + hit_elapsed
    ok = mc_ok and hit_ok and elapsed < 60.0
    report(
        5,
        ok,
        f"return mc={est:.5f} (1/4 +- {4 * sigma_mc:.5f}); "
        f"hit r=2 mc={hit_doc['estimate']:.5f} "
        f"(exact {p:.5f} +- {4 * sigma_hit:.5f}) ({elapsed:.0f}s < 60s)",
    )
    assert mc_ok
    assert hit_ok
    assert elapsed < 60.0


def test_criterion_06_hitting_floor(crit6_run):
    doc, elapsed = crit6_run
    lbs = {r: doc[str(r)]["ci"]["low"] for r in (5, 10)}
    ok = all(lb > 0.15 for lb in lbs.values()) and elapsed < 120.0
    report(
        6,
        ok,
        f"Wilson lower bounds r=5: {lbs[5]:.4f}, r=10: {lbs[10]:.4f}; floor 0.15 "
        f"(10^4 trials, seed {SEED}, {elapsed:.0f}s < 120s)",
    )
    assert lbs[5] > 0.15
    assert lbs[10] > 0.15
    assert elapsed < 120.0


def test_criterion_06_r5_estimate_against_exact(crit6_run):
    """The r = 5 estimate within 4 sigma of the exact first passage, which
    the renewal computes at horizon 125 (the report itself carries exact
    values only up to r = 2)."""
    res = crit6_run[0]["5"]
    p = float(exact.hit_probability_2d([1] * 125, (5, 0), 125))
    sigma = (p * (1 - p) / res["trials"]) ** 0.5
    report(6, abs(res["estimate"] - p) <= 4 * sigma,
           f"r=5 mc={res['estimate']:.5f} (exact {p:.5f} +- {4 * sigma:.5f})")
    assert abs(res["estimate"] - p) <= 4 * sigma


def test_criterion_07_recurrent_construction(crit7_run):
    """Full-force criterion, kept faithful: every round's horizon search must
    certify the 1/2 hit level at 95% confidence, and fresh walks must hit the
    origin inside every round's segment with Wilson lower bound >= 0.40.

    The certified 1/2 level lies at a few times 1e22 periods even for the
    first round (log-speed recurrence, extrapolated by the local-CLT slope
    1/(17*pi) of the Green's function), so at any runnable cap this criterion
    fails; it is reported honestly rather than weakened.  The first round's
    fraction does clear 0.40; later rounds start far from the origin and
    cannot return within their capped segments.
    """
    plan, evaluation, _doc, elapsed = crit7_run
    statuses = [r.estimate.status for r in plan.rounds]
    lbs = [r.wilson_lb for r in evaluation.per_round]
    certified = all(s == "certified" for s in statuses)
    floors = all(lb >= 0.40 for lb in lbs)
    ok = certified and floors and elapsed < 600.0
    report(
        7,
        ok,
        f"statuses={statuses}, per-round Wilson lbs="
        f"[{', '.join(f'{x:.3f}' for x in lbs)}] vs floor 0.40 "
        f"(cap 2^14 periods, 400 search trials, 1000 fresh walks, {elapsed:.0f}s)",
    )
    assert certified, (
        "horizon search did not certify the 1/2 hit level for every round: "
        f"statuses={statuses}, worst lower bounds="
        f"{[r.estimate.worst_lb for r in plan.rounds]}"
    )
    assert floors, f"per-round fresh-walk Wilson lower bounds {lbs} not all >= 0.40"
    assert elapsed < 600.0


def test_criterion_08_doubling_extraction():
    t0 = time.perf_counter()
    linear = sq.make_sequence("floor-power", gamma=1)
    cert16 = sq.extract_doubling_subsequence(linear, 16)
    cert1024 = sq.extract_doubling_subsequence(linear, 1024)
    ratio_ok = True
    for p in (4, 10):
        cert = sq.extract_doubling_subsequence(linear, 2**p)
        ratio_ok = ratio_ok and cert.ratio == 1 + Fraction(1, p)
    elapsed = time.perf_counter() - t0
    ok = (
        cert16.indices == (1, 2, 4, 8, 16)
        and cert16.size == 5
        and cert1024.size == 11
        and ratio_ok
        and elapsed < 1.0
    )
    report(
        8,
        ok,
        f"n=16 -> {cert16.indices} (K=5); n=1024 -> K={cert1024.size}; "
        f"K/log2(n) = 1 + 1/log2(n) on powers of two ({elapsed:.3f}s < 1s)",
    )
    assert cert16.indices == (1, 2, 4, 8, 16)
    assert cert1024.size == 11
    assert ratio_ok
    assert elapsed < 1.0


def test_criterion_09_transience_signal():
    t0 = time.perf_counter()
    n = 100_000
    walks = 1000
    cutoff = 1000
    steps = np.arange(1, n + 1, dtype=np.int64)
    late = 0
    for t in range(walks):
        codes = rw.direction_codes(SEED, t, n)
        dx = steps * ((codes == 0).astype(np.int64) - (codes == 1).astype(np.int64))
        dy = steps * ((codes == 2).astype(np.int64) - (codes == 3).astype(np.int64))
        xs = np.cumsum(dx)
        ys = np.cumsum(dy)
        if bool(np.any((xs[cutoff:] == 0) & (ys[cutoff:] == 0))):
            late += 1
    elapsed = time.perf_counter() - t0
    frac = late / walks
    ok = frac <= 0.05
    report(
        9,
        ok,
        f"growing steps a_k=k: {late}/{walks} walks visit 0 after step {cutoff} "
        f"({frac:.1%} <= 5%, seed {SEED}, {elapsed:.0f}s)",
    )
    assert frac <= 0.05


def test_criterion_10_worker_count_determinism(crit5_mc_run, crit5_hit_run, crit6_run, crit7_run):
    t0 = time.perf_counter()
    same_mc = canonical_bytes(run_crit5_mc(workers=2)[0]) == canonical_bytes(crit5_mc_run[0])
    same_hit = canonical_bytes(run_crit5_hit(workers=2)[0]) == canonical_bytes(crit5_hit_run[0])
    same_c6 = canonical_bytes(run_crit6(workers=2)[0]) == canonical_bytes(crit6_run[0])
    _, _, doc7, _ = crit7_run
    _, _, doc7_w2, _ = run_crit7(workers=2)
    same_c7 = canonical_bytes(doc7_w2) == canonical_bytes(doc7)
    elapsed = time.perf_counter() - t0
    ok = same_mc and same_hit and same_c6 and same_c7
    report(
        10,
        ok,
        f"byte-identical re-runs with workers=2: return-mc={same_mc}, "
        f"hitting={same_hit}, hitting-floor={same_c6}, construction={same_c7} "
        f"({elapsed:.0f}s)",
    )
    assert same_mc
    assert same_hit
    assert same_c6
    assert same_c7
