"""The benchmark's workloads: job lists, inputs drawn from the seed, output checks.

Each workload is a closed loop with one client: it issues top-level public
radwalk calls ("jobs") back to back, the way a research script does, and
issues the next job only when the previous one has returned.  One *pass* runs
the workload's job list once.  Pass ``p`` draws its inputs from
``random.Random("<problem>:<seed>:<p>")``, so inputs are a pure function of
the seed and no pass repeats an earlier pass's computation.

Why these four workloads:

* ``mc_short`` -- Monte Carlo with 2..8-step walks: per-trial stream set-up
  and Python per-trial overhead dominate; the exact layer is idle.
* ``mc_long`` -- Monte Carlo with 1e3..1.3e5-step walks: per-step drawing,
  decoding and the cumsum/hit kernel dominate; ``StepSequence.value`` runs
  about 1e5 times per ``monte_carlo_return`` job.
* ``mc_long_threads`` -- the ``mc_long`` job list at ``workers = nproc``: the
  only workload on the thread path of ``rng.map_trial_chunks``.
* ``desk_exact`` -- no Monte Carlo: exact oracles, drift/trend/mod-lemma
  checks, sequence tools, the per-step streaming walk path and CLI reports.

Output checks make a failed job mean something: every job has its own check,
Monte Carlo jobs are pooled per shape against exact values, ``desk_exact``
checks exact outputs by a second route, and for the acceptance seed (2025)
the first pass is compared byte for byte with ``pins.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from radwalk import cli, construction, exact, sequences, verify, walk

#: The acceptance seed; its first pass is pinned in ``pins.json``.
PIN_SEED = 2025

PINS_PATH = Path(__file__).with_name("pins.json")

#: Pooled Monte Carlo estimates must lie within this many standard errors of
#: the exact value.  Five, not the acceptance suite's four, because the bench
#: makes thousands of pooled checks over its seeds: at 4 sigma about one in
#: 16 000 checks fails by chance, at 5 sigma one in 1.7 million.
SIGMA_WINDOW = 5.0

FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

#: P(unit-step walk started at (2, 0) hits the origin within 8 steps), as
#: pinned by the acceptance suite (criterion 5).
HIT_R2_EXACT = Fraction(2791, 16384)


# ---------------------------------------------------------------------------
# Canonical output bytes
# ---------------------------------------------------------------------------


def plain(x):
    """JSON-ready form of a radwalk result or input, exact and deterministic."""
    if hasattr(x, "to_json_dict"):
        return plain(x.to_json_dict())
    if isinstance(x, sequences.StepSequence):
        return plain(x.to_config())
    if isinstance(x, walk.TrajectoryRecorder):
        return plain(x.rows)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, bytes):
        return hashlib.sha256(x).hexdigest()
    return x


def canonical_bytes(x) -> bytes:
    return json.dumps(plain(x), sort_keys=True, separators=(",", ":")).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


def _no_check(_result):
    return None


def _no_counts(_result):
    return {}


@dataclasses.dataclass
class Job:
    """One top-level public call (or a short fixed sequence of them).

    ``call`` looks the radwalk function up at call time, so a traced pass sees
    the tracer's wrappers.  ``pool`` names the shape whose Monte Carlo results
    are pooled against an exact value.
    """

    key: str
    inputs: dict
    call: Callable[[], object]
    check: Callable[[object], str | None] = _no_check
    counts: Callable[[object], dict] = _no_counts
    canon: Callable[[object], bytes] = canonical_bytes
    pool: str | None = None


def _lib_job(key, module, fn_name, *args, **kwargs) -> Job:
    def call():
        return getattr(module, fn_name)(*args, **kwargs)

    inputs = {"fn": f"{module.__name__}.{fn_name}", "args": plain(args), "kwargs": plain(kwargs)}
    return Job(key=key, inputs=inputs, call=call)


def _fail_if(cond: bool, reason: str):
    return reason if cond else None


def _first(*reasons):
    return next((r for r in reasons if r), None)


def _check_estimate(res, trials: int):
    """Invariants every Monte Carlo estimate must satisfy."""
    return _first(
        _fail_if(res.trials != trials, f"trials {res.trials} != {trials}"),
        _fail_if(not 0 <= res.successes <= trials, "successes out of range"),
        _fail_if(res.estimate != res.successes / trials, "estimate != successes/trials"),
        # 1e-12: wilson_interval rounds its bounds at 0 and n successes to
        # about 1e-18 inside the interval rather than exactly 0 and 1
        _fail_if(
            not res.ci.low - 1e-12 <= res.estimate <= res.ci.high + 1e-12,
            "estimate outside its CI",
        ),
    )


# ---------------------------------------------------------------------------
# Workload context
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Context:
    """Objects shared by every pass of one run: sizes, sequences, temp dir."""

    problem: str
    seed: int
    workers: int
    tiny: bool
    tmpdir: Path
    shared: dict

    def size(self, full, tiny):
        return tiny if self.tiny else full

    def rng(self, pass_index: int) -> random.Random:
        return random.Random(f"{self.problem}:{self.seed}:{pass_index}")


def _perm(rng: random.Random, k: int) -> list[int]:
    out = list(range(1, k + 1))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# mc_short
# ---------------------------------------------------------------------------


def _mc_short_shared(ctx: Context) -> dict:
    return {"const1": sequences.make_sequence("constant", value=1)}


def _mc_short_pass(ctx: Context, rng: random.Random, state: dict, pass_index: int) -> list[Job]:
    trials = ctx.size(500, 40)
    const1 = ctx.shared["const1"]
    jobs = []
    for j in range(ctx.size(4, 2)):
        for shape, n in (("mc_n2", 2), ("mc_n8", 8)):
            job = _lib_job(
                f"{shape}#{j}", walk, "monte_carlo_return", const1, n, trials,
                rng.getrandbits(32), workers=ctx.workers,
            )
            job.check = lambda r, t=trials: _check_estimate(r, t)
            job.counts = lambda r, n=n: {"trials": r.trials, "steps": r.trials * n}
            job.pool = shape
            jobs.append(job)
        job = _lib_job(
            f"hit_r2#{j}", verify, "hitting_time_experiment", 2,
            trials=trials, master_seed=rng.getrandbits(32), workers=ctx.workers,
        )
        job.check = lambda r, t=trials: _first(
            _check_estimate(r, t),
            _fail_if(r.horizon != 8, "horizon != 8"),
            _fail_if(r.exact != HIT_R2_EXACT, f"exact {r.exact} != {HIT_R2_EXACT}"),
        )
        job.counts = lambda r: {"trials": r.trials, "steps": r.trials * r.horizon}
        job.pool = "hit_r2"
        jobs.append(job)
    return jobs


def _mc_short_exact() -> dict:
    """Exact counterparts of the pooled shapes, computed by the exact oracle."""
    r2 = exact.hit_probability_2d([1] * 8, (2, 0), 8)
    if r2 != HIT_R2_EXACT:
        raise AssertionError(f"exact route gives {r2} for r=2, pinned {HIT_R2_EXACT}")
    return {
        "mc_n2": exact.hit_probability_2d([1, 1], (0, 0), 2),
        "mc_n8": exact.hit_probability_2d([1] * 8, (0, 0), 8),
        "hit_r2": HIT_R2_EXACT,
    }


# ---------------------------------------------------------------------------
# mc_long (and mc_long_threads: same jobs, more workers)
# ---------------------------------------------------------------------------


def _mc_long_shared(ctx: Context) -> dict:
    return {
        "floor1": sequences.make_sequence("floor-power", gamma=1),
        "pair23": construction.positive_bezout(2, 3),
    }


def _search_counts(est) -> dict:
    if est.evaluated_targets == 0:
        return {"trials": 0, "steps": 0}
    return {
        "trials": est.trials,
        "steps": est.trials * est.grid[-1] * est.pair.period,
    }


def _check_search(est, cap: int):
    return _first(
        _fail_if(est.status not in ("certified", "inconclusive"), f"status {est.status}"),
        _fail_if(est.grid[-1] != cap, "grid does not end at the cap"),
        _fail_if(not 0.0 <= est.worst_lb <= 1.0, "worst_lb out of [0, 1]"),
        _fail_if(est.status == "inconclusive" and est.n0 != cap, "inconclusive n0 != cap"),
    )


def _check_plan(res, rounds: int, cap: int):
    plan, seq = res
    n = 0
    for rp in plan.rounds:
        if rp.n_start != n or rp.n_end - rp.n_start != rp.pair.period * rp.n0:
            return f"round {rp.index} is not contiguous with its n0"
        if rp.pair.c1 * rp.pair.b1 - rp.pair.c2 * rp.pair.b2 != 1:
            return f"round {rp.index} breaks c1*b1 - c2*b2 = 1"
        n = rp.n_end
    return _first(
        _fail_if(len(plan.rounds) != rounds, f"{len(plan.rounds)} rounds != {rounds}"),
        _fail_if(seq.length != plan.n_end, "sequence length != plan n_end"),
        _fail_if(plan.rounds[0].estimate.evaluated_targets != 1, "round 0 did not search"),
        _check_search(plan.rounds[0].estimate, cap),
    )


def _mc_long_pass(ctx: Context, rng: random.Random, state: dict, pass_index: int) -> list[Job]:
    w = ctx.workers
    t_hit = ctx.size(512, 300)
    t_mc = ctx.size(24, 2)
    n_mc = ctx.size(100_000, 2_000)
    t_search = ctx.size(16, 2)
    cap = ctx.size(1 << 14, 1 << 8)
    floor1 = ctx.shared["floor1"]
    pair23 = ctx.shared["pair23"]

    def hit(j):
        job = _lib_job(
            f"hit_r10#{j}", verify, "hitting_time_experiment", 10,
            trials=t_hit, master_seed=rng.getrandbits(32), workers=w,
        )
        job.check = lambda r: _first(
            _check_estimate(r, t_hit), _fail_if(r.horizon != 1000, "horizon != 1000")
        )
        job.counts = lambda r: {"trials": r.trials, "steps": r.trials * r.horizon}
        return job

    def mc(j):
        job = _lib_job(
            f"mc_floor1#{j}", walk, "monte_carlo_return", floor1, n_mc, t_mc,
            rng.getrandbits(32), workers=w,
        )
        job.check = lambda r: _check_estimate(r, t_mc)
        job.counts = lambda r: {"trials": r.trials, "steps": r.trials * n_mc}
        return job

    def search(j):
        job = _lib_job(
            f"n0_23#{j}", construction, "estimate_N0", pair23, 0, trials=t_search,
            master_seed=rng.getrandbits(32), horizon_cap=cap, workers=w,
        )
        job.check = lambda r: _first(
            _check_search(r, cap), _fail_if(r.evaluated_targets != 1, "radius 0 has one target")
        )
        job.counts = _search_counts
        return job

    def build(j):
        build_seed, eval_seed = rng.getrandbits(32), rng.getrandbits(32)
        key = f"build#{j}"

        def build_call():
            prefix = construction.GoodSetPrefix(FIRST_PRIMES)
            return construction.build_recurrent_sequence(
                prefix, 2, master_seed=build_seed, trials=t_search, horizon_cap=cap, workers=w
            )

        def evaluate_call():
            return construction.evaluate_plan(state[key][0], t_search, eval_seed, workers=w)

        build_job = Job(
            key=key,
            inputs={"fn": "radwalk.construction.build_recurrent_sequence",
                    "args": [FIRST_PRIMES, 2],
                    "kwargs": {"master_seed": build_seed, "trials": t_search,
                               "horizon_cap": cap, "workers": w}},
            call=build_call,
            check=lambda r: _check_plan(r, 2, cap),
            counts=lambda r: {
                "trials": sum(_search_counts(rp.estimate)["trials"] for rp in r[0].rounds),
                "steps": sum(_search_counts(rp.estimate)["steps"] for rp in r[0].rounds),
            },
            canon=lambda r: canonical_bytes(r[0]),
        )
        evaluate_job = Job(
            key=f"evaluate#{j}",
            inputs={"fn": "radwalk.construction.evaluate_plan", "args": [f"<plan of {key}>"],
                    "kwargs": {"trials": t_search, "master_seed": eval_seed, "workers": w}},
            call=evaluate_call,
            check=lambda r: _first(
                _fail_if(len(r.per_round) != 2, "evaluation does not cover 2 rounds"),
                _fail_if(
                    any(not 0 <= x.successes <= t_search for x in r.per_round),
                    "round successes out of range",
                ),
            ),
            counts=lambda r: {"trials": r.trials, "steps": r.trials * state[key][0].n_end},
        )
        return [build_job, evaluate_job]

    # 10 jobs; the two mc_floor1 jobs are the slowest, so the p90 tail (one
    # job per pass beyond it) falls inside their group
    jobs = []
    for j in range(2):
        jobs += [hit(2 * j), mc(j), hit(2 * j + 1), search(j)]
    return jobs + build(0)


# ---------------------------------------------------------------------------
# desk_exact
# ---------------------------------------------------------------------------


def _nondecreasing_list(rng: random.Random, n: int) -> list[int]:
    """1 = a_1 <= a_2 <= ... with unit increments at random indices."""
    out, v = [], 1
    for _ in range(n):
        out.append(v)
        v += rng.getrandbits(1)
    return out


def _desk_shared(ctx: Context) -> dict:
    return {"const1": sequences.make_sequence("constant", value=1)}


def _check_pmf2d(p):
    """pmf_2d against the rotated product of two pmf_1d laws:
    P(X=x, Y=y) = P1(x+y) * P1(x-y), since u = x+y and v = x-y are independent
    signed sums of the same steps."""
    law = exact.pmf_1d(list(p.steps)).as_dict()
    if sum(p.weights) != p.total:
        return "pmf_2d masses do not sum to 1"
    for (x, y), w in zip(p.points, p.weights):
        if Fraction(w, p.total) != law.get(x + y, 0) * law.get(x - y, 0):
            return f"pmf_2d({x},{y}) differs from the rotated pmf_1d product"
    support = sum(1 for u in law for v in law if (u + v) % 2 == 0)
    return _fail_if(support != len(p.points), "pmf_2d support differs from the rotated product")


def _check_profile(profile, d, m, residues):
    if sum(profile) != 1:
        return "residue masses do not sum to 1"
    for r in residues:
        via_residue = exact.mod_probability(d, m, r, method="residue")
        via_full = exact.mod_probability(d, m, r, method="full")
        if not profile[r] == via_residue == via_full:
            return f"residue {r}: profile, residue and full routes disagree"
    return None


def _interval_sweep(cases):
    return [exact.max_interval_probability(combo, D) for D, combo in cases]


def _check_sweep(results, cases):
    for (D, combo), (sup, _x) in zip(cases, results):
        if sup * sup * len(combo) > Fraction(16, 25):
            return f"criterion-3 violation: D={D}, steps={combo}, sup={sup}"
    return None


def _cli_job(key: str, argv: list[str], base: Path, check) -> Job:
    def call():
        try:
            return cli.main(argv + ["--out", str(base)])
        except SystemExit as exc:  # argparse rejects bad flags by exiting
            return exc.code

    def outputs():
        return sorted(p for p in base.parent.glob(base.name + ".*"))

    def read(rc):
        return rc, {p.suffix: p.read_bytes() for p in outputs()}

    def full_check(rc):
        rc, files = read(rc)
        if rc != 0:
            return f"exit code {rc}"
        if ".json" not in files:
            return "no JSON report"
        doc = json.loads(files[".json"])
        return _first(_fail_if(doc["status"] != "ok", f"status {doc['status']}"), check(doc["record"]))

    return Job(
        key=key,
        inputs={"fn": "radwalk.cli.main", "argv": argv},
        call=call,
        check=full_check,
        counts=lambda rc: {"report_bytes": sum(p.stat().st_size for p in outputs())},
        canon=lambda rc: b"".join(
            s.encode() + b"\0" + data for s, data in sorted(read(rc)[1].items())
        ) + str(rc).encode(),
    )


def _desk_pass(ctx: Context, rng: random.Random, state: dict, pass_index: int) -> list[Job]:
    jobs = []
    add = jobs.append

    d1 = _perm(rng, ctx.size(120, 12))
    job = _lib_job("pmf_1d#0", exact, "pmf_1d", d1)
    job.check = lambda p: _first(
        _fail_if(sum(p.weights) != p.total, "pmf_1d masses do not sum to 1"),
        _fail_if(p.weights != p.weights[::-1], "pmf_1d is not symmetric"),
    )
    add(job)

    a2 = _perm(rng, ctx.size(16, 5))
    job = _lib_job("pmf_2d#0", exact, "pmf_2d", a2)
    job.check = _check_pmf2d
    add(job)

    cases = []
    for _ in range(ctx.size(240, 20)):
        D = rng.choice((1, 2))
        m = rng.randint(1, 10)
        cases.append((D, sorted(rng.randint(D, 3 * D) for _ in range(m))))
    add(Job(
        key="interval_sweep#0",
        inputs={"fn": "radwalk.exact.max_interval_probability", "cases": cases},
        call=lambda: _interval_sweep(cases),
        check=lambda r: _check_sweep(r, cases),
    ))

    dm = _perm(rng, ctx.size(100, 10))
    modulus = ctx.size(1024, 64)
    residues = sorted(rng.sample(range(modulus), 3))
    job = _lib_job("mod_profile#0", exact, "mod_probability_profile", dm, modulus)
    job.check = lambda prof: _check_profile(prof, dm, modulus, residues)
    add(job)

    ah = _perm(rng, ctx.size(12, 5))
    target = (rng.randint(-3, 3), rng.randint(-3, 3))
    horizon = len(ah)
    job = _lib_job("hit_2d#0", exact, "hit_probability_2d", ah, target, horizon)
    job.check = lambda p: _first(
        _fail_if(not 0 <= p <= 1, "probability out of [0, 1]"),
        _fail_if(p < exact.pmf_2d(ah).mass(target), "P(hit by h) < P(S_h = target)"),
    )
    add(job)

    dh = _perm(rng, ctx.size(60, 8))
    root = int(sum(x * x for x in dh) ** 0.5)
    t = rng.randint(2 * root, 3 * root)
    job = _lib_job("hoeffding#0", exact, "hoeffding_tail", dh, t)
    job.check = lambda h: _first(
        _fail_if(h.exact_tail is None, "exact tail missing"),
        _fail_if(h.exact_tail is not None and h.exact_tail > h.bound_raw, "Hoeffding bound broken"),
    )
    add(job)

    radius = ctx.size(200, 12)
    job = _lib_job("supermartingale#0", verify, "verify_supermartingale", radius)
    job.check = lambda r: _first(
        _fail_if(not r.passed, "drift check failed"),
        _fail_if(r.points != 2 * radius * (radius + 1), "wrong grid size"),
    )
    add(job)

    k_max = ctx.size(40, 10)
    job = _lib_job("sup_pmf_trend#0", verify, "sup_pmf_trend", k_max)
    job.check = lambda r: _first(
        _fail_if(not r.passed, "trend check failed"),
        _fail_if(len(r.rows) != k_max, "wrong row count"),
    )
    add(job)

    k_mod = ctx.size(128, 16)
    job = _lib_job("mod_lemma#0", verify, "verify_mod_lemma", _perm(rng, k_mod), k_mod)
    # criterion 4's frozen values: sup over residues of steps 1..k mod k is 2/k
    job.check = lambda r: _fail_if(r.sup != Fraction(2, k_mod), f"sup {r.sup} != 2/{k_mod}")
    add(job)

    n_seq = ctx.size(1 << 14, 256)
    values = _nondecreasing_list(rng, n_seq)
    seq = sequences.make_sequence("explicit-list", values=values)
    job = _lib_job("doubling#0", sequences, "extract_doubling_subsequence", seq, n_seq)
    job.check = lambda c: _first(
        _fail_if(not c.verify(seq), "certificate does not double"),
        _fail_if(c.indices[-1] != n_seq, "certificate does not end at n"),
    )
    add(job)
    job = _lib_job("run_length#0", sequences, "run_length_decompose", seq, n_seq)
    job.check = lambda d: _fail_if(d.expand() != values, "decomposition does not expand back")
    add(job)
    n_rs = ctx.size(1 << 12, 128)
    job = _lib_job("rs_monotone#0", sequences, "check_rs_monotone", seq, 2, 1, n_rs)
    job.check = lambda r: _fail_if(not r.ok, "non-decreasing prefix reported violations")
    add(job)

    const1 = ctx.shared["const1"]
    n_walk = ctx.size(20_000, 500)
    walk_seed = rng.getrandbits(32)
    targets = [(0, 0), (rng.randint(-4, 4), rng.randint(-4, 4))]
    job = _lib_job("visits#0", walk, "visit_statistics", const1, n_walk, walk_seed, targets)
    job.counts = lambda r: {"trials": 1, "steps": n_walk}
    add(job)
    job = _lib_job("simulate_recording#0", walk, "simulate_recording", const1, n_walk, walk_seed)
    job.counts = lambda r: {"trials": 1, "steps": n_walk}

    def check_recording(res):
        summary, rec = res
        if len(rec) != n_walk:
            return "trajectory length != n"
        last = rec.rows[-1]
        if (last[1], last[2]) != (summary.final.x, summary.final.y):
            return "trajectory does not end at the summary's final position"
        visits = state.get("visits#0")
        if visits is None:
            return None
        for stats in visits.per_target:
            hits = [r[0] for r in rec.rows if (r[1], r[2]) == stats.target]
            if (len(hits), hits[0] if hits else None) != (stats.count, stats.first_hit):
                return f"visit counts at {stats.target} differ between the two routes"
        return None

    job.check = check_recording
    add(job)

    csv_path = ctx.tmpdir / f"trajectory-{pass_index}.csv"

    def export_call():
        _summary, rec = state["simulate_recording#0"]
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            rec.export_csv(fh)
        return csv_path.read_bytes()

    add(Job(
        key="export_csv#0",
        inputs={"fn": "radwalk.walk.TrajectoryRecorder.export_csv",
                "args": ["<recorder of simulate_recording#0>"]},
        call=export_call,
        check=lambda data: _fail_if(data.count(b"\n") != n_walk + 1, "CSV row count != n + 1"),
        counts=lambda data: {"export_bytes": len(data)},
        canon=lambda data: data,
    ))

    base = ctx.tmpdir / f"p{pass_index}"
    d_cli = _perm(rng, ctx.size(24, 6))
    add(_cli_job(
        "cli_pmf1d#0", ["exact", "pmf1d", "--d", ",".join(map(str, d_cli)), "--format", "both"],
        base.with_name(base.name + "-pmf1d"),
        lambda rec: _fail_if(sum(Fraction(m) for m in rec["pmf"].values()) != 1, "masses != 1"),
    ))
    k_cli = ctx.size(32, 8)
    add(_cli_job(
        "cli_modlemma#0",
        ["verify", "modlemma", "--d", ",".join(map(str, _perm(rng, k_cli))), "--m", str(k_cli)],
        base.with_name(base.name + "-modlemma"),
        lambda rec: _fail_if(Fraction(rec["sup"]) != Fraction(2, k_cli), "sup != 2/k"),
    ))
    n_dbl = ctx.size(4096, 64) + rng.randrange(64)
    add(_cli_job(
        "cli_doubling#0",
        ["sequence", "doubling", "--seq", '{"family":"floor-power","params":{"gamma":"1/2"}}',
         "--n", str(n_dbl), "--format", "both"],
        base.with_name(base.name + "-doubling"),
        lambda rec: _fail_if(rec["indices"][-1] != n_dbl, "certificate does not end at n"),
    ))
    a_cli = _perm(rng, ctx.size(8, 4))
    tx, ty = rng.randint(-2, 2), rng.randint(-2, 2)
    add(_cli_job(
        "cli_hit#0",
        ["exact", "hit", "--a", ",".join(map(str, a_cli)), f"--target={tx},{ty}",
         "--horizon", str(len(a_cli))],
        base.with_name(base.name + "-hit"),
        lambda rec: _fail_if(not 0 <= Fraction(rec["probability"]) <= 1, "probability out of range"),
    ))
    d_elo = sorted(rng.randint(1, 3) for _ in range(ctx.size(10, 4)))
    add(_cli_job(
        "cli_elo#0",
        ["verify", "elo", "--d", ",".join(map(str, d_elo)), "--half-width", "1"],
        base.with_name(base.name + "-elo"),
        lambda rec: _fail_if(not rec["passed"], "criterion-3 bound failed"),
    ))
    b1 = rng.choice(FIRST_PRIMES)
    b2 = rng.choice([p for p in FIRST_PRIMES if p != b1])
    add(_cli_job(
        "cli_bezout#0",
        ["construct", "bezout", "--b1", str(b1), "--b2", str(b2)],
        base.with_name(base.name + "-bezout"),
        lambda rec: _fail_if(rec["c1"] * rec["b1"] - rec["c2"] * rec["b2"] != 1, "not Bezout"),
    ))
    return jobs


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    """A job list and how to run it.

    ``problem`` seeds the inputs and names the pins (``mc_long_threads``
    shares ``mc_long``'s); ``workers`` of None means ``nproc``.  ``tail_pct``
    is fixed per workload so the tail metric compares across runs.  Job
    counts per pass are chosen so that the median and the tail sit inside a
    group of same-shape jobs, not on a boundary between two groups: 12 similar
    jobs (``mc_short``), 10 with the two slowest alike (``mc_long``), 21
    distinct (``desk_exact``).
    """

    name: str
    problem: str
    workers: int | None
    tail_pct: float
    shared: Callable[[Context], dict]
    build: Callable
    pooled_exact: Callable[[], dict] | None = None

    @property
    def min_jobs(self) -> int:
        """Jobs needed for at least ten beyond the tail percentile."""
        return math.ceil(10 * 100 / (100 - self.tail_pct) - 1e-9)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_short", "mc_short", 1, 80.0, _mc_short_shared, _mc_short_pass, _mc_short_exact,
        ),
        Workload(
            "mc_long", "mc_long", 1, 90.0, _mc_long_shared, _mc_long_pass,
        ),
        Workload(
            "mc_long_threads", "mc_long", None, 90.0, _mc_long_shared, _mc_long_pass,
        ),
        Workload(
            "desk_exact", "desk_exact", 1, 87.5, _desk_shared, _desk_pass,
        ),
    )
}


def prepare(name: str, seed: int, tmpdir: Path, *, tiny: bool = False, workers=None) -> Context:
    """Set-up of one run: the objects every pass shares."""
    wl = WORKLOADS[name]
    if workers is None:
        workers = wl.workers or os.cpu_count() or 1
    ctx = Context(wl.problem, seed, workers, tiny, tmpdir, {})
    ctx.shared = wl.shared(ctx)
    return ctx


def twin_workers(name: str) -> int | None:
    """Worker count of the other workload that runs the same job list, or None.

    ``mc_long`` and ``mc_long_threads`` differ only in ``workers``; a run of
    either re-runs its pass 0 at the other's count and compares the bytes of
    every output (criterion 10).
    """
    wl = WORKLOADS[name]
    for other in WORKLOADS.values():
        if other.name != name and other.problem == wl.problem:
            return other.workers or os.cpu_count() or 1
    return None


def jobs_for_pass(name: str, ctx: Context, pass_index: int, state: dict) -> list[Job]:
    return WORKLOADS[name].build(ctx, ctx.rng(pass_index), state, pass_index)


def load_pins() -> dict:
    if not PINS_PATH.is_file():
        return {}
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))
