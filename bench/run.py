#!/usr/bin/env python3
"""Benchmark of radwalk, end to end and layer by layer.

Run from the repository root::

    python3 bench/run.py --workload mc_short --seed 2025 --seconds 20 --trace 0

One process, one closed-loop client: the workload's job list (see
``workloads.py``) runs pass after pass, each job issued when the previous one
returned, until ``--seconds`` have passed and enough jobs ran for the tail
percentile.  Every job's output is checked.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it carry host metadata and a summary.

``--trace 0`` reports the end-to-end metrics over all passes, each pass's
times scaled to a reference host speed by a calibration loop run between its
jobs (see ``_run_pass``).  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
passes (see ``spans.py``), plus ``trace_overhead_frac``.  Count and time
metrics of a layer are per pass.  Every run writes its pass and job times to
``.bench_out/``, and a traced run its spans too.

The program is imported from ``src/`` of the checkout this file sits in; the
run fails (exit code 2, no result line) when that source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 2025
SETUP_PROBES = 7
#: No new pass starts after this many seconds, so a run ends within 180 s.
HARD_STOP_S = 140.0
#: Reference time of the calibration loop (its fast-state time on a 2-vCPU
#: x86-64 VM with Python 3.11).  End-to-end times are reported at this host
#: speed; see ``_run_pass``.
CALIBRATION_REF_MS = 3.4

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "trials_per_s": "1/s",
    "steps_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "rng.setup_us_per_trial": "us",
    "rng.draw_ns_per_code": "ns",
    "rng.trials": "count",
    "rng.codes_drawn": "count",
    "rng.chunks": "count",
    "rng.chunk_busy_s": "s",
    "rng.map_wait_s": "s",
    "rng.parallel_efficiency": "ratio",
    "walk.mc_trial_overhead_us": "us",
    "walk.mc_kernel_ns_per_step": "ns",
    "walk.stream_ns_per_step": "ns",
    "walk.export_ms": "ms",
    "walk.export_bytes": "bytes",
    "verify.hitting_trial_overhead_us": "us",
    "verify.hitting_kernel_ns_per_step": "ns",
    "verify.drift_ns_per_point": "ns",
    "verify.trend_ms": "ms",
    "verify.mod_lemma_ms": "ms",
    "exact.pmf_1d_ms": "ms",
    "exact.pmf_1d_cells": "count",
    "exact.pmf_2d_ms": "ms",
    "exact.pmf_2d_points": "count",
    "exact.interval_us_per_call": "us",
    "exact.mod_profile_ms": "ms",
    "exact.hit2d_ms": "ms",
    "construction.search_ns_per_step": "ns",
    "construction.evaluate_ns_per_step": "ns",
    "construction.search_useful_frac": "ratio",
    "construction.searches_skipped": "count",
    "sequences.value_calls": "count",
    "sequences.value_ns_per_call": "ns",
    "sequences.doubling_ms": "ms",
    "cli.commands": "count",
    "cli.self_ms_per_command": "ms",
    "cli.report_bytes": "bytes",
    "trace_overhead_frac": "ratio",
    "failed_frac": "ratio",
}

_now = time.perf_counter


def _use_checkout_source() -> bool:
    """Put this checkout's ``src`` first on the path; False when it is missing."""
    src = ROOT / "src"
    if not (src / "radwalk" / "__init__.py").is_file():
        print(f"bench: no radwalk source under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    return True


# ---------------------------------------------------------------------------
# Host metadata
# ---------------------------------------------------------------------------


def _cpu_times():
    """(steal, total) jiffies from /proc/stat, or None where it is unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _calibration_ms() -> float:
    """A fixed pure-Python loop; its time between jobs tracks host speed.

    Integer arithmetic, then dict inserts and a keyed sort: radwalk's jobs
    are interpreter and allocator work around numpy calls, and on a contended
    host this mix slows by about the jobs' factor (log-log slope of job time
    on loop time 1.05, against 1.21 for the arithmetic alone and 0.80 for
    the dict work alone; 1245 jobs on a 2-vCPU x86-64 VM).
    """
    t0 = _now()
    acc = 0
    for i in range(40_000):
        acc += i * i
    table = {}
    for i in range(4_000):
        table[(i * 7919) & 65535] = (i, str(i))
    sorted(table.items(), key=lambda kv: kv[1][0] ^ 1234)
    return (_now() - t0) * 1e3


def _host(calibration, cpu_start, cpu_end) -> dict:
    import numpy

    steal = None
    if cpu_start and cpu_end and cpu_end[1] > cpu_start[1]:
        steal = (cpu_end[0] - cpu_start[0]) / (cpu_end[1] - cpu_start[1])
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "calibration_ms_median": statistics.median(calibration),
        "calibration_ms_min": min(calibration),
        "calibration_ms_max": max(calibration),
        "steal_frac": steal,
    }


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------


class JobRecord:
    __slots__ = ("key", "pool", "pass_index", "seconds", "factor", "counts", "failure",
                 "digest", "mc")

    def __init__(self, key, pool, pass_index, seconds, factor):
        self.key, self.pool, self.pass_index = key, pool, pass_index
        self.seconds, self.factor = seconds, factor
        self.counts, self.failure, self.digest, self.mc = {}, None, None, None


def _run_pass(jobs, state, pass_index, tracer, calibration):
    """Issue the jobs back to back; returns (one (job, result, seconds, error)
    per job, the pass's speed factor) and appends every calibration time to
    ``calibration``.

    Shared hosts slow down by 1.5x or more for fractions of a second to
    minutes at a time, whatever runs on them (measured on a 2-vCPU x86-64
    VM).  The calibration loop (no radwalk code) slows with the host, so it
    runs before the first job and after every job, outside the jobs' timing,
    and the pass's speed factor is ``CALIBRATION_REF_MS`` / (median of those
    times).  A time multiplied by the factor is a time at a fixed host speed,
    while a job that is slow for the program's own reasons (a collection
    pause, a slow input) stays slow.  The median over the whole pass damps
    the noise of single short loops.
    """
    raw, times = [], [_calibration_ms()]
    for job in jobs:
        if tracer is not None:
            tracer.job_id = f"{pass_index}:{job.key}"
        t0 = _now()
        try:
            result, error = job.call(), None
        except Exception as exc:  # a failing job is counted and the loop goes on
            result, error = None, f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        raw.append((job, result, _now() - t0, error))
        state[job.key] = result
        times.append(_calibration_ms())
    calibration.extend(times)
    return raw, CALIBRATION_REF_MS / statistics.median(times)


def _check_pass(raw, pass_index, pins, factor=1.0):
    """Per-job checks, counters and (pass 0 only) digests; outside the timed region."""
    import workloads as wl

    out = []
    for job, result, seconds, error in raw:
        rec = JobRecord(job.key, job.pool, pass_index, seconds, factor)
        rec.failure = error
        if rec.failure is None:
            try:
                rec.failure = job.check(result)
                rec.counts = job.counts(result)
                if pass_index == 0:
                    rec.digest = wl.digest(job.canon(result))
            except Exception as exc:  # a broken output must not stop the run
                rec.failure = f"check raised {type(exc).__name__}: {exc}"
        if rec.failure is None and pins is not None and pass_index == 0:
            if pins.get(job.key) != rec.digest:
                rec.failure = "output differs from its pinned bytes (seed 2025, pass 0)"
        if job.pool is not None and rec.failure is None:
            rec.mc = (result.successes, result.trials)
        out.append(rec)
    return out


def _pooled_checks(records, exact_values):
    """Pool Monte Carlo jobs per shape; a pool outside its window fails all its jobs."""
    from workloads import SIGMA_WINDOW

    pools = defaultdict(list)
    for rec in records:
        if rec.mc is not None:
            pools[rec.pool].append(rec)
    notes = {}
    for pool, recs in pools.items():
        successes = sum(r.mc[0] for r in recs)
        trials = sum(r.mc[1] for r in recs)
        p = float(exact_values[pool])
        sigma = math.sqrt(p * (1 - p) / trials)
        est = successes / trials
        notes[pool] = {"estimate": est, "exact": p, "trials": trials, "z": (est - p) / sigma}
        if abs(est - p) > SIGMA_WINDOW * sigma:
            for r in recs:
                r.failure = f"pooled {pool}: {est:.5f} outside exact {p:.5f} +- {SIGMA_WINDOW} sigma"
    return notes


def _worker_identity_check(name, seed, tmpdir, tiny, records, workers):
    """Re-run pass 0 at ``workers``; every output must be byte-identical."""
    import workloads as wl

    ctx = wl.prepare(name, seed, tmpdir, tiny=tiny, workers=workers)
    state = {}
    raw, _factor = _run_pass(wl.jobs_for_pass(name, ctx, 0, state), state, 0, None, [])
    other = {r.key: r.digest for r in _check_pass(raw, 0, None)}
    for rec in records:
        if rec.pass_index == 0 and rec.failure is None and other.get(rec.key) != rec.digest:
            rec.failure = f"output differs from the workers={workers} run (criterion 10)"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _tail(durations, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(durations)
    rank = max(1, math.ceil(pct * len(ordered) / 100 - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def _job_time(rec, scaled):
    return rec.seconds * rec.factor if scaled else rec.seconds


def _pass_walls(records, scaled, passes=None):
    """Per pass (of ``passes``, default all), the sum of its job times."""
    walls = defaultdict(float)
    for rec in records:
        if passes is None or rec.pass_index in passes:
            walls[rec.pass_index] += _job_time(rec, scaled)
    return list(walls.values())


def _rate(records, key, scaled):
    """Sum of ``key`` over the run / total time of the jobs counting it."""
    work, seconds = 0, 0.0
    for rec in records:
        if rec.counts.get(key):
            work += rec.counts[key]
            seconds += _job_time(rec, scaled)
    return work / seconds if seconds else 0.0


def _end_to_end(records, setup, tail_pct, scaled):
    """End-to-end metrics over every pass and job; at the reference host speed
    when ``scaled`` (see ``_run_pass``), else as measured.

    ``setup`` holds (seconds, factor) per set-up probe.  A pass's wall time is
    the sum of its job times, which excludes the calibration loops between
    jobs.  Returns (metrics, jobs beyond the tail).
    """
    durations = [_job_time(r, scaled) for r in records]
    tail, beyond = _tail(durations, tail_pct)
    metrics = {
        "wall_s": statistics.median(_pass_walls(records, scaled)),
        "setup_s": statistics.median(t * f if scaled else t for t, f in setup),
        "job_ms_p50": statistics.median(durations) * 1e3,
        "job_ms_tail": tail * 1e3,
        "trials_per_s": _rate(records, "trials", scaled),
        "steps_per_s": _rate(records, "steps", scaled),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, beyond


def _ratio(a, b):
    return a / b if b else 0.0


def _count_snapshot(tracer, records):
    """Counts of one traced pass: (calls per span name, counters, chunks, job counts)."""
    jobs = Counter()
    for rec in records:
        jobs.update(rec.counts)
    calls = {k: v[0] for k, v in tracer.aggregates().items()}
    return calls, tracer.counts(), sum(m[3] for m in tracer.maps), jobs


def _per_layer(tracer, first, passes, overhead_frac, failed_frac):
    """Per-layer metrics.  Times are per traced pass, averaged over them all;
    counts are those of the first traced pass, so they repeat exactly for a
    seed however many passes a run makes; ratios use the totals."""
    agg = tracer.aggregates()
    c = tracer.counts()
    first_calls, first_c, first_chunks, jobs = first

    def calls(key):
        return agg.get(key, (0, 0.0, 0.0))[0]

    def total(key):
        return agg.get(key, (0, 0.0, 0.0))[1]

    def own(key):
        return agg.get(key, (0, 0.0, 0.0))[2]

    def kernel(fn):
        """Self time of ``fn`` plus its chunks' self time, net of rng spans."""
        return own(fn) + own(f"chunk@{fn}")

    maps = tracer.maps
    busy = sum(mp[2] for mp in maps)
    capacity = sum(mp[0] * mp[1] for mp in maps)
    mc = kernel("walk.monte_carlo_return")
    hitting = kernel("verify.hitting_time_experiment")
    cli_self = sum(v[2] for k, v in agg.items() if k.startswith("cli."))
    value = "sequences.StepSequence.value"
    m = {
        "rng.setup_us_per_trial": _ratio(total("rng.trial_generator"), calls("rng.trial_generator")) * 1e6,
        "rng.draw_ns_per_code": _ratio(own("rng.direction_codes"), c["rng.codes_drawn"]) * 1e9,
        "rng.trials": first_calls.get("rng.trial_generator", 0),
        "rng.codes_drawn": first_c["rng.codes_drawn"],
        "rng.chunks": first_chunks,
        "rng.chunk_busy_s": busy / passes,
        "rng.map_wait_s": (capacity - busy) / passes,
        "rng.parallel_efficiency": _ratio(busy, capacity),
        "walk.mc_trial_overhead_us": _ratio(mc, c["walk.mc_trials"]) * 1e6,
        "walk.mc_kernel_ns_per_step": _ratio(mc, c["walk.mc_steps"]) * 1e9,
        "walk.stream_ns_per_step": _ratio(own("walk.simulate[stream]"), c["walk.stream_steps"]) * 1e9,
        "walk.export_ms": total("walk.TrajectoryRecorder.export_csv") / passes * 1e3,
        "walk.export_bytes": jobs["export_bytes"],
        "verify.hitting_trial_overhead_us": _ratio(hitting, c["verify.hitting_trials"]) * 1e6,
        "verify.hitting_kernel_ns_per_step": _ratio(hitting, c["verify.hitting_steps"]) * 1e9,
        "verify.drift_ns_per_point": _ratio(own("verify.verify_supermartingale"), c["verify.drift_points"]) * 1e9,
        "verify.trend_ms": total("verify.sup_pmf_trend") / passes * 1e3,
        "verify.mod_lemma_ms": total("verify.verify_mod_lemma") / passes * 1e3,
        "exact.pmf_1d_ms": total("exact.pmf_1d") / passes * 1e3,
        "exact.pmf_1d_cells": first_c["exact.pmf_1d_cells"],
        "exact.pmf_2d_ms": total("exact.pmf_2d") / passes * 1e3,
        "exact.pmf_2d_points": first_c["exact.pmf_2d_points"],
        "exact.interval_us_per_call": _ratio(
            own("exact.max_interval_probability"), calls("exact.max_interval_probability")
        ) * 1e6,
        "exact.mod_profile_ms": total("exact.mod_probability_profile") / passes * 1e3,
        "exact.hit2d_ms": total("exact.hit_probability_2d") / passes * 1e3,
        "construction.search_ns_per_step": _ratio(
            kernel("construction.estimate_N0"), c["construction.search_steps"]
        ) * 1e9,
        "construction.evaluate_ns_per_step": _ratio(
            kernel("construction.evaluate_plan"), c["construction.evaluate_steps"]
        ) * 1e9,
        "construction.search_useful_frac": _ratio(
            c["construction.search_periods_scored"], c["construction.search_periods"]
        ),
        "construction.searches_skipped": first_c["construction.searches_skipped"],
        "sequences.value_calls": first_calls.get(value, 0),
        "sequences.value_ns_per_call": _ratio(total(value), calls(value)) * 1e9,
        "sequences.doubling_ms": total("sequences.extract_doubling_subsequence") / passes * 1e3,
        "cli.commands": first_calls.get("cli.main", 0),
        "cli.self_ms_per_command": _ratio(cli_self, calls("cli.main")) * 1e3,
        "cli.report_bytes": jobs["report_bytes"],
        "trace_overhead_frac": overhead_frac,
        "failed_frac": failed_frac,
    }
    return m


# ---------------------------------------------------------------------------
# Set-up probes
# ---------------------------------------------------------------------------


def _setup_probe(name, seed, tiny) -> dict:
    """Import radwalk and generate the first pass's inputs; seconds taken, and
    the calibration times just before and just after."""
    before = _calibration_ms()
    t0 = _now()
    import workloads as wl

    ctx = wl.prepare(name, seed, ROOT / ".bench_tmp" / "probe", tiny=tiny)
    wl.jobs_for_pass(name, ctx, 0, {})
    seconds = _now() - t0
    return {"setup_s": seconds, "calibration_ms": [before, _calibration_ms()]}


def _measure_setup(name, seed, tiny):
    """(set-up seconds, speed factor) of one fresh interpreter, waited for."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], 2 * CALIBRATION_REF_MS / sum(probe["calibration_ms"])


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, *, tiny=False, pins="auto",
                 probes=SETUP_PROBES, log_dir=None):
    """Run one workload; returns (result, host, summary) as printed by ``main``."""
    import radwalk
    import spans
    import workloads as wl

    workload = wl.WORKLOADS[name]
    if pins == "auto":
        pins = wl.load_pins().get(workload.problem) if seed == wl.PIN_SEED and not tiny else None
    tmpdir = ROOT / ".bench_tmp" / f"{name}-{seed}-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = wl.prepare(name, seed, tmpdir, tiny=tiny)
        tracer = spans.Tracer(radwalk) if trace else None
        # setup: (seconds, speed factor) per probe
        records, traced_passes, calibration, setup = [], set(), [], []
        first_counts = None
        cpu_start = _cpu_times()
        loop_start = _now()
        pass_index = 0
        while True:
            state = {}
            jobs = wl.jobs_for_pass(name, ctx, pass_index, state)
            traced = tracer is not None and pass_index % 2 == 1
            if traced:
                tracer.install()
            try:
                raw, factor = _run_pass(
                    jobs, state, pass_index, tracer if traced else None, calibration
                )
            finally:
                if traced:
                    tracer.uninstall()
            checked = _check_pass(raw, pass_index, pins, factor)
            del raw, state, jobs
            if traced and first_counts is None:
                first_counts = _count_snapshot(tracer, checked)
            records.extend(checked)
            if traced:
                traced_passes.add(pass_index)
            pass_index += 1
            elapsed = _now() - loop_start
            # set-up probes are spread over the run, between passes, so that
            # their median samples the host over the whole run
            if tracer is None and len(setup) < probes * min(1.0, elapsed / seconds if seconds else 1):
                setup.append(_measure_setup(name, seed, tiny))
                elapsed = _now() - loop_start
            enough = len(records) >= workload.min_jobs and (
                tracer is None or min(len(traced_passes), pass_index - len(traced_passes)) >= 2
            )
            if (elapsed >= seconds and enough) or elapsed >= HARD_STOP_S:
                break
        cpu_end = _cpu_times()
        while tracer is None and len(setup) < probes:
            setup.append(_measure_setup(name, seed, tiny))
        pools = {}
        if workload.pooled_exact is not None:
            pools = _pooled_checks(records, workload.pooled_exact())
        twin = wl.twin_workers(name)
        if twin is not None and twin != ctx.workers:
            _worker_identity_check(name, seed, tmpdir, tiny, records, twin)
        failures = [f"{r.pass_index}:{r.key}: {r.failure}" for r in records if r.failure]
        attempted, failed = len(records), len(failures)
        host = _host(calibration, cpu_start, cpu_end)
        summary = {
            "workload": name, "seed": seed, "trace": int(bool(trace)), "tiny": tiny,
            "workers": ctx.workers, "passes": pass_index, "jobs": attempted,
            "failed_frac": failed / attempted, "failures": failures[:10],
            "pinned": pins is not None, "pools": pools,
        }
        log = {"traced_passes": sorted(traced_passes), "calibration_ms": calibration,
               "setup_s_and_factor": setup,
               "jobs": [[r.pass_index, r.key, r.seconds, r.factor, r.failure] for r in records]}
        if tracer is None:
            metrics, beyond = _end_to_end(records, setup, workload.tail_pct, True)
            raw, _beyond = _end_to_end(records, setup, workload.tail_pct, False)
            summary.update(job_ms_tail_pct=workload.tail_pct, jobs_beyond_tail=beyond,
                           speed_factor_median=statistics.median(r.factor for r in records),
                           raw_metrics=raw)
            units = END_TO_END
        else:
            untraced = set(range(pass_index)) - traced_passes
            overhead = (statistics.median(_pass_walls(records, True, traced_passes))
                        / statistics.median(_pass_walls(records, True, untraced)) - 1)
            metrics = _per_layer(
                tracer, first_counts, len(traced_passes), overhead, failed / attempted
            )
            summary.update(traced_passes=len(traced_passes), spans=len(tracer.records),
                           dropped_spans=tracer.dropped)
            if log_dir is not None:
                tracer.write(log_dir / f"trace-{name}-seed{seed}.json",
                             {"summary": summary, "host": host})
            units = PER_LAYER
        if log_dir is not None:
            log_dir.mkdir(parents=True, exist_ok=True)
            (log_dir / f"run-{name}-seed{seed}-trace{int(bool(trace))}.json").write_text(
                json.dumps({"summary": summary, "host": host, **log}) + "\n", encoding="utf-8"
            )
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        return result, host, summary
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def pass0_digests(name, seed, *, tiny=False) -> dict:
    """Digest of every job of pass 0 at workers=1; refuses failing outputs."""
    import workloads as wl

    tmpdir = ROOT / ".bench_tmp" / f"pins-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = wl.prepare(name, seed, tmpdir, tiny=tiny, workers=1)
        state = {}
        raw, _factor = _run_pass(wl.jobs_for_pass(name, ctx, 0, state), state, 0, None, [])
        recs = _check_pass(raw, 0, None)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    bad = [f"{r.key}: {r.failure}" for r in recs if r.failure]
    if bad:
        raise RuntimeError(f"refusing to pin failing outputs: {bad}")
    return {r.key: r.digest for r in recs}


def write_pins():
    """Record pass 0 of every problem at the acceptance seed into pins.json."""
    import workloads as wl

    pins = {}
    for name, workload in wl.WORKLOADS.items():
        if workload.problem not in pins:
            pins[workload.problem] = pass0_digests(name, wl.PIN_SEED)
    wl.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="mc_short",
                        choices=["mc_short", "mc_long", "mc_long_threads", "desk_exact"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-pins", action="store_true",
                        help="re-record pins.json (after a deliberate stream change)")
    args = parser.parse_args(argv)
    if not _use_checkout_source():
        return 2
    if args.setup_probe:
        print(json.dumps(_setup_probe(args.workload, args.seed, args.tiny)))
        return 0
    if args.write_pins:
        write_pins()
        return 0
    result, host, summary = run_workload(
        args.workload, args.seed, args.seconds, args.trace, tiny=args.tiny,
        log_dir=ROOT / ".bench_out",
    )
    print(json.dumps({"host": host}))
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
