#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny sizes.

Run from the repository root::

    python3 bench/selftest.py

It checks these things and exits 1 if any fails:

1. every metric named in ``BENCHMARK.json`` is emitted, with its unit, by an
   untraced (end-to-end) and a traced (per-layer) run of every workload of
   the harness, including those ``BENCHMARK.json`` does not gate;
2. generated inputs are a pure function of the seed;
3. a deliberately wrong pinned value makes the run fail (``failed_frac > 0``),
   while the right pins keep it at 0;
4. no per-layer metric is below 0 on any workload: self times are net of the
   wrappers' cost, and charging too much for it shows as a negative time
   (``trace_overhead_frac``, a ratio of two noisy times, is exempt).
"""

from __future__ import annotations

import json
import sys
import time

import run


def _spec_units(spec, section):
    return {m["name"]: m["unit"] for m in spec[section]}


def check_metric_names(spec, per_layer) -> list[str]:
    """Also fills ``per_layer[workload]`` with the traced run's metrics."""
    import workloads as wl

    problems = []
    for workload in wl.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, _host, _summary = run.run_workload(
                workload, 7, 0, trace, tiny=True, pins=None, probes=1
            )
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != _spec_units(spec, section):
                problems.append(f"{workload} trace={trace}: metrics {sorted(emitted)} "
                                f"differ from BENCHMARK.json {section}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: tiny run failed: {_summary['failures']}")
            bad = [k for k, v in result["metrics"].items() if not isinstance(v["value"], (int, float))]
            if bad:
                problems.append(f"{workload} trace={trace}: non-numeric values {bad}")
            if trace:
                per_layer[workload] = result["metrics"]
    return problems


def check_no_negative(per_layer) -> list[str]:
    return [
        f"{workload}: {name} = {m['value']}"
        for workload, metrics in per_layer.items()
        for name, m in metrics.items()
        if name != "trace_overhead_frac" and m["value"] < 0
    ]


def check_inputs_pure(spec) -> list[str]:
    import workloads as wl

    def inputs(workload, seed):
        ctx = wl.prepare(workload, seed, run.ROOT / ".bench_tmp" / "selftest", tiny=True)
        return [
            wl.canonical_bytes([j.key, j.inputs])
            for p in (0, 1)
            for j in wl.jobs_for_pass(workload, ctx, p, {})
        ]

    problems = []
    for workload in wl.WORKLOADS:
        first, again, other = inputs(workload, 11), inputs(workload, 11), inputs(workload, 12)
        if first != again:
            problems.append(f"{workload}: the same seed gave different inputs")
        if first == other:
            problems.append(f"{workload}: seeds 11 and 12 gave identical inputs")
        if first[: len(first) // 2] == first[len(first) // 2 :]:
            problems.append(f"{workload}: pass 1 repeats pass 0's inputs")
    return problems


def check_wrong_pin() -> list[str]:
    problems = []
    for workload in ("mc_short", "desk_exact"):
        pins = run.pass0_digests(workload, 5, tiny=True)
        good, _h, _s = run.run_workload(workload, 5, 0, 0, tiny=True, pins=pins, probes=1)
        if good["failed"] != 0:
            problems.append(f"{workload}: correct pins reported failures: {_s['failures']}")
        key = sorted(pins)[0]
        wrong = dict(pins, **{key: "0" * 64})
        bad, _h, summary = run.run_workload(workload, 5, 0, 1, tiny=True, pins=wrong, probes=1)
        frac = bad["metrics"]["failed_frac"]["value"]
        if bad["correct"] or bad["failed"] != 1 or not frac > 0:
            problems.append(f"{workload}: a wrong pin for {key} gave failed={bad['failed']}, "
                            f"failed_frac={frac}")
    return problems


def main() -> int:
    if not run._use_checkout_source():
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    problems, per_layer = [], {}
    for name, check in (
        ("metric names and units", lambda: check_metric_names(spec, per_layer)),
        ("inputs are a pure function of the seed", lambda: check_inputs_pure(spec)),
        ("a wrong pin raises failed_frac", check_wrong_pin),
        ("no per-layer metric is negative", lambda: check_no_negative(per_layer)),
    ):
        found = check()
        print(f"{'ok  ' if not found else 'FAIL'} {name}")
        for p in found:
            print(f"     {p}")
        problems += found
    print(f"self-test {'passed' if not problems else 'failed'} in {time.perf_counter() - t0:.1f}s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
