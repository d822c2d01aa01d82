#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise, or compare two such sets.

Run from the repository root::

    python3 bench/repeat.py --seeds 1-10 --out /tmp/base.json
    python3 bench/repeat.py --seeds 1-10 --workloads mc_short --trace 1
    python3 bench/repeat.py --compare /tmp/base.json /tmp/change.json

Each run is ``BENCHMARK.json``'s command with ``--workload``, ``--seed``,
``--seconds`` (its ``run_seconds`` unless given) and ``--trace``, one after
another.  For every workload and metric the summary gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  A spread marked ``!`` is not
below a third of the metric's bound.  ``--compare`` reports, per workload and
end-to-end metric, how far the second set's median moved from the first's in
the metric's worse direction, against its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(spec, workload, seed, seconds, trace) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = {}
    for line in lines[:-1]:
        info.update(json.loads(line))
    return {"workload": workload, "seed": seed, "trace": trace, "result": result, **info}


def summarise(runs, spec) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            table.setdefault(run["workload"], {}).setdefault(name, []).append(metric["value"])
    out = {}
    for workload, metrics in table.items():
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            out.setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds.get(name), "values": values,
            }
    return out


def print_summary(summary) -> None:
    for workload, metrics in summary.items():
        print(f"== {workload}")
        for name, s in metrics.items():
            bound = s["bound"]
            flag = "" if bound is None or s["spread"] < bound / 3 else "  !"
            btxt = "" if bound is None else f" (bound {bound})"
            print(f"  {name:36s} median {s['median']:<14.6g} spread {s['spread']:.4f}{btxt}{flag}")


def compare(base_path, new_path) -> int:
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    spec = _spec()
    worse_sign = {m["name"]: (1 if m["better"] == "lower" else -1) for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload, metrics in base["summary"].items():
        print(f"== {workload}")
        for name, b in metrics.items():
            if name not in bounds or name not in new["summary"].get(workload, {}):
                continue
            n = new["summary"][workload][name]
            worse = worse_sign[name] * (n["median"] - b["median"]) / b["median"]
            ok = worse <= bounds[name]
            status |= 0 if ok else 1
            print(f"  {name:16s} {b['median']:<12.6g} -> {n['median']:<12.6g} "
                  f"worse by {worse:+.4f} (bound {bounds[name]}) {'ok' if ok else 'WORSE'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=None, help="comma separated; default all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None, help="write runs and summary as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    spec = _spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    runs = []
    for workload in workloads:
        for seed in _seeds(args.seeds):
            run = run_once(spec, workload, seed, seconds, args.trace)
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)
            runs.append(run)
    summary = summarise(runs, spec)
    print_summary(summary)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n",
                                  encoding="utf-8")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
