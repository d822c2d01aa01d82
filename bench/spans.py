"""In-memory span tracer that wraps radwalk's public functions from outside.

Nothing in ``src/`` changes: :meth:`Tracer.install` replaces every reference
to a wrapped function in the package's module namespaces (and two class
methods) with a timing wrapper, and :meth:`Tracer.uninstall` puts the
originals back, so a run can alternate traced and untraced passes.

Each call becomes a span: name, start, end, parent span and the id of the job
that issued it.  Spans are kept in memory and written out when the run ends.
Leaf functions called per trial or per step (``HOT``) are aggregated only
(count, total and self time) instead of being recorded one by one, so memory
stays flat.  A layer's self time is its span's duration minus the durations of
its direct child spans and minus the measured cost of the wrappers around those
children outside their timing windows.  At most ``RECORD_CAP`` spans are kept;
later ones are counted as dropped.

``rng.map_trial_chunks`` gets a special wrapper that also wraps the chunk
function it is handed: each chunk becomes an ``rng.chunk`` span, possibly on a
pool thread, whose parent is the map span and whose self time is credited to
the function that called the map (``chunk@<owner>``).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import Counter

_now = time.perf_counter

#: Radwalk modules whose public functions are wrapped, in layer order.
LAYERS = ("rng", "walk", "verify", "exact", "construction", "sequences", "cli")

#: Class methods wrapped in addition to the module-level functions.
METHODS = (("sequences", "StepSequence", "value"), ("walk", "TrajectoryRecorder", "export_csv"))

#: Called inside ``StepSequence.value`` for every index; its time is part of
#: ``sequences.value_ns_per_call`` and wrapping it would double the overhead.
SKIP = {"sequences.integer_nth_root"}

#: Per-trial or per-step leaf calls: aggregated, not recorded one by one.
HOT = {
    "rng.trial_generator",
    "rng.direction_codes",
    "rng.wilson_interval",
    "rng.chunk_ranges",
    "sequences.StepSequence.value",
}

#: Spans kept in memory per run; the aggregates still see every call.
RECORD_CAP = 500_000


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _simulate_tag(args, kwargs):
    return "stream" if _arg(args, kwargs, 3, "visitor") is not None else "fast"


def _count_codes(args, kwargs, result):
    return (("rng.codes_drawn", _arg(args, kwargs, 2, "n")),)


def _count_stream_steps(args, kwargs, result):
    if _arg(args, kwargs, 3, "visitor") is None:
        return ()
    return (("walk.stream_steps", _arg(args, kwargs, 1, "n")),)


def _count_pmf1d(args, kwargs, result):
    # steps x support width, the dense lattice pmf_1d convolves over
    width = 2 * (result.values[-1] - result.values[0]) + 1 if result.values else 1
    return (("exact.pmf_1d_cells", len(result.steps) * int(width)),)


def _count_pmf2d(args, kwargs, result):
    return (("exact.pmf_2d_points", len(result.points)),)


def _count_search(args, kwargs, result):
    if result.evaluated_targets == 0:
        return (("construction.searches_skipped", 1),)
    periods = result.trials * result.grid[-1]
    scored = result.trials * result.n0
    return (
        ("construction.search_steps", periods * result.pair.period),
        ("construction.search_periods", periods),
        ("construction.search_periods_scored", scored),
    )


def _count_evaluate(args, kwargs, result):
    plan = _arg(args, kwargs, 0, "plan")
    return (("construction.evaluate_steps", result.trials * plan.n_end),)


def _count_hitting(args, kwargs, result):
    return (
        ("verify.hitting_trials", result.trials),
        ("verify.hitting_steps", result.trials * result.horizon),
    )


def _count_mc(args, kwargs, result):
    return (
        ("walk.mc_trials", result.trials),
        ("walk.mc_steps", result.trials * result.params["horizon"]),
    )


def _count_drift(args, kwargs, result):
    return (("verify.drift_points", result.points),)


TAGS = {"walk.simulate": _simulate_tag}

COUNTERS = {
    "rng.direction_codes": _count_codes,
    "walk.simulate": _count_stream_steps,
    "walk.monte_carlo_return": _count_mc,
    "exact.pmf_1d": _count_pmf1d,
    "exact.pmf_2d": _count_pmf2d,
    "construction.estimate_N0": _count_search,
    "construction.evaluate_plan": _count_evaluate,
    "verify.hitting_time_experiment": _count_hitting,
    "verify.verify_supermartingale": _count_drift,
}


def _add(agg, key, total, self_s, calls=1):
    a = agg.get(key)
    if a is None:
        agg[key] = [calls, total, self_s]
    else:
        a[0] += calls
        a[1] += total
        a[2] += self_s


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.agg = None
        self.counts = None


class Tracer:
    """Wraps the public functions of ``package``'s layer modules with spans.

    ``agg[key] = [calls, total_s, self_s]`` per span name (``name[tag]`` for
    tagged calls, ``chunk@owner`` for chunk self time); ``counts`` holds the
    counters extracted from arguments and results; ``maps`` holds, per
    ``map_trial_chunks`` call, ``(workers, wall_s, busy_s, chunks)``.
    """

    def __init__(self, package):
        self.package = package
        self.records = []  # (span_id, parent_id, job_id, name, t0, t1)
        self.dropped = 0
        self.maps = []
        self.job_id = None
        self._ids = itertools.count(1)
        self._state = _ThreadState()
        self._thread_aggs = []
        self._thread_counts = []
        self._register = threading.Lock()
        self._patches = self._plan_patches()
        self.overhead = {"hot": 0.0, "span": 0.0}  # nothing to charge while calibrating
        self.overhead = self._calibrate()

    # -- installation -----------------------------------------------------

    def _targets(self):
        pkg = self.package
        for layer in LAYERS:
            mod = getattr(pkg, layer)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name not in SKIP:
                    yield name, obj
        for layer, cls_name, meth in METHODS:
            cls = getattr(getattr(pkg, layer), cls_name)
            yield f"{layer}.{cls_name}.{meth}", vars(cls)[meth]

    def _plan_patches(self):
        wrappers = {}
        for name, fn in self._targets():
            if name == "rng.map_trial_chunks":
                wrappers[fn] = self._wrap_map(name, fn)
            else:
                wrappers[fn] = self._wrap(name, fn, name in HOT)
        patches = []
        namespaces = [getattr(self.package, layer) for layer in LAYERS]
        namespaces.append(self.package)  # re-exports trial_generator, wilson_interval
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((ns, attr, obj, wrappers[obj]))
        for layer, cls_name, meth in METHODS:
            cls = getattr(getattr(self.package, layer), cls_name)
            fn = vars(cls)[meth]
            patches.append((cls, meth, fn, wrappers[fn]))
        return patches

    def install(self):
        for ns, attr, _orig, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, orig, _wrapper in self._patches:
            setattr(ns, attr, orig)

    # -- per-thread accumulators -----------------------------------------

    def _thread(self):
        st = self._state
        if st.agg is None:
            st.agg, st.counts = {}, Counter()
            with self._register:
                self._thread_aggs.append(st.agg)
                self._thread_counts.append(st.counts)
        return st

    def _close(self, st, frame, key, t0, t1, kind):
        """Account one finished frame: its own totals, then its parent's."""
        dur = t1 - t0
        self_s = dur - frame[2] - frame[3]
        _add(st.agg, key, dur, self_s)
        if st.stack:
            parent = st.stack[-1]
            parent[2] += dur
            parent[3] += self.overhead[kind]
        return dur, self_s

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, hot):
        tracer = self
        kind = "hot" if hot else "span"
        tag_of = TAGS.get(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state
            if st.agg is None:
                tracer._thread()
            key = name if tag_of is None else f"{name}[{tag_of(args, kwargs)}]"
            # frame: [key, span_id, child_dur, child_overhead]
            span_id = 0 if hot else next(tracer._ids)
            frame = [key, span_id, 0.0, 0.0]
            stack = st.stack
            parent_id = stack[-1][1] if stack else 0
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                tracer._close(st, frame, key, t0, t1, kind)
                if not hot:
                    tracer._record(span_id, parent_id, name, t0, t1)
            if counter is not None:
                for ckey, value in counter(args, kwargs, result):
                    st.counts[ckey] += value
            return result

        return wrapper

    def _wrap_map(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(trials, chunk_fn, combine, workers=1):
            st = tracer._state
            if st.agg is None:
                tracer._thread()
            owner = next(
                (f[0] for f in reversed(st.stack) if not f[0].startswith("rng.")), "none"
            )
            span_id = next(tracer._ids)
            frame = [name, span_id, 0.0, 0.0]
            parent_id = st.stack[-1][1] if st.stack else 0
            job_id = tracer.job_id
            busy = []

            def chunk(indices):
                cst = tracer._state
                if cst.agg is None:
                    tracer._thread()
                cid = next(tracer._ids)
                cframe = ["rng.chunk", cid, 0.0, 0.0]
                cst.stack.append(cframe)
                c0 = _now()
                try:
                    return chunk_fn(indices)
                finally:
                    c1 = _now()
                    cst.stack.pop()
                    dur, self_s = tracer._close(cst, cframe, "rng.chunk", c0, c1, "span")
                    _add(cst.agg, f"chunk@{owner}", dur, self_s)
                    busy.append(dur)
                    tracer._record(cid, span_id, "rng.chunk", c0, c1, job_id)

            st.stack.append(frame)
            t0 = _now()
            try:
                return fn(trials, chunk, combine, workers=workers)
            finally:
                t1 = _now()
                st.stack.pop()
                tracer._close(st, frame, name, t0, t1, "span")
                tracer._record(span_id, parent_id, name, t0, t1, job_id)
                tracer.maps.append((workers, t1 - t0, sum(busy), len(busy)))

        return wrapper

    def _record(self, span_id, parent_id, name, t0, t1, job_id=None):
        if len(self.records) < RECORD_CAP:
            self.records.append(
                (span_id, parent_id, self.job_id if job_id is None else job_id, name, t0, t1)
            )
        else:
            self.dropped += 1

    # -- calibration and results ------------------------------------------

    def _calibrate(self, calls=20_000, reps=5):
        """Wrapper cost per call outside its timing window, charged to the
        caller's self time.

        The caller's self time already excludes the child's in-window
        duration (``t1 - t0``, which holds part of the clock reads and the
        call), so that part is taken off the wrapped-minus-raw cost here: the
        noop's own aggregate total per call.  The smallest estimate over
        ``reps`` is kept, so self times err high rather than low.
        """

        def noop(x):
            return x

        out = {}
        st = self._thread()
        st.stack.append(["calibration", 0, 0.0, 0.0])  # so the parent update is timed too
        for kind in ("hot", "span"):
            key = f"calibration.{kind}"
            wrapped = self._wrap(key, noop, kind == "hot")
            best = float("inf")
            for _ in range(reps):
                st.agg.pop(key, None)
                t0 = _now()
                for i in range(calls):
                    noop(i)
                raw = _now() - t0
                t0 = _now()
                for i in range(calls):
                    wrapped(i)
                outside = _now() - t0 - raw - st.agg[key][1]
                best = min(best, outside / calls)
            out[kind] = max(best, 0.0)
        st.stack.pop()
        self.reset()
        return out

    def reset(self):
        self.records.clear()
        self.maps.clear()
        self.dropped = 0
        with self._register:
            for agg in self._thread_aggs:
                agg.clear()
            for counts in self._thread_counts:
                counts.clear()

    def aggregates(self):
        """Merged ``{key: [calls, total_s, self_s]}`` over all threads."""
        out = {}
        with self._register:
            for agg in self._thread_aggs:
                for key, (calls, total, self_s) in list(agg.items()):
                    _add(out, key, total, self_s, calls)
        return out

    def counts(self):
        out = Counter()
        with self._register:
            for counts in self._thread_counts:
                out.update(counts)
        return out

    def write(self, path, meta):
        """Write spans, aggregates and counters as one JSON document."""
        doc = {
            "meta": meta,
            "overhead_s_per_call": self.overhead,
            "dropped_spans": self.dropped,
            "aggregates": self.aggregates(),
            "counts": dict(self.counts()),
            "maps": self.maps,
            "span_fields": ["span_id", "parent_id", "job_id", "name", "start_s", "end_s"],
            "spans": self.records,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
