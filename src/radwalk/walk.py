"""Planar walk simulation with exact positions and reproducible Monte Carlo.

A walk takes steps ``a_n * xi_n`` where ``xi_n`` is uniform on the four axis
directions.  Positions are exact (Python ints, or Fractions for fractional
step sizes); the default policy checks positions against a 64-bit width and
raises instead of silently wrapping, with an opt-in promotion to arbitrary
precision.

Direction codes are 0:+e1, 1:-e1, 2:+e2, 3:-e2.  A direction decomposes into
(kappa, eps): kappa is 1 for horizontal steps and 0 for vertical, eps is the
sign of the moving coordinate; the map is a bijection.

Every trial of every Monte Carlo routine owns an independent substream
derived from the master seed (see :mod:`radwalk.rng`), so estimates do not
depend on batching or worker count.

All vectorized walks, here and in :mod:`radwalk.construction` and
:mod:`radwalk.verify`, run through one kernel, :func:`rotated_paths`, in the
rotated coordinates ``u = x + y`` and ``v = x - y``: each step moves both by
``+-a_n``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import numpy as np

from . import rng as _rng
from .errors import ConsistencyError, ParameterError, PositionOverflowError
from .rng import ConfidenceInterval, wilson_interval
from .sequences import RunLengthDecomposition, StepSequence, run_length_decompose

DIRECTION_VECTORS: tuple[tuple[int, int], ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))
DIRECTION_NAMES = ("+e1", "-e1", "+e2", "-e2")


@dataclass(frozen=True)
class Step2D:
    """One unit direction, addressable by code, vector, or (kappa, eps)."""

    code: int

    @property
    def vector(self) -> tuple[int, int]:
        return DIRECTION_VECTORS[self.code]

    @property
    def kappa(self) -> int:
        return 1 if self.code in (0, 1) else 0

    @property
    def eps(self) -> int:
        return 1 if self.code in (0, 2) else -1

    @property
    def name(self) -> str:
        return DIRECTION_NAMES[self.code]

    @classmethod
    def from_decomposition(cls, kappa: int, eps: int) -> "Step2D":
        if kappa not in (0, 1) or eps not in (-1, 1):
            raise ParameterError("kappa must be 0/1 and eps must be -1/+1")
        return cls({(1, 1): 0, (1, -1): 1, (0, 1): 2, (0, -1): 3}[(kappa, eps)])


def decompose_step(direction) -> tuple[int, int]:
    """(kappa, eps) of a direction given as a Step2D, code, or unit vector."""
    if isinstance(direction, Step2D):
        return direction.kappa, direction.eps
    if isinstance(direction, int):
        return Step2D(direction).kappa, Step2D(direction).eps
    vec = tuple(direction)
    try:
        code = DIRECTION_VECTORS.index(vec)
    except ValueError:
        raise ParameterError(f"not a unit axis direction: {direction!r}") from None
    return Step2D(code).kappa, Step2D(code).eps


def sample_step(generator: np.random.Generator) -> Step2D:
    """Draw one direction, each with probability exactly 1/4."""
    return Step2D(int(generator.integers(0, _rng.NUM_DIRECTIONS)))


@dataclass(frozen=True)
class PositionPolicy:
    """Arithmetic policy for walk positions.

    ``width_bits=None`` means unbounded (arbitrary precision).  With a finite
    width, positions leaving ``[-2**w + 1, 2**w - 1]`` either raise
    ``PositionOverflowError`` or, with ``promote=True``, continue exactly.
    """

    width_bits: int | None = 63
    promote: bool = False

    @property
    def bound(self) -> int | None:
        return None if self.width_bits is None else (1 << self.width_bits) - 1


DEFAULT_POLICY = PositionPolicy()


@dataclass(frozen=True)
class WalkState:
    n: int
    x: int | Fraction
    y: int | Fraction


@dataclass(frozen=True)
class TargetVisitStats:
    target: tuple[int, int]
    count: int
    first_hit: int | None
    last_hit: int | None
    min_sq_distance: int | Fraction | None

    @property
    def min_distance(self) -> float | None:
        if self.min_sq_distance is None:
            return None
        return float(self.min_sq_distance) ** 0.5


@dataclass(frozen=True)
class VisitStatistics:
    """Per-target visit counts over a horizon; visits count steps n >= 1 only."""

    horizon: int
    per_target: tuple[TargetVisitStats, ...]

    def stats_for(self, target) -> TargetVisitStats:
        t = (target[0], target[1])
        for s in self.per_target:
            if s.target == t:
                return s
        raise ParameterError(f"target {t} was not tracked")


@dataclass(frozen=True)
class WalkSummary:
    final: WalkState
    horizon: int
    horizontal_steps: int
    master_seed: object
    trial: int
    rng_id: str = _rng.RNG_ID
    seed_rule: str = _rng.SEED_RULE_ID

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "final": {"n": self.final.n, "x": str(self.final.x), "y": str(self.final.y)},
            "horizontal_steps": self.horizontal_steps,
            "master_seed": _rng.seed_to_json(self.master_seed),
            "trial": self.trial,
            "rng_id": self.rng_id,
            "seed_rule": self.seed_rule,
        }


class TrajectoryRecorder:
    """Visitor that records (n, x, y, a_n, kappa, eps) rows for export."""

    def __init__(self):
        self.rows: list[tuple] = []

    def __call__(self, state: WalkState, step: Step2D, size) -> None:
        self.rows.append((state.n, state.x, state.y, size, step.kappa, step.eps))

    def position_at(self, n: int):
        """Exact position after step n (n=0 is the origin)."""
        if n == 0:
            return (0, 0)
        if 1 <= n <= len(self.rows):
            r = self.rows[n - 1]
            return (r[1], r[2])
        raise ParameterError(f"trajectory covers steps 1..{len(self.rows)}, not {n}")

    def __len__(self) -> int:
        return len(self.rows)

    def export_csv(self, fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(["n", "x", "y", "a_n", "kappa", "eps"])
        for row in self.rows:
            writer.writerow([str(c) for c in row])


#: Largest step sum the int64 kernels accept, so that u and v stay in range.
INT64_STEP_SUM = 1 << 62

#: Trials x steps of one batch of walks in :func:`rotated_paths`: walks with
#: short horizons run as (rows x n) arrays of at most this many steps.
BATCH_STEPS = 1 << 16


def _step_array(seq: StepSequence, n: int) -> np.ndarray:
    """Steps a_1..a_n: int64 when all are ints summing to at most
    :data:`INT64_STEP_SUM`, else an object array of the exact values.

    The constant, integer-gamma floor-power and explicit-list families are
    built in closed form, without a call per index.
    """
    if n < 0:
        raise ParameterError("horizon must be >= 0")
    if seq.length is not None and n > seq.length:
        raise ParameterError(f"horizon {n} exceeds the sequence length {seq.length}")
    params = seq.params
    if seq.kind == "constant":
        c = params["value"]
        if isinstance(c, int) and c * n <= INT64_STEP_SUM:
            return np.full(n, c, dtype=np.int64)
        return np.full(n, c, dtype=object)
    if seq.kind == "floor-power" and params["gamma"].denominator == 1:
        # n * n**q bounds the sum; past it, the exact check below decides
        q = params["gamma"].numerator
        if n ** (q + 1) <= INT64_STEP_SUM:
            return np.arange(1, n + 1, dtype=np.int64) ** q
    if seq.kind == "explicit-list":
        steps = params["values"][:n]
    else:
        steps = [seq.value(i) for i in range(1, n + 1)]
    if all(isinstance(a, int) for a in steps) and sum(steps) <= INT64_STEP_SUM:
        return np.array(steps, dtype=np.int64)
    return np.array(steps, dtype=object)


def rotated_paths(
    steps: np.ndarray, trials: range, codes_of: Callable[[int], np.ndarray]
) -> Iterator[tuple[range, np.ndarray, np.ndarray]]:
    """The walk kernel: yields ``(batch, u, v)`` for consecutive batches of
    ``trials``, ``u[r, k]`` and ``v[r, k]`` being ``x + y`` and ``x - y``
    after step ``k + 1`` of trial ``batch[r]``.

    ``codes_of(trial)`` gives a trial's direction codes; ``steps`` is int64
    with a sum <= :data:`INT64_STEP_SUM`, or exact objects.  Code
    ``c = 2*b1 + b0`` moves ``u`` by ``a * (1 - 2*b0)`` and ``v`` by
    ``a * (1 - 2*(b0 ^ b1))``: +e1 by ``(a, a)``, -e1 by ``(-a, -a)``, +e2 by
    ``(a, -a)``, -e2 by ``(-a, a)``.  A batch holds at most
    :data:`BATCH_STEPS` steps or one trial; ``u`` and ``v`` are overwritten
    by the next batch.
    """
    n = len(steps)
    rows = max(1, min(len(trials), BATCH_STEPS // max(n, 1)))
    # Buffers are allocated once per call: a fresh array per batch costs
    # page faults that, on long walks, take as long as the arithmetic.
    codes = np.empty((rows, n), dtype=np.uint8)
    u = np.empty((rows, n), dtype=steps.dtype)
    v = np.empty((rows, n), dtype=steps.dtype)
    for lo in range(trials.start, trials.stop, rows):
        batch = range(lo, min(lo + rows, trials.stop))
        c, bu, bv = codes[: len(batch)], u[: len(batch)], v[: len(batch)]
        for r, t in enumerate(batch):
            c[r] = codes_of(t)
        # 1 - 2*bit as uint8 is 1 or 255, that is +1 or -1 as int8
        neg = c & 1
        np.multiply(steps, (1 - 2 * neg).view(np.int8), out=bu)
        np.multiply(steps, (1 - 2 * (neg ^ (c >> 1))).view(np.int8), out=bv)
        yield batch, np.cumsum(bu, axis=1, out=bu), np.cumsum(bv, axis=1, out=bv)


def _stream_codes(master_seed, trial: int, n: int, chunk: int = 1 << 15):
    """Direction codes for one trial, yielded in chunks of one read each.

    Chunks are even, so no 64-bit output is split across two of them and the
    chunks concatenate to :func:`radwalk.rng.direction_codes` exactly.
    """
    if chunk < 2 or chunk % 2:
        raise ParameterError("chunk must be even and positive")
    reader = _rng.TrialStream(master_seed).reader()
    reader.seek(trial)
    for done in range(0, n, chunk):
        yield reader.read(min(chunk, n - done))


def simulate(
    seq: StepSequence,
    n: int,
    master_seed,
    visitor: Callable[[WalkState, Step2D, object], None] | None = None,
    *,
    trial: int = 0,
    policy: PositionPolicy = DEFAULT_POLICY,
) -> WalkSummary:
    """Walk ``n`` exact steps, streaming each state to ``visitor`` if given.

    Position arithmetic is exact; the policy decides whether positions beyond
    the configured width raise (default) or promote to arbitrary precision.
    """
    bound = policy.bound
    check = bound is not None and not policy.promote
    # The fast path is safe only when no position can leave the width at all
    # (|S_n| is bounded by the step sum), else stream and check step by step.
    steps = _step_array(seq, n)
    if visitor is None and check and steps.dtype == np.int64 and int(steps.sum()) <= bound:
        # One vectorized pass; identical codes to the streaming path.
        codes = _rng.TrialStream(master_seed).reader().codes(trial, n)
        _, u, v = next(rotated_paths(steps, range(1), lambda t: codes))
        su, sv = (int(u[0, -1]), int(v[0, -1])) if n else (0, 0)
        final = WalkState(n, (su + sv) // 2, (su - sv) // 2)
        return WalkSummary(final, n, int((codes < 2).sum()), master_seed, trial)

    steps = steps.tolist()
    x: int | Fraction = 0
    y: int | Fraction = 0
    kap = 0
    codes = (int(c) for block in _stream_codes(master_seed, trial, n) for c in block)
    for i, (code, a) in enumerate(zip(codes, steps), 1):
        step = Step2D(code)
        dxv, dyv = step.vector
        x = x + a * dxv
        y = y + a * dyv
        kap += step.kappa
        if check and (abs(x) > bound or abs(y) > bound):
            raise PositionOverflowError(
                f"position left the {policy.width_bits}-bit range at step {i}",
                step=i,
            )
        if visitor is not None:
            visitor(WalkState(i, x, y), step, a)
    return WalkSummary(WalkState(n, x, y), n, kap, master_seed, trial)


def simulate_recording(
    seq: StepSequence,
    n: int,
    master_seed,
    *,
    trial: int = 0,
    policy: PositionPolicy = DEFAULT_POLICY,
) -> tuple[WalkSummary, TrajectoryRecorder]:
    rec = TrajectoryRecorder()
    summary = simulate(seq, n, master_seed, rec, trial=trial, policy=policy)
    return summary, rec


def visit_statistics(
    seq: StepSequence,
    n: int,
    master_seed,
    targets: Iterable[tuple[int, int]],
    *,
    trial: int = 0,
    policy: PositionPolicy = DEFAULT_POLICY,
) -> VisitStatistics:
    """Exact per-target visit counts along one simulated path (visits at n >= 1)."""
    tlist = [(t[0], t[1]) for t in targets]
    acc = {
        t: {"count": 0, "first": None, "last": None, "minsq": None} for t in tlist
    }

    def visitor(state: WalkState, step: Step2D, size) -> None:
        for t, a in acc.items():
            dx = state.x - t[0]
            dy = state.y - t[1]
            sq = dx * dx + dy * dy
            if a["minsq"] is None or sq < a["minsq"]:
                a["minsq"] = sq
            if sq == 0:
                a["count"] += 1
                a["last"] = state.n
                if a["first"] is None:
                    a["first"] = state.n

    simulate(seq, n, master_seed, visitor, trial=trial, policy=policy)
    per = tuple(
        TargetVisitStats(
            target=t,
            count=acc[t]["count"],
            first_hit=acc[t]["first"],
            last_hit=acc[t]["last"],
            min_sq_distance=acc[t]["minsq"],
        )
        for t in tlist
    )
    return VisitStatistics(horizon=n, per_target=per)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A success proportion with its seed-complete reproduction recipe."""

    trials: int
    successes: int
    estimate: float
    ci: ConfidenceInterval
    master_seed: object
    params: dict = field(default_factory=dict)
    rng_id: str = _rng.RNG_ID
    seed_rule: str = _rng.SEED_RULE_ID

    @property
    def exact_estimate(self) -> Fraction:
        return Fraction(self.successes, self.trials)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "estimate": self.estimate,
            "ci": self.ci.to_json_dict(),
            "master_seed": _rng.seed_to_json(self.master_seed),
            "params": {k: str(v) if isinstance(v, Fraction) else v for k, v in self.params.items()},
            "rng_id": self.rng_id,
            "seed_rule": self.seed_rule,
        }


def monte_carlo_return(
    seq: StepSequence,
    n: int,
    trials: int,
    master_seed,
    target: tuple[int, int] = (0, 0),
    *,
    level: float = 0.95,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Estimate the probability of visiting ``target`` at some step 1..n."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    stream = _rng.TrialStream(master_seed)
    steps = _step_array(seq, n)
    tu, tv = target[0] + target[1], target[0] - target[1]

    def run_chunk(chunk: range) -> int:
        reader = stream.reader()
        hits = 0
        for _, u, v in rotated_paths(steps, chunk, lambda t: reader.codes(t, n)):
            hits += int(((u == tu) & (v == tv)).any(axis=1).sum())
        return hits

    successes = _rng.map_trial_chunks(trials, run_chunk, sum, workers=workers)
    return MonteCarloEstimate(
        trials=trials,
        successes=successes,
        estimate=successes / trials,
        ci=wilson_interval(successes, trials, level),
        master_seed=master_seed,
        params={"horizon": n, "target": list(target), "sequence": seq.to_config()},
    )


@dataclass(frozen=True)
class BlockDivisibility:
    block: int  # 1-based block number j
    value: int  # b_j
    time: int  # k_j - 1, the step index checked
    x_divisible: bool
    y_divisible: bool


def divisibility_at_blocks(
    seq: StepSequence,
    trajectory: TrajectoryRecorder,
    decomposition: RunLengthDecomposition,
) -> list[BlockDivisibility]:
    """For each run-length block j, whether b_j divides both coordinates at
    the step just before the block starts."""
    expected = run_length_decompose(seq, decomposition.prefix_length)
    if expected != decomposition:
        raise ConsistencyError(
            "decomposition does not match the sequence prefix it claims to describe"
        )
    needed = max(k - 1 for k in decomposition.starts)
    if len(trajectory) < needed:
        raise ConsistencyError(
            f"trajectory covers {len(trajectory)} steps but block boundaries need {needed}"
        )
    out = []
    for j, (b, start) in enumerate(zip(decomposition.values, decomposition.starts), 1):
        x, y = trajectory.position_at(start - 1)
        if isinstance(x, Fraction) or isinstance(y, Fraction):
            raise ConsistencyError("divisibility checks require integer positions")
        out.append(
            BlockDivisibility(
                block=j,
                value=b,
                time=start - 1,
                x_divisible=(x % b == 0),
                y_divisible=(y % b == 0),
            )
        )
    return out
