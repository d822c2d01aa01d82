"""Recurrent-sequence construction from a good set of integers.

A set of positive integers is *good* when every element has infinitely many
coprime partners inside the set.  From a finite prefix of such a set this
module builds, round by round, a step sequence designed to revisit the
origin: each round picks a fresh coprime pair (b', b''), finds the minimal
positive solution of ``c'b' - c''b'' = 1``, and emits ``N0`` periods of the
pattern (c' copies of b', then c'' copies of b'').  Grouping one period into
a single composite step gives an irreducible mean-zero walk on the integer
lattice, so a horizon ``N0`` with

    P(composite walk visits z within N0 periods) >= 1/2   for all |z| <= C

exists for every radius C.  No closed form for ``N0`` is available, so it is
*estimated*: a doubling grid of horizons is searched until the Wilson lower
confidence bound of the hit probability clears 1/2 for every target in the
disk, within a configurable horizon cap and the target budget
:data:`TARGET_BUDGET`.  When the search ends uncertified the result says so;
it never silently succeeds.

Fair warning from the numbers themselves: hit probabilities of exact lattice
points in the plane grow only logarithmically with the horizon.  For the
(2,3) pair the period-end Green's function G grows by 1/(17*pi), about
0.0187, per e-fold of the horizon (the local-CLT constant), and the return
probability 1 - 1/G by that over G**2, a slope that falls as G grows.
Extrapolated so, the certified level of 1/2 sits at a few times 1e22
periods for C = 0 (a linear fit in log N gave the too-low 1e13).  At desk
scale these searches report ``inconclusive`` with their best lower bounds,
which is the honest outcome.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as _rng
from .errors import CoprimalityError, ExhaustionError, ParameterError, _digit_limit, _int_param
from .rng import json_decode, json_encode, wilson_interval
from .sequences import INT64_STEP_SUM, StepSequence, _read_values
from .walk import _returns, _trial_params, _walk_trials


@dataclass(frozen=True)
class BezoutPair:
    """Coprime pair with the minimal positive coefficients c1*b1 - c2*b2 = 1."""

    b1: int
    b2: int
    c1: int
    c2: int

    json_as_list = True  # [b1, b2, c1, c2]

    def __post_init__(self):
        b1, b2, c1, c2 = self.b1, self.b2, self.c1, self.c2
        if min(b1, b2, c1, c2) < 1 or c1 * b1 - c2 * b2 != 1:
            raise ParameterError(f"pair {[b1, b2, c1, c2]} must be positive with c1*b1 - c2*b2 = 1")

    @property
    def period(self) -> int:
        return self.c1 + self.c2

    def pattern(self) -> list[int]:
        return [self.b1] * self.c1 + [self.b2] * self.c2


def positive_bezout(b1: int, b2: int) -> BezoutPair:
    """Minimal positive integers (c1, c2) with ``c1*b1 - c2*b2 == 1``.

    c1 is the inverse of b1 modulo b2 normalized to {1..b2}; when that makes
    c2 zero (only for b1 == 1) the next solution c1 + b2 is taken, so both
    coefficients are always >= 1.
    """
    b1, b2 = _int_param(b1, "b1", 1), _int_param(b2, "b2", 1)
    g = math.gcd(b1, b2)
    if g != 1:
        raise CoprimalityError(f"{b1} and {b2} are not coprime (gcd {g})", gcd=g)
    c1 = pow(b1, -1, b2)
    if c1 == 0:
        c1 = b2
    c2, rem = divmod(c1 * b1 - 1, b2)
    assert rem == 0
    if c2 == 0:
        c1 += b2
        c2 = (c1 * b1 - 1) // b2
    return BezoutPair(b1, b2, c1, c2)


def _element(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise _digit_limit(exc, "element") or ParameterError(f"expected an integer, got {text!r}") from None
    return _int_param(value, "element", 1)


class GoodSetPrefix:
    """A finite prefix of a candidate good set, with per-element used flags."""

    def __init__(self, elements: Sequence[int]):
        elems = [_int_param(e, f"elements[{i}]", 1) for i, e in enumerate(elements)]
        if not elems:
            raise ParameterError("the prefix must be nonempty")
        seen = set()
        for e in elems:
            if e in seen:
                raise ParameterError(f"elements must be distinct, {e} repeats")
            seen.add(e)
        self.elements = tuple(elems)
        self.used = [False] * len(elems)

    @classmethod
    def from_file(cls, path) -> "GoodSetPrefix":
        """One element per line; blank lines and ``#`` comments are skipped."""
        return cls(_read_values(path, _element))

    def unused_indices(self) -> list[int]:
        return [i for i, u in enumerate(self.used) if not u]

    def __len__(self) -> int:
        return len(self.elements)


def pick_pair(prefix: GoodSetPrefix) -> tuple[int, int]:
    """Pick the next coprime pair: the smallest-index unused element, and the
    smallest-index unused element coprime to it.  Both are marked used."""
    free = prefix.unused_indices()
    if not free:
        raise ExhaustionError("no unused elements remain in the prefix")
    i = free[0]
    b1 = prefix.elements[i]
    for j in free[1:]:
        b2 = prefix.elements[j]
        if math.gcd(b1, b2) == 1:
            prefix.used[i] = True
            prefix.used[j] = True
            return b1, b2
    raise ExhaustionError(
        f"no unused coprime partner for {b1} in the prefix; it may be too short"
    )


@dataclass(frozen=True)
class GoodSetReport:
    """Coprime-partner counts inside a prefix; zero-partner elements flagged."""

    elements: tuple[int, ...]
    partner_counts: tuple[int, ...]
    flagged: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.flagged


def check_good_set(prefix: GoodSetPrefix, horizon: int | None = None) -> GoodSetReport:
    """Count, for each element, its coprime partners among the first ``horizon``."""
    if horizon is not None:
        horizon = _int_param(horizon, "horizon", 1)
    elems = prefix.elements if horizon is None else prefix.elements[:horizon]
    counts = []
    flagged = []
    for b in elems:
        c = sum(1 for other in elems if other != b and math.gcd(b, other) == 1)
        counts.append(c)
        if c == 0:
            flagged.append(b)
    return GoodSetReport(tuple(elems), tuple(counts), tuple(flagged))


# ---------------------------------------------------------------------------
# N0 estimation
# ---------------------------------------------------------------------------


def _disk_targets(radius: int) -> list[tuple[int, int]]:
    r2 = radius * radius
    out = []
    for x in range(-radius, radius + 1):
        ymax = math.isqrt(r2 - x * x)
        for y in range(-ymax, ymax + 1):
            out.append((x, y))
    return out


@dataclass(frozen=True)
class N0Estimate:
    """Outcome of the horizon search for one pair and radius.

    ``status`` is "certified" when some tested horizon had Wilson lower bound
    >= 1/2 for every target in the disk, else "inconclusive"; ``n0`` is the
    certified horizon or the cap actually examined.  Lower bounds are per
    target when the disk is small, otherwise only the worst one is kept.
    """

    status: str
    n0: int
    pair: BezoutPair
    radius: int
    confidence: float
    trials: int
    master_seed: object
    grid: tuple[int, ...]
    target_count: int
    evaluated_targets: int
    worst_lb: float
    worst_target: tuple[int, int] | None
    per_target_lb: tuple[tuple[tuple[int, int], float], ...] | None
    reason: str | None

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    to_json_dict = json_encode
    from_json_dict = classmethod(json_decode)


#: Disks of at most this many targets report every target's Wilson lower bound.
PER_TARGET_REPORT_CAP = 64

#: Disks of more lattice points than this are not searched: the estimate
#: reports the count and ``inconclusive``.
TARGET_BUDGET = 20_000


def _doubling_grid(start: int, cap: int) -> list[int]:
    grid = []
    h = start
    while h < cap:
        grid.append(h)
        h *= 2
    grid.append(cap)
    return grid


def _first_visits(u: np.ndarray, v: np.ndarray, targets, radius: int, never: int):
    """``first[r, j]``: the first 1-based index ``k`` at which ``(u, v)[r, k-1]``
    are the rotated coordinates of ``targets[j]``, or ``never``.

    The targets lie in the box ``|u|, |v| <= 2*radius``; only the points of
    a path inside it are sorted, keyed by ``u * mult + v``, injective there.
    """
    box = 2 * radius
    mult = 2 * box + 1
    keys = np.array([(x + y) * mult + (x - y) for x, y in targets], dtype=np.int64)
    near = (np.abs(u) <= box) & (np.abs(v) <= box)
    first = np.full((len(u), len(targets)), never, dtype=np.int64)
    for r in range(len(u)):
        idx = np.flatnonzero(near[r])
        if idx.size:
            near_keys = u[r, idx].astype(np.int64) * mult + v[r, idx]  # int32 u * mult may wrap
            uniq, first_idx = np.unique(near_keys, return_index=True)
            pos = np.minimum(np.searchsorted(uniq, keys), len(uniq) - 1)
            hit = uniq[pos] == keys
            first[r, hit] = idx[first_idx[pos[hit]]] + 1
    return first


def estimate_N0(
    pair: BezoutPair,
    radius: int,
    *,
    confidence: float = 0.95,
    trials: int = 1000,
    master_seed=0,
    horizon_start: int = 16,
    horizon_cap: int = 1 << 14,
    workers: int = 1,
) -> N0Estimate:
    """Search a doubling horizon grid for the smallest certified N0.

    One simulation pass at the cap records, per trial and per target, the
    first period index at which the composite walk hits the target; every
    grid horizon is then scored from those first-hit indices.  Certification
    at horizon N means: for every lattice target with norm <= radius, the
    Wilson lower bound (at ``confidence``) of the hit-by-N probability is at
    least 1/2.
    """
    trials, workers = _trial_params(trials, master_seed, workers, confidence)
    radius = _int_param(radius, "radius", 0)
    horizon_start = _int_param(horizon_start, "horizon_start", 1)
    horizon_cap = _int_param(horizon_cap, "horizon_cap", 1)
    if horizon_cap < horizon_start:
        raise ParameterError("need 1 <= horizon_start <= horizon_cap")
    grid = _doubling_grid(horizon_start, horizon_cap)
    common = dict(
        pair=pair, radius=radius, confidence=confidence, trials=trials,
        master_seed=master_seed, grid=tuple(grid),
    )
    # Analytic size guard first: the disk holds ~pi*r^2 lattice points, so do
    # not even enumerate it when it cannot fit the budget.
    targets = None if math.pi * radius * radius > 2 * TARGET_BUDGET else _disk_targets(radius)
    count = math.ceil(math.pi * radius**2) if targets is None else len(targets)
    if count > TARGET_BUDGET:
        return N0Estimate(
            status="inconclusive",
            n0=horizon_cap,
            **common,
            target_count=count,
            evaluated_targets=0,
            worst_lb=0.0,
            worst_target=None,
            per_target_lb=None,
            reason=f"target disk holds ~{count} lattice points, beyond the "
            f"budget of {TARGET_BUDGET}; certification not attempted",
        )

    period = pair.period
    if sum(pair.pattern()) * horizon_cap > INT64_STEP_SUM:
        raise ParameterError("horizon cap too large for 64-bit positions; lower horizon_cap")
    nsteps = period * horizon_cap
    grid_arr = np.array(grid, dtype=np.int64)

    def score(uv: np.ndarray) -> np.ndarray:
        # [t, g]: trials of the batch hitting target t by grid[g] periods
        ends = uv[:, period - 1 :: period]  # positions after whole periods
        first = _first_visits(ends[..., 0], ends[..., 1], targets, radius, nsteps + 1)
        return (first[:, :, None] <= grid_arr).sum(axis=0)

    pattern = np.array(pair.pattern(), dtype=np.int64)
    successes = _walk_trials(
        nsteps, lambda: np.tile(pattern, horizon_cap), trials, master_seed, score, workers=workers
    )

    def lb(s: int) -> float:
        return wilson_interval(int(s), trials, confidence).low

    chosen_g = next((g for g in range(len(grid)) if lb(successes[:, g].min()) >= 0.5), None)
    final_g = len(grid) - 1 if chosen_g is None else chosen_g
    worst_idx = int(np.argmin(successes[:, final_g]))
    per_target = None
    if len(targets) <= PER_TARGET_REPORT_CAP:
        per_target = tuple(
            (t, lb(int(successes[i, final_g]))) for i, t in enumerate(targets)
        )
    return N0Estimate(
        status="inconclusive" if chosen_g is None else "certified",
        n0=grid[final_g],
        **common,
        target_count=len(targets),
        evaluated_targets=len(targets),
        worst_lb=lb(int(successes[worst_idx, final_g])),
        worst_target=targets[worst_idx],
        per_target_lb=per_target,
        reason="horizon cap reached before certification" if chosen_g is None else None,
    )


# ---------------------------------------------------------------------------
# Plan assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundPlan:
    index: int
    pair: BezoutPair
    n0: int
    n_start: int  # last index of the previous round (steps of this round are n_start+1..n_end)
    n_end: int
    radius: int
    alpha: int
    estimate: N0Estimate | None = None

    def __post_init__(self):
        if self.n0 < 1 or self.n_end - self.n_start != self.pair.period * self.n0:
            raise ParameterError(
                f"round {self.index}: n_end - n_start = {self.n_end - self.n_start} must be "
                f"period * n0 = {self.pair.period} * {self.n0}, with n0 >= 1"
            )

    to_json_dict = json_encode


@dataclass(frozen=True)
class ConstructionPlan:
    """The full recursive schedule; regenerates its step sequence bit-exactly."""

    rounds: tuple[RoundPlan, ...]
    status: str  # "certified" iff every round's N0 search certified
    master_seed: object
    confidence: float
    trials: int
    radius_mode: str

    def __post_init__(self):
        for i, (r, n_start) in enumerate(zip(self.rounds, [0] + [r.n_end for r in self.rounds])):
            if (r.index, r.n_start) != (i, n_start):
                raise ParameterError(
                    f"rounds must be contiguous from 0: round {i} has index {r.index} and "
                    f"n_start {r.n_start}, not {i} and {n_start}"
                )

    @property
    def n_end(self) -> int:
        return self.rounds[-1].n_end if self.rounds else 0

    def sequence(self) -> StepSequence:
        rounds = self.rounds
        ends = [rp.n_end for rp in rounds]

        def evaluate(n: int) -> int:
            # StepSequence.value keeps n within 1..n_end
            rp = rounds[bisect.bisect_left(ends, n)]
            offset = (n - rp.n_start - 1) % rp.pair.period
            return rp.pair.b1 if offset < rp.pair.c1 else rp.pair.b2

        def runs():
            for rp in rounds:
                for _ in range(rp.n0):
                    yield rp.pair.b1, rp.pair.c1
                    yield rp.pair.b2, rp.pair.c2

        top = max((max(rp.pair.b1, rp.pair.b2) for rp in rounds), default=0)
        return StepSequence(
            "from-construction-plan",
            {"plan": self.to_json_dict()},
            evaluate,
            length=self.n_end,
            runs=runs,
            lattice=lambda n: (_plan_steps(rounds)[:n], 1) if top * n <= INT64_STEP_SUM else None,
        )

    to_json_dict = json_encode
    from_json_dict = classmethod(json_decode)  # checks the plan, see __post_init__

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ConstructionPlan":
        return cls.from_json_dict(json.loads(text))


def _plan_steps(rounds) -> np.ndarray:
    patterns = [np.tile(np.array(r.pair.pattern(), dtype=np.int64), r.n0) for r in rounds]
    return np.concatenate(patterns)


#: Simulated prefixes per round of a plan built with ``radius_mode="realized"``.
REALIZED_RADIUS_TRIALS = 64


def _realized_radius(plan_rounds: list[RoundPlan], n_k: int, master_seed) -> int:
    """Largest observed |S_{n_k}| over :data:`REALIZED_RADIUS_TRIALS` simulated
    prefixes (the trajectory-based alternative to the coarse alpha*n bound)."""
    if n_k == 0:
        return 0

    def score(uv: np.ndarray) -> int:
        # x^2 + y^2 = (u^2 + v^2) / 2
        return max(math.isqrt((su * su + sv * sv) // 2) + 1 for su, sv in uv[:, -1].tolist())

    # substream tag 102: realized-radius probes for round len(plan_rounds)
    seed = (master_seed, 102, len(plan_rounds))
    return _walk_trials(
        n_k, lambda: _plan_steps(plan_rounds), REALIZED_RADIUS_TRIALS, seed, score, combine=max
    )


def build_recurrent_sequence(
    prefix: GoodSetPrefix,
    rounds: int,
    *,
    master_seed=0,
    trials: int = 1000,
    confidence: float = 0.95,
    horizon_cap: int = 1 << 14,
    radius_mode: str = "coarse",
    workers: int = 1,
) -> tuple[ConstructionPlan, StepSequence]:
    """Assemble ``rounds`` rounds of the schedule and the resulting sequence.

    Round k starts at index n_k with the walk no farther than C from the
    origin, where C is alpha_k * n_k (coarse mode, alpha_k the largest value
    emitted so far) or the largest simulated |S_{n_k}| (realized mode).  The
    round's N0 search runs against that radius; its pattern is then emitted
    N0 times.  Every pair of elements is consumed exactly once, so any finite
    run uses each element finitely many times.  The plan is only marked
    certified when every round certified.  ``horizon_cap`` must be at least
    16, the first horizon of each round's search, whatever ``rounds`` is.
    """
    trials, workers = _trial_params(trials, master_seed, workers, confidence)
    rounds = _int_param(rounds, "rounds", 0)
    horizon_cap = _int_param(horizon_cap, "horizon_cap", 16)
    if radius_mode not in ("coarse", "realized"):
        raise ParameterError("radius_mode must be 'coarse' or 'realized'")
    plan_rounds: list[RoundPlan] = []
    n = 0
    alpha = 0
    for k in range(rounds):
        b1, b2 = pick_pair(prefix)
        pair = positive_bezout(b1, b2)
        if radius_mode == "coarse":
            radius = alpha * n
        else:
            radius = _realized_radius(plan_rounds, n, master_seed)
        # substream tag 101: the round-k horizon search
        est = estimate_N0(
            pair,
            radius,
            confidence=confidence,
            trials=trials,
            master_seed=(master_seed, 101, k),
            horizon_cap=horizon_cap,
            workers=workers,
        )
        n0 = est.n0
        n_end = n + pair.period * n0
        plan_rounds.append(
            RoundPlan(
                index=k,
                pair=pair,
                n0=n0,
                n_start=n,
                n_end=n_end,
                radius=radius,
                alpha=alpha,
                estimate=est,
            )
        )
        alpha = max(alpha, b1, b2)
        n = n_end
    status = (
        "certified"
        if plan_rounds and all(r.estimate and r.estimate.certified for r in plan_rounds)
        else ("empty" if not plan_rounds else "inconclusive")
    )
    plan = ConstructionPlan(
        rounds=tuple(plan_rounds),
        status=status,
        master_seed=master_seed,
        confidence=confidence,
        trials=trials,
        radius_mode=radius_mode,
    )
    return plan, plan.sequence()


# ---------------------------------------------------------------------------
# Plan evaluation: fresh walks against the per-round return guarantee
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundHitReport:
    index: int
    successes: int
    fraction: float
    wilson_lb: float


@dataclass(frozen=True)
class PlanEvaluation:
    """Fractions of fresh walks hitting the origin inside each round's segment."""

    trials: int
    master_seed: object
    level: float
    per_round: tuple[RoundHitReport, ...]

    def to_json_dict(self) -> dict:
        return {**json_encode(self), "rng_id": _rng.RNG_ID, "seed_rule": _rng.SEED_RULE_ID}


def evaluate_plan(
    plan: ConstructionPlan,
    trials: int,
    master_seed,
    *,
    level: float = 0.95,
    workers: int = 1,
) -> PlanEvaluation:
    """Simulate fresh walks over the whole constructed prefix and count, per
    round, the walks with S_n = 0 for some n in (n_start, n_end]."""
    trials, workers = _trial_params(trials, master_seed, workers, level)
    if not plan.rounds:
        raise ParameterError("plan has no rounds to evaluate")
    bounds = [(rp.n_start, rp.n_end) for rp in plan.rounds]

    def score(uv: np.ndarray) -> np.ndarray:
        return np.array([_returns(uv[:, lo:hi]) for lo, hi in bounds])

    totals = _walk_trials(
        plan.n_end, lambda: _plan_steps(plan.rounds), trials, master_seed, score, workers=workers
    )
    per_round = tuple(
        RoundHitReport(rp.index, hits, hits / trials, wilson_interval(hits, trials, level).low)
        for rp, hits in zip(plan.rounds, totals.tolist())
    )
    return PlanEvaluation(trials, master_seed, level, per_round)
