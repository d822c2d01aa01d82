"""Executable checks for the inequalities the simulations rely on.

Each check pairs an exact quantity (from :mod:`radwalk.exact`) or a controlled
Monte Carlo experiment (from :mod:`radwalk.walk` streams) with the bound it
must respect, and reports structured pass/fail records.  Probabilities stay
exact rationals; logarithms and exponentials use floats with stated
tolerances, and pass/fail decisions are made on exact integer or rational
comparisons wherever the quantity is rational.

The drift check concerns the log potential ``f(x, y) = log(x^2 + y^2 - 1/2)``
(with ``f(0,0) = -5``): its one-step mean change Delta under a unit-step walk
is never positive away from the origin.  Writing ``E = 2x^2 + 2y^2 - 1``,
the four neighbor arguments are integers over 2 and

    exp(4*Delta) = prod(neighbors)/E^4 = 1 - 64*(x^2-y^2)^2 / E^4

for |x|+|y| >= 2, an exact integer identity this module verifies at every
point (on the grid by residues, see :data:`DRIFT_RADIUS_CAP`);
at |x|+|y| = 1 the origin's special value enters and exp(4*Delta) = 126/e^5.
The grid check evaluates the closed form once per orbit of the axis
symmetries, with the quotient 64(x^2-y^2)^2 / E^4 correctly rounded in
float64 (:func:`_quotient`), and the direct four-neighbour average on the
half-plane x >= 0, where it equals its mirror image bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import exact as _exact
from . import rng as _rng
from .errors import ParameterError, PreconditionError
from .rng import ConfidenceInterval, json_encode, wilson_interval
from .sequences import INT64_STEP_SUM, _int_param
from .walk import _hits, _walk_trials

#: Value assigned to the log potential at the origin.
ORIGIN_POTENTIAL = -5.0

#: Relative agreement tolerance between the two drift computations.
DRIFT_AGREEMENT_TOL = 1e-12


def log_potential(x: int, y: int) -> float:
    """log(x^2 + y^2 - 1/2), with the origin pinned at -5."""
    if x == 0 and y == 0:
        return ORIGIN_POTENTIAL
    return math.log(x * x + y * y - 0.5)


def _relative_gap(a: float, b: float) -> float:
    """|a - b| relative to max(1, |a|, |b|).

    The floor at 1 makes the metric meaningful when the true value is 0 (the
    drift vanishes exactly on the diagonals); fixed double precision cannot
    meet a pure relative tolerance at a zero of the function.
    """
    return abs(a - b) / max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class DeltaReport:
    """One-step mean change of the log potential at a lattice point.

    ``exp4_closed`` is the exact rational value of exp(4*Delta) for generic
    points and the float 126/e^5 for origin neighbors.  ``identity_exact``
    records whether the integer identity behind the closed form held verbatim
    (generic points only; True vacuously for neighbors).
    """

    point: tuple[int, int]
    classification: str  # "origin-neighbor" | "generic"
    delta_direct: float
    delta_closed: float
    exp4_closed: Fraction | float
    agreement: float
    identity_exact: bool

    @property
    def agrees(self) -> bool:
        return self.agreement <= DRIFT_AGREEMENT_TOL


def _closed_form(x: int, y: int) -> tuple[int, int, bool]:
    """``(num, den)`` with exp(4*Delta) = 1 - num/den at |x|+|y| >= 2, and
    whether the product of the four neighbor arguments 2x'^2 + 2y'^2 - 1 (all
    nonzero there) equals den - num, the integer identity behind the form.

    On Python ints: the point API of :func:`supermartingale_delta`, and the
    reference the orbit arrays of :func:`verify_supermartingale` are tested
    against."""
    product = 1
    for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
        product *= 2 * nx * nx + 2 * ny * ny - 1
    num = 64 * (x * x - y * y) ** 2
    den = (2 * x * x + 2 * y * y - 1) ** 4
    return num, den, product == den - num


#: Moduli of the exact integer comparisons: 2**64, at which int64 arithmetic
#: wraps, and two primes below 2**31, whose residues multiply in int64.
IDENTITY_MODULI = (1 << 64, (1 << 31) - 1, (1 << 31) - 19)

#: Largest radius whose identity check is exact.  At a + b <= r every
#: neighbor argument is below 2(r+1)^2, so both sides of
#: prod(neighbors) + 64(a^2-b^2)^2 = E^4 lie in [0, 16(r+1)^8 + 64r^4), and
#: up to this radius that range fits in the product of the moduli.  The grid
#: there has 6e9 points, more than memory holds; one prime alone would stop
#: at radius 2654, whose grid of 28e6 points fits.  The check's arrays are
#: the half-plane's two quadrants and the orbits, about 2r^2 and r^2/4
#: entries.  Up to radius 3444 every orbit's quotient 64 d^2 / E^4 takes the
#: float route; past it the orbits with 64 d^2 >= 2**53 or E^2 >= 2**52
#: divide Python ints.  E^2 stays below 2**63 up to this cap.
DRIFT_RADIUS_CAP = 38966


def _sums_equal(left: list[list], right: list[list]) -> np.ndarray:
    """Whether ``sum(prod(term) for term in left)`` equals the same of
    ``right``, elementwise.  A term is a list of factors in [0, 2**63):
    int64 arrays, and ints beside them.  The sides are compared modulo each of
    :data:`IDENTITY_MODULI`, which is equality when both lie in
    [0, product of the moduli)."""
    holds = np.bool_(True)
    for m in IDENTITY_MODULI:
        # t % m for t >= 0, as numpy's faster division by a scalar
        red = (lambda t: t) if m == 1 << 64 else (lambda t: t - t // m * m)
        sides = []
        for terms in (left, right):
            total = 0  # a sum of a few residues below 2**31 stays in range
            for first, *rest in terms:
                product = red(first)
                for f in rest:
                    product = red(product * red(f))
                total = total + product
            sides.append(red(total))
        holds = holds & (sides[0] == sides[1])
    return holds


def _identity_holds(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether prod(neighbors) = E^4 - 64(a^2-b^2)^2 at each orbit (a, b) of
    int64 arrays, exactly for a + b <= :data:`DRIFT_RADIUS_CAP`."""
    neighbors = [
        2 * nx * nx + 2 * ny * ny - 1 for nx, ny in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1))
    ]
    e = 2 * a * a + 2 * b * b - 1
    return _sums_equal([neighbors, [64, (a * a - b * b) ** 2]], [[e, e, e, e]])


def supermartingale_delta(x: int, y: int) -> DeltaReport:
    """Delta at (x, y), computed two ways: the direct four-neighbor average of
    the log potential, and the closed form for exp(4*Delta)."""
    x, y = _int_param(x, "x"), _int_param(y, "y")
    if x == 0 and y == 0:
        raise ParameterError("Delta is undefined at the origin (the walk stops there)")
    delta_direct = (
        log_potential(x + 1, y)
        + log_potential(x - 1, y)
        + log_potential(x, y + 1)
        + log_potential(x, y - 1)
    ) / 4.0 - log_potential(x, y)
    if abs(x) + abs(y) == 1:
        exp4: Fraction | float = 126.0 * math.exp(-5.0)
        delta_closed = (math.log(126.0) - 5.0) / 4.0
        identity = True
        classification = "origin-neighbor"
    else:
        num, den, identity = _closed_form(x, y)
        exp4 = 1 - Fraction(num, den)
        # log1p on the exact ratio keeps precision when exp4 is near 1
        delta_closed = math.log1p(-float(Fraction(num, den))) / 4.0
        classification = "generic"
    return DeltaReport(
        point=(x, y),
        classification=classification,
        delta_direct=delta_direct,
        delta_closed=delta_closed,
        exp4_closed=exp4,
        agreement=_relative_gap(delta_direct, delta_closed),
        identity_exact=identity,
    )


@dataclass(frozen=True)
class DriftGridReport:
    """Exhaustive drift scan over 1 <= |x|+|y| <= radius."""

    radius: int
    points: int
    max_delta: float
    max_delta_point: tuple[int, int]
    max_agreement_gap: float
    nonpositive: bool  # exact: every exp(4*Delta) <= 1
    identity_failures: int  # generic points whose integer identity broke
    equality_diagonal_only: bool  # Delta == 0 exactly iff |x| == |y|
    passed: bool

    to_json_dict = json_encode


#: Veltkamp's splitting constant 2**27 + 1, which cuts a double into two halves
#: of at most 26 significant bits each.
_SPLITTER = float((1 << 27) + 1)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a: np.ndarray, b_split: tuple[np.ndarray, np.ndarray], b: np.ndarray):
    """``(p, e)`` with p = fl(a*b) and p + e = a*b exactly (Dekker 1971), for
    ``b_split = _split(b)``; the error stays within half an ulp of p, so
    [e, p] is nonoverlapping."""
    p = a * b
    ah, al = _split(a)
    bh, bl = b_split
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(s, e)`` with s = fl(a+b) and s + e = a+b exactly (Knuth)."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _quotient(num: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """``num / e2**2`` correctly rounded, for float64 arrays of integers with
    0 <= num < 2**53 and 1 <= e2 < 2**52, where no quotient lies halfway
    between two doubles.

    q1 = num / e2 and q = q1 / e2 each round once.  Their remainders
    r1 = num - q1*e2 and r2 = q1 - q*e2 are exact doubles, so
    num - q*e2**2 = e2*r2 + r1 exactly, and the quotient lies within 1.5 ulp
    of q.  The result is q or its neighbour on the side of that residual: the
    neighbour exactly when num - m*e2**2 has the side's sign at the midpoint m
    between them.  That difference is e2*w + r1 with w = r2 -+ ulp*e2/2, a
    multiple of ulp/2 below 2*e2 of them, so an exact double while
    e2 < 2**52.  Its product with e2 is a double-double, and Shewchuk's
    Grow-Expansion adds r1 as a nonoverlapping sum whose leading nonzero term
    has the exact sign.  When q is a power of two or the double above it, the
    binade below lies within 1.5 ulp with a finer spacing; those quotients
    divide Python ints instead.
    """
    e2_split = _split(e2)

    def remainder(x, quo):  # x - quo*e2, exact for quo = fl(x / e2)
        p, e = _two_product(quo, e2_split, e2)
        return (x - p) - e

    q1 = num / e2
    r1 = remainder(num, q1)
    q = q1 / e2
    r2 = remainder(q1, q)
    side = np.where(r2 * e2 + r1 < 0.0, -1.0, 1.0)  # the residual's sign wherever it matters
    mantissa, exponent = np.frexp(q)  # q = mantissa * 2**exponent, mantissa in [1/2, 1)
    ulp = np.ldexp(1.0, exponent - 53)
    h, l = _two_product(r2 - side * (0.5 * ulp) * e2, e2_split, e2)
    s1, t1 = _two_sum(r1, l)
    s2, t2 = _two_sum(s1, h)
    lead = np.where(s2 != 0.0, s2, t1)  # s2 = 0 means s1 + h = 0 exactly, so t2 = 0
    out = np.where(lead * side > 0.0, q + side * ulp, q)
    for i in np.flatnonzero((mantissa == 0.5) | (mantissa == 0.5 + 2.0**-53)).tolist():
        out[i] = int(num[i]) / int(e2[i]) ** 2
    return out


def _orbit_quotients(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """64 d^2 / e^4 at each orbit's int64 ``d`` and ``e``, correctly rounded
    like the point API's quotient of Python ints: by :func:`_quotient` where
    64 d^2 and e^2 lie below its bounds, which holds at every orbit up to
    radius 3444, and by those Python ints past them."""
    dd, ee = d * d, e * e  # below 2**63 at every orbit up to DRIFT_RADIUS_CAP
    out = _quotient(64.0 * dd, ee.astype(float))  # replaced below past its bounds
    for i in np.flatnonzero((dd >= 1 << 47) | (ee >= 1 << 52)).tolist():
        t, ei = int(d[i]), int(e[i])
        out[i] = 64 * t * t / (ei * ei) ** 2
    return out


def verify_supermartingale(radius: int) -> DriftGridReport:
    """Check Delta <= 0 (exactly) and the two-route agreement on the grid.

    A violation makes the report fail; nothing raises.
    """
    radius = _int_param(radius, "radius")
    if radius < 1:
        raise ParameterError("radius must be >= 1")
    if radius > DRIFT_RADIUS_CAP:
        raise ParameterError(
            f"radius {radius} exceeds {DRIFT_RADIUS_CAP}, the largest whose identity check is exact"
        )
    # Every table is on the quadrant 0 <= x, y.  The direct value at (-x, y) is
    # the one at (x, y), whose sum only swaps its first two terms there, so the
    # direct route covers the half-plane x >= 0: the quadrant's points for
    # y >= 0 and, mirrored, for y <= 0, where the mirror reassociates the sum.
    k = np.arange(radius + 2)
    q = np.add.outer(k * k, k * k)  # x^2 + y^2
    s = np.add.outer(k, k)  # x + y
    # logs of the values the grid and its neighbours read, x + y <= radius + 1;
    # the rest of the quadrant reads 0 and is masked out below
    logs = np.zeros(q[-1, -1] + 1)
    used = np.flatnonzero(np.bincount(q[s <= radius + 1]))[1:]  # 0 comes first
    logs[0] = ORIGIN_POTENTIAL
    logs[used] = list(map(math.log, (used - 0.5).tolist()))
    # F[i, j] is f at (x, y) = (i - 1, j - 1), for -1 <= x, y <= radius + 1
    F = logs[q]
    F = np.concatenate([F[1:2], F])  # row x = -1 reads row 1
    F = np.concatenate([F[:, 1:2], F], axis=1)  # column y = -1 reads column 1
    # Direct route at (x, +y) and (x, -y) for 0 <= x, y <= radius, summed in
    # the scalar order ((F[x+1, y] + F[x-1, y]) + F[x, y+1]) + F[x, y-1].
    up, down, centre = F[1:-1, 2:], F[1:-1, :-2], F[1:-1, 1:-1]
    plus = np.add(F[2:, 1:-1], F[:-2, 1:-1])
    minus = plus.copy()
    for direct, first, last in ((plus, up, down), (minus, down, up)):
        direct += first
        direct += last
        direct /= 4.0
        direct -= centre
    del F, up, down, centre
    # The closed form depends only on the orbit of (x, y) under the axis
    # symmetries: evaluate it once per orbit a >= b >= 0, 2 <= a + b <= radius.
    s = s[:-1, :-1]
    a, b = np.nonzero(np.tri(radius + 1, dtype=bool) & (s <= radius))
    a, b = a[1:], b[1:]  # drop (0, 0), first in row-major order; (1, 0) comes next
    values = np.empty(len(a))
    # the origin's neighbours (a + b = 1) see the origin's special value
    values[0] = (math.log(126.0) - 5.0) / 4.0
    ga, gb = a[1:], b[1:]  # the generic orbits, a + b >= 2
    weight = np.where((gb == 0) | (ga == gb), 4, 8)  # grid points per orbit
    identity_failures = int(weight[~_identity_holds(ga, gb)].sum())
    d = ga * ga - gb * gb  # exp(4 Delta) = 1 - 64 d^2 / E^4
    e = 2 * (ga * ga + gb * gb) - 1
    # exact: exp(4 Delta) <= 1 since 64 d^2 >= 0
    nonpositive = bool(values[0] <= 0.0) and bool((d * d >= 0).all())
    equality_ok = bool(((d == 0) == (ga == gb)).all())
    quotient = _orbit_quotients(d, e)
    # 0.0 - q is +0.0 on the diagonals, where -q would make log1p give -0.0
    values[1:] = list(map(math.log1p, (0.0 - quotient).tolist()))
    values[1:] /= 4.0
    # Row-major order takes x, then y, from -radius up, so the first maximum is
    # at (-X, -Y): X the largest |x| among the maximal points, Y the largest
    # |y| among those at |x| = X.
    best = values.max()
    top = values == best
    X = int(a[top].max())
    Y = int(b[top & (a == X)].max())
    closed = np.zeros((radius + 1, radius + 1))
    closed[a, b] = closed[b, a] = values
    # agreement at the inside points 1 <= x + |y| <= radius of the half-plane
    inside = (s >= 1) & (s <= radius)
    max_gap = 0.0
    size = np.abs(closed)
    for direct in (plus, minus):
        gaps = np.subtract(direct, closed)
        np.abs(gaps, out=gaps)
        scale = np.maximum(np.abs(direct, out=direct), size, out=direct)
        gaps /= np.maximum(scale, 1.0, out=scale)
        max_gap = max(max_gap, gaps.max(initial=0.0, where=inside))
    passed = nonpositive and identity_failures == 0 and max_gap <= DRIFT_AGREEMENT_TOL and equality_ok
    return DriftGridReport(
        radius=radius,
        points=2 * radius * (radius + 1),
        max_delta=float(best),
        max_delta_point=(-X, -Y),
        max_agreement_gap=max_gap,
        nonpositive=nonpositive,
        identity_failures=identity_failures,
        equality_diagonal_only=equality_ok,
        passed=passed,
    )


@dataclass(frozen=True)
class BoundComparison:
    """An exact quantity against the bound it must not exceed."""

    exact: Fraction
    bound: float
    slack: float
    passed: bool
    params: dict

    def to_json_dict(self) -> dict:
        return {**json_encode(self), "exact_float": float(self.exact)}


def verify_elo(d: Sequence, half_width) -> BoundComparison:
    """Interval anti-concentration: sup_x P(T in (x-D, x+D]) <= 0.8/sqrt(m).

    The pass decision is exact: sup^2 * m <= 16/25.
    """
    d = list(d)  # read twice, so an iterator is taken once
    sup, _x = _exact.max_interval_probability(d, half_width)
    m = len(d)
    passed = sup * sup * m <= Fraction(16, 25)
    bound = 0.8 / math.sqrt(m)
    return BoundComparison(
        exact=sup,
        bound=bound,
        slack=bound - float(sup),
        passed=passed,
        params={"m": m, "D": Fraction(half_width)},
    )


@dataclass(frozen=True)
class ModLemmaReport:
    """Worst residue-class mass and its anti-concentration ratio.

    ``ratio`` is sup_M P * k / log k with k the number of distinct steps; the
    ratio is None for k < 2 (log k vanishes).  ``passed`` compares the ratio
    against the configured cap, or is None when the ratio is undefined.
    """

    k: int
    m: int
    sup: Fraction
    arg_residue: int
    ratio: float | None
    cap: float
    passed: bool | None

    def to_json_dict(self) -> dict:
        return {**json_encode(self), "sup_float": float(self.sup)}


def verify_mod_lemma(d: Sequence, m: int, *, cap: float = 10.0) -> ModLemmaReport:
    """Exact sup over residues M of P(T = M mod m), and the measured constant.

    Requires m to be at least the largest of the distinct step values (the
    anti-concentration statement needs the modulus to dominate the steps).
    """
    if not math.isfinite(cap):
        raise ParameterError(f"cap must be finite, got {cap}")
    m = _int_param(m, "modulus m")
    steps = _exact._int_steps_only(d)
    distinct = sorted(set(steps))
    k = len(distinct)
    if m < max(distinct):
        raise PreconditionError(
            f"modulus {m} is smaller than the largest distinct step {max(distinct)}"
        )
    profile = _exact.mod_probability_profile(steps, m)
    sup = max(profile)
    arg = profile.index(sup)
    if k >= 2:
        ratio = float(sup) * k / math.log(k)
        passed: bool | None = ratio <= cap
    else:
        ratio = None
        passed = None
    return ModLemmaReport(
        k=k, m=m, sup=sup, arg_residue=arg, ratio=ratio, cap=cap, passed=passed
    )


@dataclass(frozen=True)
class HittingTimeResult:
    """First-passage experiment: start at distance r, horizon floor(r^3)."""

    r: float
    step: int
    start: tuple[int, int]
    horizon: int
    trials: int
    successes: int
    estimate: float
    ci: ConfidenceInterval
    exact: Fraction | None
    master_seed: object
    rng_id: str = _rng.RNG_ID
    seed_rule: str = _rng.SEED_RULE_ID

    to_json_dict = json_encode


#: Largest axis-start radius whose report carries the exact hit probability.
#: The pinned report bytes hold it here: r = 5 and r = 10 are recorded with
#: ``exact = None``, though the renewal gives r = 10 in well under a second.
EXACT_RADIUS_CAP = 2


def _ring_points(r: float) -> list[tuple[int, int]]:
    """Lattice points with norm in [r, r+1), sorted for deterministic indexing."""
    side = range(-int(math.floor(r + 1)), int(math.floor(r + 1)) + 1)
    return [(x, y) for x in side for y in side if r * r <= x * x + y * y < (r + 1) ** 2]


def hitting_time_experiment(
    r,
    step: int = 1,
    trials: int = 10_000,
    master_seed=0,
    *,
    level: float = 0.95,
    workers: int = 1,
    start_mode: str = "axis",
) -> HittingTimeResult:
    """Estimate P(walk from distance r hits the origin within floor(r^3) steps).

    The walk takes steps of one fixed size on the correspondingly scaled
    lattice.  The start is the deterministic axis point (ceil(r)*step, 0) by
    default; ``start_mode="ring"`` instead draws, per trial, a uniform lattice
    point with norm in [r, r+1) (one extra draw ahead of the direction
    stream).  For axis starts with r <= :data:`EXACT_RADIUS_CAP` the exact value
    is also computed by :func:`radwalk.exact.hit_probability_2d` and returned
    for cross-checking.
    """
    if not math.isfinite(r):
        raise ParameterError(f"r must be finite, got {r}")
    if r < 0:
        raise ParameterError("r must be >= 0")
    # unit steps sum to the horizon; the first test keeps r**3 a finite float
    if r > 1 << 21 or math.floor(float(r) ** 3) > INT64_STEP_SUM:
        raise ParameterError(f"horizon floor(r^3) exceeds 2**62 steps, r = {r}")
    if step < 1:
        raise ParameterError("step must be a positive integer")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if start_mode not in ("axis", "ring"):
        raise ParameterError("start_mode must be 'axis' or 'ring'")
    _rng.TrialStream(master_seed)  # the seed fails by name, also when r = 0 needs no walk
    horizon = int(math.floor(float(r) ** 3))
    start_units = int(math.ceil(r))
    start = (start_units * step, 0)
    ring = _ring_points(float(r)) if start_mode == "ring" else None
    # a walk that starts at the origin succeeds at time 0
    at_origin = (start_mode == "axis" and start_units == 0) or ring == [(0, 0)]
    exact: Fraction | None = Fraction(1) if at_origin else None
    if start_mode == "axis" and r <= EXACT_RADIUS_CAP and not at_origin:
        # hitting the origin from (s, 0) is, by symmetry, hitting (s, 0) from the origin
        exact = _exact.hit_probability_2d([1] * horizon, (start_units, 0), horizon)
    # The walk from (x0, y0) is at the origin when u = -(x0+y0), v = -(x0-y0).
    # A ring trial's pair is stored and taken by the chunk that walks it.
    origin: dict[int, tuple[int, int]] = {}

    def ring_codes(reader: _rng.CodeReader, t: int) -> np.ndarray:
        reader.seek(t)  # the trial_generator(master_seed, t) draws, on the chunk's Philox
        gen = reader.generator
        x0, y0 = ring[int(gen.integers(0, len(ring)))]
        origin[t] = (-(x0 + y0), -(x0 - y0))
        return gen.integers(0, _rng.NUM_DIRECTIONS, size=horizon, dtype=np.int64)

    def score(batch: range, u: np.ndarray, v: np.ndarray) -> int:
        if ring is None:
            return _hits(u, v, -start_units, -start_units)
        tuv = np.array([origin.pop(t) for t in batch])
        return _hits(u, v, tuv[:, :1], tuv[:, 1:])  # one target per row

    successes = trials if at_origin else _walk_trials(
        horizon, lambda: np.ones(horizon, dtype=np.int64), trials, master_seed, score,
        workers=workers, codes_of=None if ring is None else ring_codes,
    )
    return HittingTimeResult(
        r=float(r),
        step=step,
        start=start,
        horizon=horizon,
        trials=trials,
        successes=successes,
        estimate=successes / trials,
        ci=wilson_interval(successes, trials, level),
        exact=exact,
        master_seed=master_seed,
    )


@dataclass(frozen=True)
class TrendRow:
    k: int
    sup: Fraction
    ratio: float  # sup * k**1.5


@dataclass(frozen=True)
class SupPmfTrendReport:
    """Maximal point masses of the laws with steps 1..k, against C/k^{3/2}.

    ``passed`` asserts boundedness over the tested range: every ratio stays
    under ``ratio_cap`` and the least-squares slope of ratio against log k
    over k >= ``k_floor`` stays under ``slope_cap``.
    """

    rows: tuple[TrendRow, ...]
    ratio_cap: float
    slope_cap: float
    k_floor: int
    max_ratio: float
    slope: float | None
    passed: bool

    to_json_dict = json_encode


def sup_pmf_trend(
    k_max: int,
    *,
    k_floor: int = 8,
    ratio_cap: float = 2.0,
    slope_cap: float = 0.1,
) -> SupPmfTrendReport:
    """Tabulate sup_z P(T_k = z) for steps (1..k), k = 1..k_max."""
    if k_max < 1:
        raise ParameterError("k_max must be >= 1")
    for name, cap in (("ratio_cap", ratio_cap), ("slope_cap", slope_cap)):
        if not math.isfinite(cap):
            raise ParameterError(f"{name} must be finite, got {cap}")
    sups = enumerate(_exact.sup_pmf_running(k_max), 1)
    rows = [TrendRow(k=k, sup=sup, ratio=float(sup) * k**1.5) for k, sup in sups]
    tail = [(math.log(r.k), r.ratio) for r in rows if r.k >= k_floor]
    slope: float | None = None
    if len(tail) >= 2:
        xs = [t[0] for t in tail]
        ys = [t[1] for t in tail]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        denom = sum((u - xbar) ** 2 for u in xs)
        slope = sum((u - xbar) * (v - ybar) for u, v in zip(xs, ys)) / denom
    max_ratio = max(r.ratio for r in rows)
    passed = max_ratio <= ratio_cap and (slope is None or slope <= slope_cap)
    return SupPmfTrendReport(
        rows=tuple(rows),
        ratio_cap=ratio_cap,
        slope_cap=slope_cap,
        k_floor=k_floor,
        max_ratio=max_ratio,
        slope=slope,
        passed=passed,
    )
