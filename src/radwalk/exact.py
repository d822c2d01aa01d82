"""Exact distributions of signed step sums, from packed integer convolution.

Everything in this module is exact: a distribution is stored as integer
weights over its support together with the total weight (a power of two), and
probabilities are reported as ``Fraction``.  No floating point enters any
mass.  These oracles are the trust anchor for the statistical tests in the
rest of the package.

One engine builds every signed-sum law: :func:`_running_laws` yields the
polynomial ``prod(1 + z**s)`` of the first n steps, packed as one big integer
of fixed-width bit slots, after each step (one shift-add per step), and
:func:`_weight_at` reads one value of it.  A one-shot law multiplies the steps
in ascending order, which keeps the partial products shortest; the running
laws keep the steps' own order.  :func:`_nonzero_slots` decodes a law below 64
steps (one 64-bit limb per slot) straight to Python ints, and wider slots limb
by limb.  ``pmf_1d(d)`` decodes the last law;
``pmf_2d(a)``, the planar walk with step ``i`` moving ``a[i]`` along one of the
four axis directions, is the product of two such laws in the rotated
coordinates ``x+y`` and ``x-y``; ``sup_pmf_running`` reads one central slot
per k.  ``hit_probability_2d`` counts first visits by renewal over the same
rotation, on 1-D counts only: steps of smallest period p need p running
return rows, not one per start, so unit steps cost two running products and
O(horizon**2) products of counts.

Derived quantities used by the verification module (mod-m probabilities,
sliding-interval suprema, maximal point masses) are computed from the same
exact representations.  Step lists are checked by the package's one step
validator, in :mod:`radwalk.sequences`.  Against :data:`SUPPORT_BUDGET`, before
any shift, the engine charges a 1-D law's support times the 64-bit limbs of one
packed slot, each planar query charges its own squared support, and the residue
route its m slots.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ParameterError, PreconditionError, SupportBudgetError, _int_param
from .rng import json_encode
from .sequences import _fraction_param, _positive_steps, int_if_whole, scaled_ints

#: Cap on the exact support points a single computation may allocate; a 1-D
#: law's points count once per 64-bit limb of a packed slot (one below 64 steps).
SUPPORT_BUDGET = 10_000_000

Number = int | Fraction


@dataclass(frozen=True)
class ExactPmf1D:
    """Exact law of a signed sum, as sorted support values and integer weights.

    ``total`` equals ``2**len(steps)`` and ``sum(weights) == total`` exactly.
    The law is symmetric about 0 and supported in ``[-sum(steps), sum(steps)]``.
    """

    values: tuple[Number, ...]
    weights: tuple[int, ...]
    total: int
    steps: tuple[Number, ...]

    def mass(self, value) -> Fraction:
        return self.as_dict().get(Fraction(value), Fraction(0))

    @property
    def masses(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self.total) for w in self.weights)

    def as_dict(self) -> dict[Number, Fraction]:
        return {v: Fraction(w, self.total) for v, w in zip(self.values, self.weights)}


@dataclass(frozen=True)
class ExactPmf2D:
    """Exact law of the planar walk after ``len(steps)`` steps.

    Invariant under the dihedral symmetries of the axis-direction set:
    ``(x, y) -> (-x, y), (x, -y), (y, x)``.
    """

    points: tuple[tuple[Number, Number], ...]
    weights: tuple[int, ...]
    total: int
    steps: tuple[Number, ...]

    def mass(self, point) -> Fraction:
        return self.as_dict().get((Fraction(point[0]), Fraction(point[1])), Fraction(0))

    def as_dict(self) -> dict[tuple[Number, Number], Fraction]:
        return {p: Fraction(w, self.total) for p, w in zip(self.points, self.weights)}


def _count(n: int) -> str:
    """``n`` in full up to 18 digits, past that as the nearest power of two."""
    return str(n) if n < 10**18 else f"about 2**{round(math.log2(n))}"


def _check_support(points: int, limbs: int = 1) -> None:
    """Refuse ``points`` packed slots of ``limbs`` 64-bit limbs each beyond
    :data:`SUPPORT_BUDGET`.  A planar walk is charged its squared support and
    one limb, before its 1-D factors: that outnumbers their limbs
    (``2 * sum + 1 > depth // 64 + 1``)."""
    required = points * limbs
    if required > SUPPORT_BUDGET:
        per_slot = f" x {limbs} 64-bit limbs = {_count(required)}" if limbs > 1 else ""
        raise SupportBudgetError(
            f"exact support needs {_count(points)} points{per_slot}, "
            f"exceeding the budget of {SUPPORT_BUDGET}",
            required=required,
            budget=SUPPORT_BUDGET,
        )


def _running_laws(ints: Sequence[int], depth: int):
    """Yield the signed-sum law of ``ints[:n]`` as ``(packed, span)``, n = 1, 2, ...

    ``prod(1 + z**s)`` at ``z = 2**bits``, ``bits`` the multiple of 64 above
    ``depth``: slot ``j`` holds the weight of the value ``2j - span``, weights
    up to ``2**depth`` never carry.  The support of the whole list is checked
    against :data:`SUPPORT_BUDGET` first, by :func:`_check_support`.
    """
    _check_support(2 * sum(ints) + 1, depth // 64 + 1)
    bits = 64 * (depth // 64 + 1)
    packed, span = 1, 0
    for s in ints:
        packed += packed << (bits * s)
        span += s
        yield packed, span


def _weight_at(packed: int, span: int, t: int, depth: int) -> int:
    """Weight of the value ``t`` in a law of :func:`_running_laws` at ``depth``."""
    j = t + span  # the value t sits in slot j/2
    if j & 1 or not 0 <= j <= 2 * span:
        return 0
    bits = 64 * (depth // 64 + 1)
    return packed >> (bits * (j >> 1)) & ((1 << bits) - 1)


def _nonzero_slots(packed: int, slots: int, depth: int) -> tuple[np.ndarray, list[int]]:
    """Indices and values of the nonzero slots among the first ``slots`` slots
    of a packing at ``depth``, each decoded as whole 64-bit limbs."""
    limbs = depth // 64 + 1
    raw = packed.to_bytes(8 * limbs * slots, "little")
    words = np.frombuffer(raw, dtype="<u8").reshape(slots, limbs)
    if limbs == 1:  # tolist() gives Python ints, with no object array on the way
        j = np.flatnonzero(words)
        return j, words[j, 0].tolist()
    j = np.flatnonzero(words.any(axis=1))
    values = words[j, -1].astype(object)
    for i in range(limbs - 2, -1, -1):
        values = (values << 64) | words[j, i].astype(object)
    return j, values.tolist()


def _signed_sum_weights(ints: Sequence[int]) -> tuple[list[int], list[int]]:
    """Support values and weights of the signed sum of the integer steps.

    The product does not depend on the steps' order; ascending order keeps
    every partial product, and so every shift-add, shortest."""
    for packed, span in _running_laws(sorted(ints), len(ints)):  # ints is nonempty
        pass
    j, weights = _nonzero_slots(packed, span + 1, len(ints))
    return (2 * j - span).tolist(), weights


def pmf_1d(d: Sequence) -> ExactPmf1D:
    """Exact law of the signed sum of the positive steps ``d``.

    Computed as one packed big-integer convolution over the integer lattice
    of the scaled steps; the result carries exact rational masses with
    denominator ``2**len(d)``.
    """
    steps = _positive_steps(d, "d")
    ints, scale = scaled_ints(steps)
    values, weights = _signed_sum_weights(ints)
    return ExactPmf1D(
        values=tuple(values if scale == 1 else (int_if_whole(Fraction(v, scale)) for v in values)),
        weights=tuple(weights),
        total=1 << len(ints),
        steps=tuple(steps),
    )


def pmf_2d(a: Sequence) -> ExactPmf2D:
    """Exact law of the planar walk with step sizes ``a``.

    In the rotated coordinates ``u = x+y``, ``v = x-y`` every step moves by
    ``±a[i]`` in both, with independent uniform signs, so ``u`` and ``v`` are
    independent copies of the signed sum and ``w(x, y) = w1(x+y) * w1(x-y)``.
    The products of 1-D weights are formed in int64 up to 31 steps (each
    weight is below ``2**31``), as Python ints past that.
    """
    steps = _positive_steps(a, "a")
    ints, scale = scaled_ints(steps)
    _check_support((2 * sum(ints) + 1) ** 2)  # the planar support
    values, weights = _signed_sum_weights(ints)
    u = np.array(values)
    # u and v share the parity of span, so every pair is a lattice point
    xs = ((u[:, None] + u[None, :]) // 2).ravel()
    ys = ((u[:, None] - u[None, :]) // 2).ravel()
    order = np.lexsort((ys, xs))
    # a 1-D weight is below 2**n, so a product of two fits int64 up to n = 31
    w = np.array(weights, dtype=np.int64 if 2 * len(ints) <= 62 else object)
    xs, ys = xs[order].tolist(), ys[order].tolist()
    if scale != 1:
        xs = [int_if_whole(Fraction(x, scale)) for x in xs]
        ys = [int_if_whole(Fraction(y, scale)) for y in ys]
    # tuple(zip(...)) grows by resizing, and every resize hands the half-built
    # tuple back to the youngest GC generation: build the list, copy it once
    points = list(zip(xs, ys))
    return ExactPmf2D(
        points=tuple(points),
        weights=tuple(np.multiply.outer(w, w).ravel()[order].tolist()),
        total=1 << (2 * len(ints)),
        steps=tuple(steps),
    )


def _int_steps_only(d: Sequence) -> list[int]:
    d = list(d)
    steps = _positive_steps(d, "d")
    for i, f in enumerate(steps):
        if f.denominator != 1:
            raise ParameterError(f"d[{i}] must be an integer for modular arithmetic, got {d[i]}")
    return steps


def mod_probability(d: Sequence, m: int, residue: int, *, method: str = "auto") -> Fraction:
    """Exact probability that the signed sum of ``d`` is ``residue`` mod ``m``.

    ``method`` selects one of two exact routes that are cross-checked in the
    test suite: ``"residue"`` convolves over the m residue classes (memory
    proportional to m), ``"full"`` folds the full support law (memory
    proportional to ``sum(d)``).  ``"auto"`` picks the residue route whenever
    the full support would be large.
    """
    ints = _int_steps_only(d)
    m, residue = _int_param(m, "modulus m", 1), _int_param(residue, "residue", 0)
    if residue >= m:
        raise ParameterError(f"residue must lie in [0, m), got {residue} with m = {m}")
    if method not in ("auto", "residue", "full"):
        raise ParameterError("method must be one of auto|residue|full")
    if method == "auto":
        method = "full" if 2 * sum(ints) + 1 <= 4096 else "residue"
    if method == "full":
        law = pmf_1d(ints)
        return Fraction(sum(w for v, w in zip(law.values, law.weights) if v % m == residue), law.total)
    return mod_probability_profile(ints, m)[residue]


def mod_probability_profile(d: Sequence, m: int) -> list[Fraction]:
    """Exact probabilities for every residue class mod ``m``, residue route.

    The law mod m is ``prod(z**s + z**-s) = z**-sum(d) * prod(1 + z**2s)``
    modulo ``z**m - 1``, packed as in :func:`_running_laws` with slot r
    holding residue r: each step is one shift-add, with the slots past m
    folded back onto the first ones, and a last rotation by ``-sum(d)``.
    """
    ints = _int_steps_only(d)
    m = _int_param(m, "modulus m", 1)
    _check_support(m, len(ints) // 64 + 1)
    bits = 64 * (len(ints) // 64 + 1)
    mask = (1 << (bits * m)) - 1

    def fold(packed: int) -> int:  # slot m + i onto slot i; the slots never carry
        return (packed & mask) + (packed >> (bits * m))

    packed = 1
    for s in ints:
        packed = fold(packed + (packed << (bits * (2 * s % m))))
    packed = fold(packed << (bits * (-sum(ints) % m)))
    weights = [0] * m
    for r, w in zip(*_nonzero_slots(packed, m, len(ints))):
        weights[r] = w
    total = 1 << len(ints)
    return [Fraction(w, total) for w in weights]


def sup_pmf(d: Sequence) -> Fraction:
    """Largest point mass of the signed-sum law of ``d``."""
    law = pmf_1d(d)
    return Fraction(max(law.weights), law.total)


def sup_pmf_running(k_max: int) -> list[Fraction]:
    """``sup_pmf(range(1, k + 1))`` for k = 1..k_max, from one running product:
    the law of the steps 1..k is symmetric and unimodal (Stanley, SIAM J.
    Algebraic Discrete Methods 1, 1980), so its largest mass is at 0 or 1."""
    k_max = _int_param(k_max, "k_max", 0)
    laws = enumerate(_running_laws(range(1, k_max + 1), k_max), 1)
    return [Fraction(_weight_at(packed, span, span & 1, k_max), 1 << k) for k, (packed, span) in laws]


def max_interval_probability(d: Sequence, half_width) -> tuple[Fraction, Number]:
    """Exact supremum over x of the mass in the half-open window (x-D, x+D].

    Requires every step to be at least ``half_width`` (the anti-concentration
    bound this feeds only holds in that regime).  Returns the supremum and one
    maximizing center x.  The supremum over real x is attained with the right
    window edge on a support point, so a sliding window over the sorted
    support is exhaustive.
    """
    D = _fraction_param(half_width, "half-width D")
    if D <= 0:
        raise ParameterError("half-width D must be > 0")
    steps = _positive_steps(d, "d")
    ints, scale = scaled_ints(steps + [D])
    Ds = ints.pop()
    for i, s in enumerate(ints):  # compared on the common lattice, as ints
        if s < Ds:
            raise PreconditionError(f"step d[{i}]={steps[i]} is smaller than the half-width D={D}")
    vals, weights = _signed_sum_weights(ints)
    best = 0
    best_right = vals[0]
    left = 0
    window = 0
    for j, vj in enumerate(vals):
        window += weights[j]
        # shrink until window covers (vj - 2D, vj]
        while vals[left] <= vj - 2 * Ds:
            window -= weights[left]
            left += 1
        if window > best:
            best = window
            best_right = vj
    sup = Fraction(best, 1 << len(ints))
    center = int_if_whole(Fraction(best_right - Ds, scale))
    return sup, center


def hit_probability_2d(a: Sequence, target: tuple[int, int], horizon: int) -> Fraction:
    """Exact probability that the walk visits ``target`` at some step 1..horizon.

    Renewal over the rotated coordinates, with no 2-D state: let ``W_{m,n}(t)``
    count the sign choices of steps m+1..n that sum to t.  The walk is at the
    target after step n in ``W_{0,n}(x+y) * W_{0,n}(x-y)`` of the ``4**n``
    direction choices, and back where it was after step m in
    ``W_{m,n}(0)**2`` of the ``4**(n-m)``, so the first visits at step n number
    ``F_n = W_{0,n}(x+y) W_{0,n}(x-y) - sum_{0<m<n} F_m W_{m,n}(0)**2``.  For
    steps of smallest period p, ``W_{m,n}(0)`` depends only on ``(m mod p,
    n - m)`` (Spitzer, *Principles of Random Walk*, section 1), so one running
    return row per phase serves every start of that phase (aperiodic steps:
    p = horizon).  The position at step 0 does not count as a visit.
    """
    horizon = _int_param(horizon, "horizon", 0)
    steps_list = list(a)
    ints, scale = scaled_ints(_positive_steps(steps_list, "a")) if steps_list else ([], 1)
    _check_support((2 * sum(ints[:horizon]) + 1) ** 2)  # the steps walked
    if horizon > len(ints):
        raise ParameterError(f"horizon {horizon} exceeds the {len(ints)} provided step sizes")
    tx, ty = Fraction(target[0]) * scale, Fraction(target[1]) * scale
    if tx.denominator != 1 or ty.denominator != 1:
        return Fraction(0)
    tu, tv = int(tx + ty), int(tx - ty)
    ints = ints[:horizon]
    period = next((p for p in range(1, horizon) if ints[p] == ints[0] and ints[p:] == ints[:-p]), horizon)
    # a count is at most 2**horizon; first[n] collects F_n, final once every row m < n is in
    first = [0] * (horizon + 1)
    for n, (packed, span) in enumerate(_running_laws(ints, horizon), 1):
        first[n] = _weight_at(packed, span, tu, horizon) * _weight_at(packed, span, tv, horizon)
    rows: dict[int, list[int]] = {}  # by phase, while a later start of the phase needs it
    for m in range(1, horizon):
        last = m + period >= horizon  # no later start has this phase
        row = rows.pop(m % period, None) if last else rows.get(m % period)
        if not (f := first[m]):
            continue
        if row is None:
            laws = _running_laws(ints[m:], horizon)
            row = [_weight_at(packed, span, 0, horizon) ** 2 for packed, span in laws]
            if not last:
                rows[m % period] = row
        for n, w in zip(range(m + 1, horizon + 1), row):
            first[n] -= f * w
    num = 0
    for f in first[1:]:
        num = 4 * num + f
    return Fraction(num, 4**horizon)


@dataclass(frozen=True)
class HoeffdingTail:
    """Sub-Gaussian tail bound next to the exact tail it dominates."""

    threshold: Fraction
    sum_squares: Fraction
    bound_raw: float
    bound: float
    exact_tail: Fraction | None

    to_json_dict = json_encode


def hoeffding_tail(d: Sequence, t) -> HoeffdingTail:
    """Evaluate ``2*exp(-t^2 / (2*sum(d_i^2)))`` against the exact tail.

    The raw bound can exceed 1 for small ``t``; the clamped value is also
    reported.  When the support budget permits, the exact ``P(|T| >= t)`` is
    computed from the signed-sum law for side-by-side comparison: on the
    steps scaled to ints, ``|T| >= t`` is ``|T * scale| >= ceil(t * scale)``,
    and the law is symmetric, so the tail is twice the weight from that
    integer threshold up.  Past the budget the exact tail is None.
    """
    tf = _fraction_param(t, "threshold t")
    if tf <= 0:
        raise ParameterError("threshold t must be > 0")
    steps = _positive_steps(d, "d")
    ssq = sum(Fraction(f) * f for f in steps)
    raw = 2.0 * math.exp(-float(tf * tf) / float(2 * ssq))
    ints, scale = scaled_ints(steps)
    try:
        values, weights = _signed_sum_weights(ints)
    except SupportBudgetError:
        exact = None
    else:
        above = bisect_left(values, math.ceil(tf * scale))  # a threshold >= 1
        exact = Fraction(2 * sum(weights[above:]), 1 << len(ints))
    return HoeffdingTail(
        threshold=tf,
        sum_squares=ssq,
        bound_raw=raw,
        bound=min(raw, 1.0),
        exact_tail=exact,
    )

