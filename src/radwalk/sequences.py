"""Deterministic step-size sequences and their structural analyses.

A ``StepSequence`` is a pure rule ``n -> a_n`` (n >= 1, a_n > 0) from one of a
few named families, plus the machinery this package needs around such rules:
run-length decomposition of non-decreasing integer prefixes, extraction of
doubling subsequences, approximate-monotonicity reports, and the doubly
exponential block sequence whose sub-block lengths are powers ``2**(2**e)``.

Integer families always return exact ints; the real-power family returns
exact dyadic rationals at a declared precision.  Evaluation is pure: the same
index always yields the same value.  Families whose values come in runs
(explicit lists, the block sequence, construction plans, and floor-power with
``gamma < 1``, where the value v first appears at ``ceil(v**(1/gamma))``) fill
prefixes run by run.

The three scans (run-length, doubling, (r, s)-monotonicity) are array code on
one exact array of the prefix scaled to integers: int64 when every product a
scan forms fits, an object array of the same Python ints otherwise, so no
comparison is ever rounded.  That conversion, or a family's closed form, also
gives :meth:`StepSequence.lattice`, the integer steps of every walk, and
:func:`_positive_steps` checks every step list the package is given.  Every
count (an index, a horizon, a prefix length, a bit budget) is checked once by
:func:`radwalk.errors._int_param` where it enters, and not again per index.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DecompositionError,
    OverflowRefusal,
    ParameterError,
    PreconditionError,
    _int_param,
)
from .rng import json_encode

Number = int | Fraction

#: The parameters each family reads; :func:`make_sequence` refuses any other.
FAMILY_PARAMS = {
    "constant": ("value",),
    "floor-power": ("gamma",),
    "real-power": ("alpha", "precision_bits"),
    "explicit-block": ("scale", "growth", "exponent_bit_budget"),
    "from-construction-plan": ("plan",),
    "explicit-list": ("values",),
}
FAMILIES = tuple(FAMILY_PARAMS)

#: Largest step sum of an int64 :meth:`StepSequence.lattice`, so that walk
#: positions and their rotated coordinates stay in range.
INT64_STEP_SUM = 1 << 62

#: Exponent-bit budget for materializing block-sequence lengths 2**(2**e):
#: 2**e may not exceed this many bits.  The default covers blocks k <= 4.
DEFAULT_EXPONENT_BIT_BUDGET = 1 << 21


def integer_nth_root(x: int, q: int) -> int:
    """Largest r with r**q <= x, for x >= 0, q >= 1."""
    if x < 0 or q < 1:
        raise ParameterError("integer_nth_root requires x >= 0 and q >= 1")
    if q == 1 or x in (0, 1):
        return x
    if q == 2:
        return math.isqrt(x)
    r = 1 << -(-x.bit_length() // q)  # upper-ish starting point
    while True:
        nr = ((q - 1) * r + x // r ** (q - 1)) // q
        if nr >= r:
            break
        r = nr
    while r**q > x:
        r -= 1
    return r


def int_if_whole(value: Fraction) -> Number:
    """A rational as an int when it is whole."""
    return value.numerator if value.denominator == 1 else value


def scaled_ints(values: Sequence[Number]) -> tuple[list[int], int]:
    """``(ints, scale)``: the rationals ``values`` times ``scale``, the lcm of
    their denominators, as ints."""
    scale = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _exact_array(values: Sequence[Number], factor: int = 1) -> tuple[np.ndarray, int]:
    """``(A, scale)``: :func:`scaled_ints` of ``values`` as an array.

    ``A`` is int64 when ``factor * A[i]`` fits in int64 for every i, ``factor``
    being the largest multiplier the caller's scan applies, and an object
    array of the same Python ints otherwise.
    """
    A = np.array(values)
    if A.dtype == np.int64:  # whole values that fit; 2**63 and up come out float64 or object
        scale = 1
    else:
        ints, scale = scaled_ints(values)
        A = np.array(ints, dtype=object)
    fits = factor * max(int(A.max()), -int(A.min())) < 1 << 63
    return A.astype(np.int64 if fits else object, copy=False), scale


def _fraction_param(value, name: str) -> Fraction:
    """``value`` as a Fraction.  Text whose numerator or denominator would exceed
    the interpreter's digit limit (:func:`sys.get_int_max_str_digits`, if it has
    one) fails by name before it is built: ``1e9999999`` takes seconds to build."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 where there is none
    if isinstance(value, str) and limit and ("e" in value.lower() or len(value) > limit):
        mantissa, _, exponent = value.lower().partition("e")
        digits = max(len(re.sub(r"\D", "", part)) for part in mantissa.split("/"))
        with contextlib.suppress(ValueError):  # not an exponent: Fraction refuses it below
            digits += abs(int(exponent or 0))
        if digits > limit:
            shown = value if len(value) <= 40 else value[:20] + "..."
            raise ParameterError(f"{name} must have at most {limit} digits, got {shown!r}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ParameterError(f"{name} must be a rational number, got {value!r}") from exc


def _positive_steps(values: Iterable, what: str) -> list[Number]:
    """The step sizes ``values`` as exact ints and Fractions; the first one that
    is not a rational > 0, or an empty list, fails by name as ``what[i]``."""
    if type(values) in (list, tuple) and set(map(type, values)) == {int} and min(values) > 0:
        return list(values)  # already exact and positive
    out: list[Number] = []
    for i, v in enumerate(values):
        f = _fraction_param(v, f"{what}[{i}]")
        if f <= 0:
            raise ParameterError(f"{what}[{i}] must be > 0, got {v}")
        out.append(int_if_whole(f))
    if not out:
        raise ParameterError(f"{what} must be nonempty")
    return out


class StepSequence:
    """A pure evaluator ``n -> a_n`` with a named family and exact parameters."""

    def __init__(
        self,
        kind: str,
        params: dict,
        evaluate: Callable[[int], Number],
        length: int | None = None,
        runs: Callable[[], Iterator[tuple[Number, int]]] | None = None,
        values: tuple[Number, ...] | None = None,
        lattice: Callable[[int], tuple[np.ndarray, int] | None] | None = None,
    ):
        self.kind = kind
        self.params = params
        self._evaluate = evaluate
        self.length = length  # None means unbounded
        self._runs = runs
        self._values = values  # every term, for a finite list
        self._lattice = lattice  # the closed form of lattice(n), or None where it does not apply

    def value(self, n: int) -> Number:
        n = _int_param(n, "n", 1)
        if self.length is not None and n > self.length:
            raise ParameterError(
                f"index {n} is beyond this sequence's length {self.length}"
            )
        return self._evaluate(n)

    __call__ = value

    def prefix(self, n: int) -> list[Number]:
        """``[a_1, ..., a_n]`` for an ``n >= 0``.  All n slots of the list
        are allocated before any term is computed, so an ``n`` too large for
        memory fails at once, by name."""
        n = _int_param(n, "n", 0)
        if self._values is not None and n <= len(self._values):
            return list(self._values[:n])
        if self.length is not None and n > self.length:
            self.value(self.length + 1)  # raises, naming the first index past the end
        try:
            out: list = list(itertools.repeat(None, n))
        except (MemoryError, OverflowError):
            raise ParameterError(f"prefix length {n}: the list does not fit in memory") from None
        if self._runs is None:
            for i in range(n):
                out[i] = self._evaluate(i + 1)
            return out
        # one pass over the runs, each cut at what is still needed: a block
        # run reaches 2**(2**e) terms
        runs, done = self._runs(), 0
        while done < n:
            value, count = next(runs)
            count = min(count, n - done)
            out[done : done + count] = [value] * count
            done += count
        return out

    def lattice(self, n: int) -> tuple[np.ndarray, int]:
        """``(A, scale)``: the steps ``a_1..a_n`` times ``scale`` as ints, int64
        when their sum is at most :data:`INT64_STEP_SUM`, else Python ints in an
        object array.  ``scale`` is the lcm of their denominators (for
        real-power, ``2**precision_bits``): 1 exactly when every a_i is an int."""
        n = _int_param(n, "horizon", 0)
        if self.length is not None and n > self.length:
            raise ParameterError(f"horizon {n} exceeds the sequence length {self.length}")
        if n == 0:
            return np.zeros(0, dtype=np.int64), 1
        try:
            closed = self._lattice(n) if self._lattice else None
            if closed is not None:
                return closed
            A, scale = _exact_array(self.prefix(n))
            # n times the largest step bounds the sum; past it, the exact sum decides
            if A.dtype == np.int64 and n * int(A.max()) > INT64_STEP_SUM:
                A = A if sum(A.tolist()) <= INT64_STEP_SUM else A.astype(object)
            return A, scale
        except MemoryError:
            raise ParameterError(f"horizon {n}: the step array does not fit in memory") from None

    def iter_runs(self) -> Iterator[tuple[Number, int]]:
        """Yield (value, run length) pairs in order, where available."""
        if self._runs is None:
            raise ParameterError(f"family {self.kind!r} has no run iterator")
        return self._runs()

    def to_config(self) -> dict:
        """Serializable description: family name plus exact parameters."""
        return {"family": self.kind, "params": json_encode(self.params)}

    def __repr__(self) -> str:
        return f"StepSequence(kind={self.kind!r}, params={self.params!r})"


def _decode_number(v, name: str = "value") -> Number:
    if isinstance(v, str):
        return int_if_whole(_fraction_param(v, name))
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ParameterError(f"{name} must be an int or a 'p/q' string, got {v!r}")


def make_sequence(family: str, **params) -> StepSequence:
    """Build a step sequence from a family name and exact parameters.

    Families and parameters:

    * ``constant``: value (> 0)
    * ``floor-power``: gamma (rational > 0), a_n = floor(n**gamma), exact ints
    * ``real-power``: alpha (rational in (0, 1]), precision_bits (default 64),
      a_n = the dyadic floor of n**alpha with denominator 2**precision_bits
    * ``explicit-list``: values (nonempty, all > 0)
    * ``explicit-block``: scale ("exact" or "scaled"), growth (only
      ``"default-pow2"``, the name its config gives scaled mode's one growth),
      exponent_bit_budget, see :func:`explicit_block_sequence`
    * ``from-construction-plan``: plan (a construction plan or its dict form)

    Any other parameter is refused by name.
    """
    if family not in FAMILIES:
        raise ParameterError(f"unknown sequence family {family!r}; expected one of {FAMILIES}")
    unknown = sorted(set(params) - set(FAMILY_PARAMS[family]))
    if unknown:
        raise ParameterError(
            f"unknown {family} parameter {unknown[0]!r}; expected one of {FAMILY_PARAMS[family]}"
        )
    if family == "constant":
        c = _fraction_param(params.get("value", 1), "value")
        if c <= 0:
            raise ParameterError("constant value must be > 0")
        cv, p = int_if_whole(c), c.numerator

        def constant_lattice(n: int) -> tuple[np.ndarray, int]:
            return np.full(n, p, dtype=np.int64 if p * n <= INT64_STEP_SUM else object), c.denominator

        return StepSequence("constant", {"value": cv}, lambda n: cv, lattice=constant_lattice)

    if family == "floor-power":
        gamma = _fraction_param(params.get("gamma"), "gamma")
        if gamma <= 0:
            raise ParameterError("gamma must be > 0")
        p, q = gamma.numerator, gamma.denominator

        def floor_power(n: int) -> int:
            return integer_nth_root(n**p, q)

        def runs() -> Iterator[tuple[int, int]]:
            # below gamma = 1 the values climb by at most 1, and v first
            # appears at the least n with n**p >= v**q
            first = 1
            for v in itertools.count(1):
                nxt = integer_nth_root((v + 1) ** q - 1, p) + 1
                yield v, nxt - first
                first = nxt

        def power_lattice(n: int) -> tuple[np.ndarray, int] | None:
            # n * n**p bounds the sum; past it, the prefix conversion decides
            if q == 1 and n ** (p + 1) <= INT64_STEP_SUM:
                return np.arange(1, n + 1, dtype=np.int64) ** p, 1
            return None

        return StepSequence(
            "floor-power", {"gamma": int_if_whole(gamma)}, floor_power,
            runs=runs if p < q else None, lattice=power_lattice,
        )

    if family == "real-power":
        alpha = _fraction_param(params.get("alpha"), "alpha")
        if not 0 < alpha <= 1:
            raise ParameterError("alpha must lie in (0, 1]")
        bits = _int_param(params.get("precision_bits", 64), "precision_bits", 1)
        p, q = alpha.numerator, alpha.denominator

        def scaled_root(n: int) -> int:
            # floor(n**(p/q) * 2**bits) = floor((n**p << bits*q) ** (1/q))
            return integer_nth_root(n**p << (bits * q), q)

        def root_lattice(n: int) -> tuple[np.ndarray, int]:
            roots = [scaled_root(i) for i in range(1, n + 1)]
            dtype = np.int64 if sum(roots) <= INT64_STEP_SUM else object
            return np.array(roots, dtype=dtype), 1 << bits

        return StepSequence(
            "real-power", {"alpha": int_if_whole(alpha), "precision_bits": bits},
            lambda n: Fraction(scaled_root(n), 1 << bits), lattice=root_lattice,
        )

    if family == "explicit-list":
        raw = params.get("values")
        if not raw:
            raise ParameterError("explicit-list requires a nonempty values list")
        tup = tuple(_positive_steps(raw, "values"))
        return StepSequence(
            "explicit-list",
            {"values": list(tup)},
            lambda n: tup[n - 1],
            length=len(tup),
            runs=lambda: ((v, sum(1 for _ in run)) for v, run in itertools.groupby(tup)),
            values=tup,
        )

    if family == "explicit-block":
        growth = params.get("growth")
        if growth not in (None, "default-pow2"):
            raise ParameterError(f"growth must be 'default-pow2', got {growth!r}")
        seq = explicit_block_sequence(
            params.get("scale", "exact"),
            exponent_bit_budget=params.get("exponent_bit_budget", DEFAULT_EXPONENT_BIT_BUDGET),
        )
        if growth is not None and seq.params["scale"] == "exact":
            raise ParameterError("growth is only meaningful in scaled mode")
        return seq

    # from-construction-plan; imported lazily: the construction module builds on this one
    from .construction import ConstructionPlan

    plan = params.get("plan")
    if isinstance(plan, dict):
        plan = ConstructionPlan.from_json_dict(plan)
    if not isinstance(plan, ConstructionPlan):
        raise ParameterError("plan must be a ConstructionPlan or its dict form")
    return plan.sequence()


def sequence_from_config(config: dict) -> StepSequence:
    """Inverse of ``StepSequence.to_config``."""
    if not isinstance(config, dict):
        raise ParameterError(f"a sequence config must be an object, got {config!r}")
    if set(config) - {"family", "params"}:
        unknown = sorted(set(config) - {"family", "params"})
        raise ParameterError(f"unknown sequence-config keys: {unknown}")
    family = config.get("family")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ParameterError(f"params must be an object of named parameters, got {params!r}")
    params = dict(params)
    for fam, key in (("constant", "value"), ("floor-power", "gamma"), ("real-power", "alpha")):
        if family == fam and key in params:
            params[key] = _decode_number(params[key], key)
    if family == "explicit-list":
        values = params.get("values", [])
        if not isinstance(values, list):
            raise ParameterError(f"values must be a list, got {values!r}")
        params["values"] = [_decode_number(v, f"values[{i}]") for i, v in enumerate(values)]
    return make_sequence(family, **params)


def _read_values(path, parse: Callable[[str], Number]) -> list:
    """``parse`` of each line of the text file ``path`` that is neither blank
    nor a ``#`` comment.  A file that is not UTF-8 fails naming it, and a line
    that ``parse`` refuses fails naming the file and the line."""
    values = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for i, raw in enumerate(fh, 1):
                if (ln := raw.strip()) and not ln.startswith("#"):
                    values.append(parse(ln))
    except UnicodeDecodeError:
        raise ParameterError(f"{path}: the file is not UTF-8 text") from None
    except ParameterError as exc:  # from parse, at line i
        raise ParameterError(f"{path}, line {i}: {exc}") from None
    return values


def _step_value(text: str) -> Number:
    v = _decode_number(text)
    if v <= 0:
        raise ParameterError(f"value must be > 0, got {v}")
    return v


def load_explicit_list(path) -> StepSequence:
    """Read a one-value-per-line text file into an explicit-list sequence."""
    return make_sequence("explicit-list", values=_read_values(path, _step_value))


# ---------------------------------------------------------------------------
# Run-length decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunLengthDecomposition:
    """Non-decreasing integer prefix as strictly increasing values with counts.

    ``starts[j]`` is the 1-based index of the first occurrence of
    ``values[j]``; ``starts[j+1] - starts[j] == multiplicities[j]``.
    """

    values: tuple[int, ...]
    multiplicities: tuple[int, ...]
    starts: tuple[int, ...]

    def expand(self) -> list[int]:
        out: list[int] = []
        for v, m in zip(self.values, self.multiplicities):
            out.extend([v] * m)
        return out


def run_length_decompose(seq: StepSequence, n: int) -> RunLengthDecomposition:
    """Decompose the first ``n`` values, which must be non-decreasing integers."""
    n = _int_param(n, "n", 1)
    vals = seq.prefix(n if seq.length is None else min(n, seq.length))
    A, scale = _exact_array(vals)
    # the first fault in index order: a value that is not whole, or one below
    # the whole value before it; then the end of a finite sequence
    whole = len(vals) if scale == 1 else int(np.flatnonzero(A % scale)[0])
    head = A[:whole]
    descents = np.flatnonzero(head[1:] < head[:-1])
    if descents.size:
        i = int(descents[0]) + 2
        raise DecompositionError(
            f"prefix is not non-decreasing at index {i}: {vals[i - 1]} < {vals[i - 2]}", index=i
        )
    if whole < len(vals):
        raise DecompositionError(
            f"value at index {whole + 1} is not an integer: {vals[whole]}", index=whole + 1
        )
    if len(vals) < n:
        seq.value(len(vals) + 1)  # raises
    starts = np.append(0, np.flatnonzero(A[1:] != A[:-1]) + 1)
    mult = np.diff(starts, append=n)
    return RunLengthDecomposition(
        tuple(A[starts].tolist()), tuple(mult.tolist()), tuple((starts + 1).tolist())
    )


# ---------------------------------------------------------------------------
# Doubling subsequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoublingCertificate:
    """Indices i_1 < ... < i_K ending at n with a_{i_{k+1}} >= 2 a_{i_k}.

    ``ratio`` is K / log2(a_n): an exact Fraction when a_n is a power of two,
    a float otherwise, and None when a_n == 1 (log2 a_n == 0).
    """

    indices: tuple[int, ...]
    gap_bound: Fraction
    ratio: Fraction | float | None

    @property
    def size(self) -> int:
        return len(self.indices)

    def verify(self, seq: StepSequence) -> bool:
        vals = [Fraction(seq.value(i)) for i in self.indices]
        return all(vals[k + 1] >= 2 * vals[k] for k in range(len(vals) - 1))


def _log2_ratio(k: int, a_n: Fraction) -> Fraction | float | None:
    if a_n == 1:
        return None
    if a_n.denominator == 1:
        v = a_n.numerator
        if v & (v - 1) == 0:
            return Fraction(k, v.bit_length() - 1)
    return k / math.log2(a_n)


def extract_doubling_subsequence(
    seq: StepSequence, n: int, gap_bound=None
) -> DoublingCertificate:
    """Greedy backward extraction of a doubling subsequence ending at ``n``.

    Starting from index n, repeatedly pick the largest earlier index whose
    value lies in ``(v/2 - C, v/2]`` where ``v`` is the current value and
    ``C`` bounds consecutive gaps; stop when the window is empty.  Choosing
    the largest candidate is a deterministic tie-break; any candidate gives a
    valid certificate.

    ``gap_bound`` (C) is measured from the prefix when not supplied.  If it is
    supplied, the prefix must actually satisfy ``|a_{m+1} - a_m| <= C``.
    Sequences that never double produce the trivial certificate ``(n,)``.
    """
    n = _int_param(n, "n", 1)
    vals = seq.prefix(n)
    # The scan compares s * a_j as integers, s being the lcm of the
    # denominators of the values and, once C is known, of C; 2 * A fits the
    # gaps and the doubled values.
    A, den = _exact_array(vals, 2)
    short = np.flatnonzero(A < den)
    if short.size:
        i = int(short[0])
        raise PreconditionError(f"a_{i + 1} = {vals[i]} < 1; extraction requires a_m >= 1")
    measured = Fraction(int(np.abs(np.diff(A)).max(initial=0)), den)
    if gap_bound is None:
        C = measured
    else:
        C = Fraction(gap_bound)
        if C < 0:
            raise ParameterError("gap bound C must be >= 0")
        if measured > C:
            raise PreconditionError(
                f"prefix has a consecutive gap {measured} exceeding the supplied bound {C}"
            )
    up = C.denominator // math.gcd(den, C.denominator)
    if up > 1:
        fits = A.dtype == object or 2 * up * int(A.max()) < 1 << 63
        A = (A if fits else A.astype(object)) * up
    doubled = 2 * A
    two_c = 2 * C.numerator * (den * up // C.denominator)
    # Below each pick, the largest j with a_j in (cur/2 - C, cur/2], that is
    # with 2*s*a_j in (s*cur - 2*s*C, s*cur], found in windows that double in
    # size downwards: O(n) array work over all picks.  Every 2*s*a_j is > 0.
    picked = [n]
    top = n - 1  # candidates are the 0-based positions below top
    while top > 0:
        cur = int(A[picked[-1] - 1])
        lo = max(cur - two_c, 0)
        width, hit = 64, None
        while top > 0 and hit is None:
            window = doubled[max(top - width, 0) : top]
            found = np.flatnonzero((window > lo) & (window <= cur))
            if found.size:
                hit = top - window.size + int(found[-1])
            top -= window.size
            width *= 2
        if hit is None:
            break
        picked.append(hit + 1)
        top = hit
    indices = tuple(reversed(picked))
    return DoublingCertificate(
        indices=indices,
        gap_bound=C,
        ratio=_log2_ratio(len(indices), Fraction(vals[n - 1])),
    )


# ---------------------------------------------------------------------------
# Approximate monotonicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    """Exhaustive (r, s) check over a finite window.

    A violation is a pair (n, m) with m >= r*n and a_n > s*a_m.  ``clean_from``
    is the smallest index from which no violation starts inside the window
    (1 when there are none, None when the last index still violates).
    """

    r: Fraction
    s: Fraction
    horizon: int
    violations: tuple[tuple[int, int], ...]
    ok: bool
    clean_from: int | None


def check_rs_monotone(seq: StepSequence, r, s, n_max: int) -> MonotonicityReport:
    """Check ``a_n <= s * a_m`` for all 1 <= n <= n_max and m >= r*n in range."""
    rf, sf = _fraction_param(r, "r"), _fraction_param(s, "s")
    if rf < 1 or sf < 1:
        raise ParameterError("r and s must both be >= 1")
    n_max = _int_param(n_max, "n_max", 2)
    # a_n > s * a_m compares as q * A_n > p * A_m, with s = p/q and the A the
    # values scaled to ints; p >= q bounds both products
    A, _ = _exact_array(seq.prefix(n_max), sf.numerator)
    left, right = A * sf.denominator, A * sf.numerator
    # suffix minima let most indices pass at once; only n <= n_max / r have
    # an m = ceil(r * n) in range
    sufmin = np.minimum.accumulate(right[::-1])[::-1]
    k = n_max * rf.denominator // rf.numerator
    n = np.arange(1, k + 1, dtype=np.int64 if rf.numerator * n_max < 1 << 63 else object)
    m0 = (-(-rf.numerator * n // rf.denominator)).astype(np.int64)
    violations: list[tuple[int, int]] = []
    for i in np.flatnonzero(left[:k] > sufmin[m0 - 1]).tolist():
        start = int(m0[i])
        ms = np.flatnonzero(right[start - 1 :] < left[i]) + start
        violations.extend(zip([i + 1] * ms.size, ms.tolist()))
    if not violations:
        clean_from: int | None = 1
    else:
        worst = violations[-1][0]  # the violations come in order of n
        clean_from = worst + 1 if worst < n_max else None
    return MonotonicityReport(
        r=rf,
        s=sf,
        horizon=n_max,
        violations=tuple(violations),
        ok=not violations,
        clean_from=clean_from,
    )


# ---------------------------------------------------------------------------
# The doubly exponential block sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubBlockLength:
    """Length of sub-block (k, i), exact as the pair base**exponent = 2**(2**e).

    ``value`` is the materialized integer when the length fits the configured
    width, else None; ``materialize`` raises instead of silently widening.
    """

    k: int
    i: int
    e: int
    base: int
    exponent: int
    materializable: bool
    value: int | None

    def materialize(self) -> int:
        if self.value is None:
            raise OverflowRefusal(
                f"sub-block ({self.k},{self.i}) has length 2**{self.exponent}, "
                "beyond the bit budget",
                exponent=self.exponent,
            )
        return self.value


def sub_block_length(k: int, i: int, *, max_bits: int = 64) -> SubBlockLength:
    """Exact length of sub-block (k, i): 2**(2**(k*k + i - 1))."""
    k, i, max_bits = _int_param(k, "k", 1), _int_param(i, "i", 1), _int_param(max_bits, "max_bits")
    if i > k:
        raise ParameterError(f"i must be <= k = {k}, got {i}")
    e = k * k + i - 1
    exponent = 1 << e
    materializable = exponent <= max_bits
    return SubBlockLength(
        k=k,
        i=i,
        e=e,
        base=2,
        exponent=exponent,
        materializable=materializable,
        value=(1 << exponent) if materializable else None,
    )


def default_scaled_growth(k: int, i: int) -> int:
    """Growth surrogate 2**(k*k + i - 1): the exact lengths' exponents' sizes."""
    return 1 << (k * k + i - 1)


def explicit_block_sequence(
    scale: str = "exact", *, exponent_bit_budget: int = DEFAULT_EXPONENT_BIT_BUDGET
) -> StepSequence:
    """The block sequence: block k holds k sub-blocks, sub-block i being
    ``L(k, i)`` copies of k followed (for i < k) by ``3*k*k`` copies of k-1.

    In exact mode ``L(k, i) = 2**(2**(k*k + i - 1))`` is :func:`sub_block_length`
    with ``max_bits=exponent_bit_budget``: a query that needs a longer sub-block
    raises its :class:`OverflowRefusal`, and the config keeps a budget other than
    the default.  In scaled mode :func:`default_scaled_growth` replaces L.
    """
    if scale not in ("exact", "scaled"):
        raise ParameterError("scale must be 'exact' or 'scaled'")
    budget = _int_param(exponent_bit_budget, "exponent_bit_budget", 0)
    if scale == "scaled":
        length_of, params = default_scaled_growth, {"scale": "scaled", "growth": "default-pow2"}
    else:
        length_of = lambda k, i: sub_block_length(k, i, max_bits=budget).materialize()  # noqa: E731
        params = {"scale": "exact"}
        if budget != DEFAULT_EXPONENT_BIT_BUDGET:  # so that the config rebuilds it
            params["exponent_bit_budget"] = budget

    def runs() -> Iterator[tuple[int, int]]:
        for k in itertools.count(1):
            for i in range(1, k + 1):
                yield k, length_of(k, i)
                if i < k:
                    yield k - 1, 3 * k * k

    def evaluate(n: int) -> int:
        ends = itertools.accumulate(runs(), lambda last, run: (run[0], last[1] + run[1]))
        return next(value for value, end in ends if n <= end)

    return StepSequence("explicit-block", params, evaluate, runs=runs)
