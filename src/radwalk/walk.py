"""Planar walk simulation with exact positions and reproducible Monte Carlo.

A walk takes steps ``a_n * xi_n`` where ``xi_n`` is uniform on the four axis
directions.  Positions are exact (Python ints, or Fractions for fractional
step sizes); a walk checks them against a width of ``width_bits`` bits (63
by default) and raises instead of silently wrapping, and ``width_bits=None``
lets them grow to arbitrary precision.

Direction codes are 0:+e1, 1:-e1, 2:+e2, 3:-e2.  The trajectory recorder
writes each as (kappa, eps): kappa is 1 for horizontal steps and 0 for
vertical, eps is the sign of the moving coordinate.  It keeps the walk's
blocks as arrays and builds its row tuples only on their first read; its
CSV export writes one chunk per block, formatting int64 blocks with numpy and
exact objects with ``str``.

Every trial of every Monte Carlo routine owns an independent substream
derived from the master seed (see :mod:`radwalk.rng`), so estimates do not
depend on batching or worker count.

All walks, here and in :mod:`radwalk.construction` and :mod:`radwalk.verify`,
run through one private kernel, :func:`_rotated`, which walks a batch of codes
in the rotated coordinates ``u = x + y`` and ``v = x - y``: each step moves
both by ``+-a_n``.  A sequence's walk takes the ints of
:meth:`StepSequence.lattice`, its steps times the lcm of their denominators:
positions are divided back only for a visitor and the final state, and a
target is scaled to the same lattice.  :func:`simulate` calls the kernel and
its visitor once per read of :data:`STREAM_CHUNK` codes, the visitor with a
:class:`WalkBlock` of consecutive steps: their exact positions, step sizes and
direction codes.  Every Monte Carlo estimate runs its trials through one loop,
:func:`_walk_trials`, which calls the kernel once per batch of at most
:data:`BATCH_STEPS` steps and reduces each to a score, most often the number
of paths that return to the origin (:func:`_returns`).  Steps do not depend
on the position, so visiting ``z`` from the origin is returning to the origin
from ``-z``: a walk starts at its start point, and every hit test compares
with 0.  The loop decodes each batch's codes at once
(:meth:`~radwalk.rng.CodeReader.fill`; a batch of one long row straight from
its trial's raw draw).  It decides once per call whether every step is 1; if
so, the kernel copies the step signs instead of multiplying them by ones.
It walks int64 steps on int32, so the kernel moves half the bytes and
:func:`_returns` compares each ``(u, v)`` pair as one 64-bit word, when the
steps' sum and the start prove, or a check per batch keeps, every position
inside int32 (see :func:`_walk_trials`); every count stays exact.
:func:`simulate` stays on int64.

Every Monte Carlo entry, here and in :mod:`radwalk.construction` and
:mod:`radwalk.verify`, checks its request first, by :func:`_trial_params`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import isfinite
from numbers import Rational
from typing import Callable, Iterable, Iterator

import numpy as np

from . import rng as _rng
from .errors import ParameterError, PositionOverflowError, _int_param
from .rng import ConfidenceInterval, wilson_interval
from .sequences import StepSequence

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

    def to_json_dict(self) -> dict:  # positions as strings, ints too
        final = {"n": self.final.n, "x": str(self.final.x), "y": str(self.final.y)}
        return {**_rng.json_encode(self), "final": final}


@dataclass(frozen=True)
class WalkBlock:
    """Steps ``start, start + 1, ...`` of a streamed walk, as a :func:`simulate` visitor
    gets them: exact positions and step sizes, as int64 or object arrays, and
    direction codes as uint8."""

    start: int
    x: np.ndarray
    y: np.ndarray
    steps: np.ndarray
    codes: np.ndarray


class TrajectoryRecorder:
    """Visitor that records (n, x, y, a_n, kappa, eps) rows for export.

    It keeps each :class:`WalkBlock` as it comes, arrays and all, and builds
    no per-step Python object: :attr:`rows`, the list of row tuples (ints,
    or Fractions), is built on its first read and kept.  :meth:`export_csv`
    writes one chunk per block, formatting int64 blocks with numpy and exact
    objects with ``str``.
    """

    def __init__(self):
        self._blocks: list[WalkBlock] = []
        self._ends: list[int] = []  # rows recorded through each block
        self._rows: list[tuple] | None = None

    def __call__(self, block: WalkBlock) -> None:
        self._blocks.append(block)
        self._ends.append(len(self) + len(block.codes))
        self._rows = None

    @property
    def rows(self) -> list[tuple]:
        """The recorded rows as tuples, built from the blocks on the first
        read after a block arrives."""
        if self._rows is None:
            self._rows = list(chain.from_iterable(map(_block_rows, self._blocks)))
        return self._rows

    def position_at(self, n: int):
        """Exact position after the n-th recorded step (n=0 is the origin)."""
        n = _int_param(n, "n", 0)
        if n > len(self):
            raise ParameterError(f"trajectory covers steps 1..{len(self)}, not {n}")
        if n == 0:
            return (0, 0)
        k = bisect_left(self._ends, n)  # the block holding row n
        b, i = self._blocks[k], n - 1 - (self._ends[k - 1] if k else 0)
        return b.x.item(i), b.y.item(i)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def export_csv(self, fh) -> None:
        """Write a header and the rows to ``fh``, each value as ``str``, with
        CRLF line ends (the bytes of ``csv.writer``): one formatted write per
        recorded block.  A block whose positions and steps are all int64 is
        formatted by :func:`_csv_text`; one holding exact objects (Fractions,
        or the ints of an object walk) goes through ``%s`` over its own row
        tuples."""
        fh.write("n,x,y,a_n,kappa,eps\r\n")
        for b in self._blocks:
            if all(a.dtype == np.int64 for a in (b.x, b.y, b.steps)):
                fh.write(_csv_text(np.arange(b.start, b.start + len(b.codes)), b.x, b.y, b.steps, b.codes))
            else:
                fh.write("%s,%s,%s,%s,%s,%s\r\n" * len(b.codes) % tuple(chain.from_iterable(_block_rows(b))))


def _block_rows(b: WalkBlock) -> Iterator[tuple]:
    """The ``(n, x, y, a_n, kappa, eps)`` tuples of one block's steps."""
    c = b.codes.astype(np.int8)
    cols = (b.x, b.y, b.steps, 1 - (c >> 1), 1 - 2 * (c & 1))  # kappa, eps
    return zip(range(b.start, b.start + len(c)), *(a.tolist() for a in cols))


#: ``,kappa,eps\r\n``, the end of a CSV row, for each direction code: eight
#: bytes, padded on the left with zeros, read as one native uint64.
_CSV_TAILS = np.frombuffer(
    b"".join(f",{1 - (c >> 1)},{1 - 2 * (c & 1)}\r\n".encode().rjust(8, b"\0") for c in range(4)),
    dtype=np.uint64,
)


def _csv_text(n: np.ndarray, x: np.ndarray, y: np.ndarray, steps: np.ndarray, codes: np.ndarray) -> str:
    """The CSV rows of int64 columns ``n, x, y, a_n`` and uint8 direction
    codes, as ``str`` writes each value.

    Each column fills a right-aligned field of a ``(rows, width)`` uint8
    table, as wide as its longest value, and each row ends in its code's
    :data:`_CSV_TAILS` word (``width`` is a multiple of 8, the slack going to
    the first field); bytes no digit, sign or separator fills stay 0, and one
    boolean mask drops them all.  (``np.compress`` is faster but builds an
    int64 index per kept byte, eight times the text.)  Digits come by ``q //
    10`` and ``q - 10 * (q // 10)``, which numpy vectorises for int64 and
    int32 (``%`` it does not), on int32 where a field has at most 9
    characters."""
    cols = (n, x, y, steps)
    bounds = [(int(c.min()), int(c.max())) for c in cols]
    spans = [max(len(str(lo)), len(str(hi))) for lo, hi in bounds]
    width = -(-(sum(spans) + len(spans) + 7) // 8) * 8  # fields, commas, tail
    table = np.zeros((len(codes), width), dtype=np.uint8)
    table.view(np.uint64)[:, -1] = _CSV_TAILS[codes]
    end = width - 8
    for k in reversed(range(len(cols))):
        c, (lo, _), span = cols[k], bounds[k], spans[k]
        field = table[:, end - span : end]
        end -= span + 1
        if k:
            table[:, end] = ord(",")
        q = np.abs(c) if lo < 0 else c
        q = q.astype(np.int32) if span < 10 else q
        for j in range(1, span + 1):
            nq = q // 10
            digit = q - 10 * nq + ord("0")
            if j > 1:
                digit[q == 0] = 0  # left of the leading digit
            field[:, -j] = digit
            q = nq
        if lo < 0:  # no negative value's digits reach its field's first byte
            field[c < 0, 0] = ord("-")
    return str(table[table != 0], "ascii")


#: Codes per read of a streamed walk in :func:`simulate`: even, so no 64-bit
#: output is split between two reads (see :meth:`~radwalk.rng.CodeReader.read`)
#: and the reads concatenate to :func:`radwalk.rng.direction_codes` exactly.
STREAM_CHUNK = 1 << 15

#: Trials x steps of one batch of walks in :func:`_walk_trials`: walks with
#: short horizons run as (rows x n) arrays of at most this many steps.
BATCH_STEPS = 1 << 16

#: Headroom, in standard deviations, of the checked int32 walk: int64 steps
#: with ``max(a) + SPREAD_SIGMAS * sqrt(sum(a**2)) < 2**31`` walk on int32.
#: ``u`` and ``v`` each sum ``+-a_k`` with independent fair signs, so by
#: Levy's maximal inequality and Hoeffding's, ``max_k |u_k|`` reaches
#: ``8 sqrt(sum(a**2))`` with probability at most ``4 exp(-32)``, about 5e-14:
#: the re-walk on int64 that keeps counts exact almost never runs.
SPREAD_SIGMAS = 8


def _rotated(
    steps: np.ndarray, codes: np.ndarray, out: np.ndarray, start=None, limit=0, unit: bool = False
) -> np.ndarray:
    """The walk kernel: the ``(rows, n, 2)`` positions ``out[r, k] = (u, v) =
    (x + y, x - y)`` after step ``k + 1`` of each row of ``codes``, a
    ``(rows, n)`` uint8 batch of direction codes, walked on the ``n`` steps.

    ``steps`` is int32 or int64 with a sum <=
    :data:`~radwalk.sequences.INT64_STEP_SUM`, or exact objects, and ``out``
    has their dtype.  Code ``c = 2*b1 + b0`` moves ``u`` by ``a * (1 - 2*b0)``
    and ``v`` by ``a * (1 - 2*(b0 ^ b1))``: +e1 by ``(a, a)``, -e1 by
    ``(-a, -a)``, +e2 by ``(a, -a)``, -e2 by ``(-a, a)``.  With u and v
    interleaved, one cumsum along the steps adds both at once, about four
    times faster than numpy's dependent loop over each row on its own.

    ``start``, the rotated start ``(x0 + y0, x0 - y0)`` of every row as a
    ``(2,)`` array, or of each row as a ``(rows, 2)`` one, is added to each
    row's first step before the cumsum; None starts every row at the origin.

    ``limit`` > 0 asks for the checked walk of int32 ``steps``: one max and
    one min check the positions against ``+-limit``, ``limit = 2**31 - 1 -
    max(a)``, and a batch that leaves that range is walked again on
    ``steps.astype(int64)`` from the same codes and start and returned as
    int64.  Inside it no int32 position can have wrapped, as each is the
    exact one before it (or the start, which the caller keeps within
    ``limit``) plus at most ``max(a)``.

    ``unit`` says every step is 1: the signs are then the moves, and are
    copied into ``out`` instead of multiplied by ones (the whole kernel on
    65 x 1000 int32 unit steps: 172 -> 133 us, best of 300, numpy 2.4.6,
    2-vCPU host).
    """
    neg = codes & 1
    # 1 - 2*bit as uint8 is 1 or 255, that is +1 or -1 as int8
    su, sv = (1 - 2 * neg).view(np.int8), (1 - 2 * (neg ^ (codes >> 1))).view(np.int8)

    def walk(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if unit:
            np.copyto(b[..., 0], su)
            np.copyto(b[..., 1], sv)
        else:
            np.multiply(a, su, out=b[..., 0])
            np.multiply(a, sv, out=b[..., 1])
        if start is not None:
            b[:, :1] += start.reshape(-1, 1, 2)  # a slice, so n = 0 walks too
        return np.cumsum(b, axis=1, out=b)

    out = walk(steps, out)
    if limit and (out.max() > limit or out.min() < -limit):
        out = walk(steps.astype(np.int64), np.empty(out.shape, dtype=np.int64))
    return out


def _returns(uv: np.ndarray) -> int:
    """The number of paths (rows of a :func:`_rotated` ``uv``, or of a slice
    of its steps) that are at the origin, ``(u, v) = (0, 0)``, after one of
    their steps.  A walk that visits ``z`` is one from ``-z`` that returns.

    A compare on ``uv[..., 0]`` alone reads every other element, and costs
    3-4 times one on contiguous data, so neither case makes one:

    - int32 positions: each ``(u, v)`` pair is one int64 word, 0 exactly
      when both are (65 paths x 1000 steps: 0.118 -> 0.015 ms, 1 x 49152:
      0.089 -> 0.013 ms; best of 60-80, numpy 2.4.6, 2-vCPU host).
    - int64 or exact positions: one compare of the whole buffer with 0, each
      step's pair of bools read as one uint16, both true when it is 0x0101
      (1 x 10**5: 0.062 ms, against 0.185 ms coordinate by coordinate).
    """
    if uv.dtype == np.int32:
        return int((uv.view(np.int64)[..., 0] == 0).any(axis=1).sum())
    rows, n = uv.shape[:2]
    return int(((uv.reshape(rows, 2 * n) == 0).view(np.uint16) == 0x0101).any(axis=1).sum())


def _trial_params(trials, master_seed, workers, level: float) -> tuple[int, int]:
    """``(trials, workers)`` of a Monte Carlo request, each an int >= 1; these,
    the seed and the confidence ``level`` (as :func:`wilson_interval` reads
    it) fail by name here, before any shortcut or walk."""
    trials, workers = _int_param(trials, "trials", 1), _int_param(workers, "workers", 1)
    _rng._seed_param(master_seed)
    if not 0.0 < level < 1.0:
        raise ParameterError("confidence level must lie in (0, 1)")
    return trials, workers


def _walk_trials(
    n: int, steps: Callable[[], np.ndarray], trials: int, master_seed, score: Callable,
    *, start=None, workers: int = 1, codes_of: Callable | None = None, combine: Callable = sum,
):
    """The one Monte Carlo trial loop: ``combine`` of ``score(uv)`` over
    batches of trials ``0..trials-1``, ``uv`` being the :func:`_rotated`
    positions of the batch's walks on the ``n`` steps ``steps()`` builds.
    Trial ``t`` walks its first ``n`` direction codes from ``start``, a point
    ``(x0, y0)`` (None: the origin).  With a ``codes_of``, ``start`` is a
    list of points instead, and ``codes_of(reader, t)`` returns trial ``t``'s
    codes, drawn on its chunk's reader, and the index of its start in that
    list (any int when ``start`` is None).  ``combine`` folds a chunk's
    scores, then the chunks' results in order, so ``workers`` cannot change
    the result.  Arrays too large to allocate raise :class:`ParameterError`.

    A batch holds at most :data:`BATCH_STEPS` steps or one trial, and each
    chunk allocates its codes and positions buffers once, so the next batch
    overwrites ``uv``: a fresh array per batch costs page faults that, on
    long walks, take as long as the arithmetic.  The default codes are
    decoded a batch at a time by the reader's
    :meth:`~radwalk.rng.CodeReader.fill`; a ``codes_of`` runs per trial.
    Steps that are all 1 take the kernel's ``unit`` route, decided here once.
    With ``s`` the largest ``|x0| + |y0|`` of the starts, which bounds
    ``|u|`` and ``|v|`` at the start, int64 steps walk as int32, which halves
    the memory the kernel and the scores move, in two cases.  Proved:
    ``s + sum(steps) < 2**31``, so every partial sum has ``|u_k|, |v_k| <= s
    + sum(steps)``.  Checked: ``s + max(a) + SPREAD_SIGMAS * sqrt(sum(a**2))
    < 2**31``; the kernel then walks a batch again on int64 when it leaves
    ``+-(2**31 - 1 - max(a))``.  int64 steps with ``s + sum(steps) >= 2**63``
    walk as exact objects.  Either way every score sees exact positions.
    ``trials`` and ``workers`` come checked, from :func:`_trial_params`.
    """
    key = _rng._philox_key(master_seed)
    try:
        walked, limit = steps(), 0
        unit = bool((walked == 1).all())
        points = [] if start is None else list(start) if codes_of else [start]
        rotated = [(x + y, x - y) for x, y in points]
        reach = max((abs(c) for p in rotated for c in p), default=0)
        if walked.dtype == np.int64:
            total = reach + int(walked.sum())
            if total < 1 << 31:
                walked = walked.astype(np.int32)
            elif total >= 1 << 63:
                walked = walked.astype(object)
            else:
                sigma = float(np.square(walked, dtype=np.float64).sum()) ** 0.5  # of u_n, v_n
                top = int(walked.max())
                if reach + top + SPREAD_SIGMAS * sigma < 1 << 31:
                    walked, limit = walked.astype(np.int32), (1 << 31) - 1 - top
        starts = np.array(rotated, dtype=walked.dtype) if points else None

        def run_chunk(chunk: range):
            reader = _rng.CodeReader(key)  # not thread-safe: one per chunk
            rows = max(1, min(len(chunk), BATCH_STEPS // max(n, 1)))
            codes = np.empty((rows, n), dtype=np.uint8)
            uv = np.empty((rows, n, 2), dtype=walked.dtype)
            picks = np.empty(rows, dtype=np.intp)
            at = None if starts is None else starts[0]
            scores = []
            for lo in range(chunk.start, chunk.stop, rows):
                batch = range(lo, min(lo + rows, chunk.stop))
                c = codes[: len(batch)]
                if codes_of is None:
                    reader.fill(batch, c)
                else:
                    for r, t in enumerate(batch):
                        c[r], picks[r] = codes_of(reader, t)
                    at = None if starts is None else starts[picks[: len(batch)]]
                scores.append(score(_rotated(walked, c, uv[: len(batch)], at, limit, unit)))
            return combine(scores)

        return _rng.map_trial_chunks(trials, run_chunk, combine, workers)
    except MemoryError:
        raise ParameterError(f"horizon {n}: the walk arrays do not fit in memory") from None


def simulate(
    seq: StepSequence,
    n: int,
    master_seed,
    visitor: Callable[[WalkBlock], None] | None = None,
    *,
    trial: int = 0,
    width_bits: int | None = 63,
) -> WalkSummary:
    """Walk ``n`` exact steps, one read of :data:`STREAM_CHUNK` codes at a time,
    and call ``visitor`` once per block with a :class:`WalkBlock`: the 1-based
    index of its first step and, per step, the position after it, its size
    and its code.  The blocks cover steps 1..n in order; none is empty.

    Position arithmetic is exact.  A coordinate may not leave
    ``[-2**width_bits + 1, 2**width_bits - 1]``: when step ``i`` leaves it,
    the visitor has seen exactly steps 1..i-1 and
    :class:`PositionOverflowError` is raised with ``step=i``.  With
    ``width_bits=None`` positions grow to arbitrary precision.
    """
    if width_bits is not None:
        width_bits = _int_param(width_bits, "width_bits", 0)
    trial = _int_param(trial, "trial", 0)
    walked, scale = seq.lattice(n)
    # Positions are Fractions from the first step whose value is not an int on:
    # a scale above 1 says there is one, and only a visitor needs to know where.
    steps, first = walked, n if scale == 1 else 0
    if scale != 1 and visitor is not None:
        steps = np.array(seq.prefix(n), dtype=object)
        first = next(k for k, a in enumerate(steps.tolist()) if not isinstance(a, int))
    unscale = np.frompyfunc(lambda p: Fraction(int(p), scale), 1, 1)
    limit = None if width_bits is None else ((1 << width_bits) - 1) * scale
    limit = limit if limit is not None and int(walked.sum()) > limit else None  # |S_k| <= sum
    u_end = v_end = horizontal = 0
    reader = _rng.CodeReader(_rng._philox_key(master_seed))
    reader.seek(trial)
    uv = np.empty((1, min(n, STREAM_CHUNK), 2), dtype=walked.dtype)
    for lo in range(0, n, STREAM_CHUNK):
        codes = reader.read(min(STREAM_CHUNK, n - lo))
        (uv_read,) = _rotated(walked[lo : lo + len(codes)], codes[None], uv[:, : len(codes)])
        u, v = uv_read[:, 0], uv_read[:, 1]
        u += u_end
        v += v_end
        u_end, v_end = u[-1:].item(), v[-1:].item()
        horizontal += int((codes < 2).sum())
        if visitor is None and limit is None:
            continue
        # x = (u >> 1) + (v >> 1) + (u & 1), that is (u + v) / 2, as u + v may
        # not fit in int64; y = x - v.  Both are fresh, as a visitor may keep them.
        x, y = np.right_shift(u, 1), np.bitwise_and(u, 1)
        x += y
        x += np.right_shift(v, 1, out=y)
        np.subtract(x, v, out=y)
        out = np.flatnonzero((np.abs(x) > limit) | (np.abs(y) > limit)) if limit is not None else []
        stop = int(out[0]) if len(out) else len(codes)
        if visitor is not None and stop:
            x, y, ints = x[:stop], y[:stop], min(max(first - lo, 0), stop)
            if first < n:  # ints before the first fractional step, Fractions from it on
                x, y = (np.concatenate([c[:ints] // scale, unscale(c[ints:])]) for c in (x, y))
            visitor(WalkBlock(lo + 1, x, y, steps[lo : lo + stop], codes[:stop]))
        if len(out):
            at = lo + stop + 1
            raise PositionOverflowError(
                f"position left the {width_bits}-bit range at step {at}", step=at
            )
    x_end = (u_end + v_end) // 2
    final = [Fraction(c, scale) if first < n else c for c in (x_end, x_end - v_end)]
    return WalkSummary(WalkState(n, *final), n, horizontal, master_seed, trial)


def simulate_recording(
    seq: StepSequence,
    n: int,
    master_seed,
    *,
    trial: int = 0,
    width_bits: int | None = 63,
) -> tuple[WalkSummary, TrajectoryRecorder]:
    rec = TrajectoryRecorder()
    return simulate(seq, n, master_seed, rec, trial=trial, width_bits=width_bits), rec


#: Per thread, :func:`visit_statistics`' two int64 buffers, kept: freed ones
#: let malloc return their pages, which the next call faults in again (20 000
#: steps: 0.9-1.6 ms and 203-241 minor faults a call, against 0.5-0.8 and none).
_VISIT_BUFFERS = threading.local()


def visit_statistics(
    seq: StepSequence,
    n: int,
    master_seed,
    targets: Iterable[tuple[int, int]],
    *,
    trial: int = 0,
    width_bits: int | None = 63,
) -> VisitStatistics:
    """Exact per-target visit counts along one simulated path (visits at n >= 1)."""
    tlist = [(t[0], t[1]) for t in targets]
    # per target: count, first hit, last hit, least squared distance
    acc = {t: [0, None, None, None] for t in tlist}
    buffers = _VISIT_BUFFERS.__dict__.setdefault("pair", [])

    def visitor(block: WalkBlock) -> None:
        x, y = block.x, block.y
        # the block's extents, once for all targets: int64 squares cannot
        # wrap while every offset is below 2**31
        exact = x.dtype != np.int64
        if not exact:
            x_lo, x_hi, y_lo, y_hi = int(x.min()), int(x.max()), int(y.min()), int(y.max())
        for (tx, ty), a in acc.items():
            small = not exact and type(tx) is int and type(ty) is int and max(
                x_hi - tx, tx - x_lo, y_hi - ty, ty - y_lo
            ) < 1 << 31
            if small:
                if not buffers or len(buffers[0]) < len(x):
                    buffers[:] = np.empty(len(x), dtype=np.int64), np.empty(len(x), dtype=np.int64)
                sq, dy = (b[: len(x)] for b in buffers)
                np.square(np.subtract(x, tx, out=sq), out=sq)
                np.add(sq, np.square(np.subtract(y, ty, out=dy), out=dy), out=sq)
            else:
                dx, dy = x.astype(object) - tx, y.astype(object) - ty
                sq = dx * dx + dy * dy
            # the first least value, as a scan with a strict < keeps it
            low = sq.min().item() if small else min(sq.tolist())
            hits = np.flatnonzero(sq == 0)
            a[3] = low if a[3] is None or low < a[3] else a[3]
            if len(hits):
                a[0], a[2] = a[0] + len(hits), block.start + int(hits[-1])
                a[1] = block.start + int(hits[0]) if a[1] is None else a[1]

    simulate(seq, n, master_seed, visitor, trial=trial, width_bits=width_bits)
    per = tuple(TargetVisitStats(t, *acc[t]) for t in tlist)
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

    to_json_dict = _rng.json_encode


def _target_param(target) -> tuple:
    """``target``'s two coordinates: ints, Fractions or finite floats, not bools."""
    try:
        x, y = target
    except (TypeError, ValueError):
        x = y = None
    for c in (x, y):
        if not (isinstance(c, Rational) and not isinstance(c, bool) or isinstance(c, float) and isfinite(c)):
            raise ParameterError(
                f"target must be a point (x, y) of ints, Fractions or finite floats, got {target!r}"
            )
    return x, y


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
    """Estimate the probability of visiting ``target`` at some step 1..n.

    The walk runs on the steps' lattice ints from ``-target``, so a visit of
    ``target`` is a return to the origin (:func:`_returns`).  A target off
    that lattice, or farther than the steps' sum, is never visited: its walks
    run from the origin and score 0."""
    trials, workers = _trial_params(trials, master_seed, workers, level)
    tx, ty = _target_param(target)
    walked, scale = seq.lattice(n)
    x0, y0 = -Fraction(tx) * scale, -Fraction(ty) * scale
    reachable = x0.denominator == y0.denominator == 1 and abs(x0) + abs(y0) <= int(walked.sum())
    successes = _walk_trials(
        n, lambda: walked, trials, master_seed, _returns if reachable else lambda uv: 0,
        start=(int(x0), int(y0)) if reachable else None, workers=workers,
    )
    ci = wilson_interval(successes, trials, level)
    params = {"horizon": n, "target": list(target), "sequence": seq.to_config()}
    return MonteCarloEstimate(trials, successes, successes / trials, ci, master_seed, params)
