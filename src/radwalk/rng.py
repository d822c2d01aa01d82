"""Deterministic random-stream plumbing shared by the simulation modules.

Every Monte Carlo routine derives one independent substream per trial from a
master seed using a counter-based bit generator: trial ``i`` reads the Philox
sequence keyed by the master seed with the 256-bit counter started at block
``(0, i, 0, 0)``.  Each trial therefore owns 2**64 consecutive blocks, and its
draws are a pure function of ``(master_seed, i)``, independent of batching,
thread count, and execution order.  Aggregates over trials are exact integer
sums, so parallel and serial runs produce identical results.

Direction codes are the draws ``Generator.integers(0, 4)`` of that stream.
For a range of 4, numpy uses Lemire's multiply-shift draw, which rejects a
32-bit word ``w`` only when the low 32 bits of ``4*w`` fall below
``2**32 mod 4``.  That is 0, so it never rejects, and the code is
``(4*w) >> 32``, the top two bits of ``w``.  The words are the halves of the
64-bit Philox outputs, low half first, so :class:`CodeReader` decodes ``n``
codes as ``random_raw(ceil(n/2)).view(uint32)[:n] >> 30`` (on a
little-endian host): the codes :func:`direction_codes` draws.  One decode,
:func:`_decode`, shifts the raw words in place and narrows them into the
uint8 codes, so no wider temporary is made.  :meth:`CodeReader.read`
decodes its own raw draw that way; :meth:`CodeReader.fill` decodes a
one-row batch from its trial's own draw, with no copy, and a batch of
several rows from one reused word buffer, all rows at once.

Results and construction plans go to JSON and back through one codec,
:func:`json_encode` and :func:`json_decode`, driven by dataclass fields.  A
master seed, the one untyped field, is a non-negative int or a nonempty list
of seeds in JSON, and a tuple of them in Python.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import ParameterError, _int_param

RNG_ID = "numpy-philox4x64"
SEED_RULE_ID = "philox-counter-v1:trial[i]=Philox(key=seedseq(master),counter=(0,i,0,0))"

#: Direction codes drawn by every walk: 0:+e1, 1:-e1, 2:+e2, 3:-e2.
NUM_DIRECTIONS = 4

_T = TypeVar("_T")


def _valid_seed(seed) -> bool:
    if isinstance(seed, tuple):
        return bool(seed) and all(_valid_seed(part) for part in seed)
    return isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and seed >= 0


def _seed_param(master_seed):
    """``master_seed`` if it is a non-negative int or a tuple of seeds
    (substreams nest a seed inside a tuple with purpose tags), else a
    :class:`ParameterError` that names it."""
    if not _valid_seed(master_seed):
        raise ParameterError(
            f"master seed must be a non-negative int or a tuple of them, got {master_seed!r}"
        )
    return master_seed


def _philox_key(master_seed) -> np.ndarray:
    """The Philox key of a master seed, checked by :func:`_seed_param`."""
    return np.random.SeedSequence(_seed_param(master_seed)).generate_state(2, np.uint64)


def trial_generator(master_seed, trial: int) -> np.random.Generator:
    """Return the independent generator owned by one trial.

    ``master_seed`` may be a non-negative int or a tuple of ints (used to
    derive per-round or per-purpose substreams).
    """
    trial = _int_param(trial, "trial", 0)
    key = _philox_key(master_seed)
    bitgen = np.random.Philox(key=key, counter=[0, trial, 0, 0])
    return np.random.Generator(bitgen)


def direction_codes(master_seed, trial: int, n: int) -> np.ndarray:
    """Direction codes (0..3) for steps 1..n of one trial's walk."""
    n = _int_param(n, "horizon", 0)
    gen = trial_generator(master_seed, trial)
    return gen.integers(0, NUM_DIRECTIONS, size=n, dtype=np.int64)


class CodeReader:
    """One Philox, keyed by a master seed's :func:`_philox_key`, that moves to
    trial ``i`` by resetting its state to the one :func:`trial_generator`
    starts in: counter ``(0, i, 0, 0)``, no buffered output.  After
    :meth:`seek`, ``generator`` draws what that trial's
    :func:`trial_generator` would.  A reader is not thread-safe: each thread
    takes its own."""

    def __init__(self, key: np.ndarray):
        self._raw = None  # fill's word buffer, kept between batches
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": key.tolist()},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bitgen = np.random.Philox(key=key)
        self.generator = np.random.Generator(self._bitgen)

    def seek(self, trial: int) -> None:
        """Move to trial ``trial``, an int >= 0 its caller has checked."""
        self._counter[1] = trial
        self._bitgen.state = self._state

    def read(self, n: int) -> np.ndarray:
        """The next ``n`` codes (uint8), decoded by :func:`_decode` from this
        read's own raw draw; an odd ``n`` leaves a half word unread."""
        return _decode(self._bitgen.random_raw(-(-n // 2)), np.empty(n, dtype=np.uint8))

    def fill(self, trials: range, codes: np.ndarray) -> None:
        """Set row ``r`` of ``codes``, a ``(len(trials), n)`` uint8 array, to
        the codes ``read(n)`` gives after ``seek(trials[r])``.

        A one-row batch (a walk longer than half a batch) decodes its trial's
        own raw draw into ``codes``, with no word buffer and no copy into it
        (1 x 10**5 codes: 223 -> 212 us, best of 1000, numpy 2.4.6, 2-vCPU
        host).  A batch of several rows runs only the seek and the raw draw
        per trial, into one ``(rows, ceil(n/2))`` uint64 buffer the reader
        keeps for the next batch of the same shape, then decodes all rows at
        once, so short rows pay one decode per batch, not per trial (65 x
        1000 codes: 3.8 us a trial).
        """
        rows, n = codes.shape
        half = -(-n // 2)
        if rows == 1:
            self.seek(trials[0])
            _decode(self._bitgen.random_raw(half), codes[0])
            return
        if self._raw is None or self._raw.shape[1] != half or len(self._raw) < rows:
            self._raw = np.empty((rows, half), dtype=np.uint64)
        raw = self._raw[:rows]
        for r, t in enumerate(trials):
            self.seek(t)
            raw[r] = self._bitgen.random_raw(half)
        _decode(raw, codes)


def _decode(raw: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """``codes``, a uint8 array of ``n`` codes along its last axis, set to the
    top two bits of the first ``n`` 32-bit words of ``raw``, the uint64
    Philox outputs of one trial per row (``raw`` is 1-D for one trial).

    The words are shifted in place, as ``raw`` is the caller's own, and then
    narrowed into ``codes``.  One ``right_shift(..., out=codes,
    casting="unsafe")`` would skip a pass, but its cast buffer moves glibc's
    heap: in the benchmark's desk_exact loop, ``visit_statistics`` after it
    faults in fresh pages, 0.77 -> 0.98 ms a call (2-vCPU host)."""
    words = raw.view(np.uint32)[..., : codes.shape[-1]]
    words >>= 30
    np.copyto(codes, words, casting="unsafe")
    return codes


def json_encode(obj):
    """The JSON form of a result: a dataclass becomes the dict of its fields,
    or their list when its class sets ``json_as_list``; a Fraction becomes its
    string and a tuple a list.  Other values pass through."""
    if obj is None or isinstance(obj, (int, float, str)):  # the common leaves, first
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [json_encode(v) for v in obj]
    if isinstance(obj, dict):
        return {k: json_encode(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj)]
        values = [json_encode(getattr(obj, name)) for name in names]
        return values if getattr(obj, "json_as_list", False) else dict(zip(names, values))
    return obj


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def json_decode(tp, data, path: str = ""):
    """The value of type ``tp`` whose JSON form is ``data``: the inverse of
    :func:`json_encode` for dataclasses of ints, floats, strings, tuples,
    optional values and master seeds.

    Every key of a dataclass's dict must be a field, and every field without
    a default must be there; values must have their field's type (an int
    passes for a float, a bool for neither).  The dataclass's own checks run
    as it is built.  Any fault raises :class:`ParameterError` naming its path.
    """
    path = path or tp.__name__
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # X | None
        if data is None:
            return None
        (tp,) = [t for t in typing.get_args(tp) if t is not type(None)]
    fault = ParameterError(f"{path}: expected {getattr(tp, '__name__', tp)}, got {data!r}")
    if tp is object:  # a master seed
        seed = _seed_from_lists(data)
        if not _valid_seed(seed):
            raise ParameterError(f"{path}: expected a master seed, got {data!r}")
        return seed
    if getattr(tp, "json_as_list", False):
        kinds = _field_types(tp)
        form = tuple[tuple(kinds[f.name] for f in dataclasses.fields(tp))]
        return _build(tp, path, *json_decode(form, data, path))
    if typing.get_origin(tp) is tuple:
        kinds = typing.get_args(tp)
        if kinds[-1:] == (Ellipsis,) and isinstance(data, (list, tuple)):
            kinds = kinds[:1] * len(data)
        if not isinstance(data, (list, tuple)) or len(data) != len(kinds):
            raise fault
        return tuple(json_decode(k, v, f"{path}[{i}]") for i, (k, v) in enumerate(zip(kinds, data)))
    if dataclasses.is_dataclass(tp):
        if not isinstance(data, dict):
            raise fault
        fields = dataclasses.fields(tp)
        unknown = sorted(set(data) - {f.name for f in fields})
        if unknown:
            raise ParameterError(f"{path}: unknown keys {unknown}")
        missing = [
            f.name for f in fields
            if f.name not in data and f.default is f.default_factory is dataclasses.MISSING
        ]
        if missing:
            raise ParameterError(f"{path}: missing keys {missing}")
        kinds = _field_types(tp)
        values = {k: json_decode(kinds[k], v, f"{path}.{k}") for k, v in data.items()}
        return _build(tp, path, **values)
    if isinstance(data, bool) is not (tp is bool) or not isinstance(
        data, (int, float) if tp is float else tp
    ):
        raise fault
    return data


def _build(cls, path: str, *args, **kwargs):
    try:
        return cls(*args, **kwargs)
    except ParameterError as exc:  # the class's own checks
        raise ParameterError(f"{path}: {exc}") from None


def _seed_from_lists(value):
    return tuple(_seed_from_lists(v) for v in value) if isinstance(value, list) else value


@dataclass(frozen=True)
class ConfidenceInterval:
    low: float
    high: float
    method: str
    level: float

    to_json_dict = json_encode


def wilson_interval(successes: int, trials: int, level: float = 0.95) -> ConfidenceInterval:
    """Two-sided Wilson score interval for a binomial proportion."""
    trials = _int_param(trials, "trials", 1)
    if not 0 <= successes <= trials:
        raise ParameterError("successes must lie in [0, trials]")
    if not 0.0 < level < 1.0:
        raise ParameterError("confidence level must lie in (0, 1)")
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * ((phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) ** 0.5)
    # The bounds are exactly 0 at no successes and 1 at all successes; the
    # float formula leaves rounding residue of ~1e-17 there.
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return ConfidenceInterval(low, high, "wilson", level)


#: Trials per chunk of :func:`map_trial_chunks`.
TRIAL_CHUNK = 256


def chunk_ranges(trials: int) -> list[range]:
    """Split trial indices 0..trials-1 into contiguous chunks of :data:`TRIAL_CHUNK`."""
    return [range(lo, min(lo + TRIAL_CHUNK, trials)) for lo in range(0, trials, TRIAL_CHUNK)]


def map_trial_chunks(
    trials: int,
    chunk_fn: Callable[[range], _T],
    combine: Callable[[Sequence[_T]], _T],
    workers: int = 1,
) -> _T:
    """Apply ``chunk_fn`` to chunks of trial indices and combine in chunk order.

    Each trial's randomness comes from its own substream, so the chunk layout
    and the worker count cannot change the combined result.  ``trials`` and
    ``workers`` are ints >= 1, checked by :func:`radwalk.walk._trial_params`.
    """
    chunks = chunk_ranges(trials)
    if workers == 1 or len(chunks) == 1:
        parts = [chunk_fn(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(chunk_fn, chunks))
    return combine(parts)
