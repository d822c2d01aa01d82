"""Random streams: the raw Philox decode, master-seed validation, Wilson ends."""

import numpy as np
import pytest

from radwalk import rng as rw
from radwalk import verify as vf
from radwalk import walk as wk
from radwalk import sequences as sq
from radwalk.errors import ParameterError

SEEDS = (0, 2025, (7, 101, 3), ((2025, 101, 0), 102, 1))
HORIZONS = (0, 1, 2, 3, 255, 257, 32767, 32769, 100001)
TRIALS = (0, 1, 5, 1 << 40)


class TestDecodeGuard:
    """The raw decode must stay equal to ``Generator.integers(0, 4)``; a numpy
    release that changes how that draw consumes its words fails here."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_decode_matches_generator_integers(self, seed):
        reader = rw.CodeReader(rw._philox_key(seed))
        for trial in TRIALS:
            for n in HORIZONS:
                want = rw.trial_generator(seed, trial).integers(0, 4, size=n, dtype=np.int64)
                reader.seek(trial)
                got = reader.read(n)
                assert got.dtype == np.uint8 and np.array_equal(got, want), (trial, n)

    def test_direction_codes_is_the_reference_draw(self):
        for seed in SEEDS:
            gen = rw.trial_generator(seed, 9)
            want = gen.integers(0, rw.NUM_DIRECTIONS, size=1001, dtype=np.int64)
            got = rw.direction_codes(seed, 9, 1001)
            assert got.dtype == np.int64 and np.array_equal(got, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stream_chunks_concatenate(self, seed):
        # even reads split no 64-bit output, as walk.simulate's reads do
        reader = rw.CodeReader(rw._philox_key(seed))
        for chunk in (2, 4096, 1 << 15):
            for n in (1, 257, 32769, 100001):
                reader.seek(3)
                parts = [reader.read(min(chunk, n - lo)) for lo in range(0, n, chunk)]
                assert np.array_equal(np.concatenate(parts), rw.direction_codes(seed, 3, n))


def _reference(seed, trial: int, n: int) -> np.ndarray:
    return rw.trial_generator(seed, trial).integers(0, 4, size=n, dtype=np.int64)


class TestFillRoutes:
    """Both routes of ``CodeReader.fill`` give the ``Generator.integers(0, 4)``
    draws: a one-row batch decodes its trial's own raw draw, a batch of
    several rows goes through the reader's word buffer."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 32769, 100001])
    def test_one_row(self, seed, n):
        reader = rw.CodeReader(rw._philox_key(seed))
        for trial in TRIALS:
            codes = np.full((1, n), 9, dtype=np.uint8)
            reader.fill(range(trial, trial + 1), codes)
            assert np.array_equal(codes[0], _reference(seed, trial, n)), trial

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 999, 1000, 21845])
    def test_several_rows(self, seed, n):
        reader = rw.CodeReader(rw._philox_key(seed))
        for trials in (range(0, 5), range(3, 5), range(1 << 40, (1 << 40) + 3)):
            codes = np.full((len(trials), n), 9, dtype=np.uint8)
            reader.fill(trials, codes)
            for row, trial in zip(codes, trials):
                assert np.array_equal(row, _reference(seed, trial, n)), (trial, n)

    @pytest.mark.parametrize("n", [999, 1000])
    def test_routes_alternate_on_one_reader(self, n):
        # one row, many rows (the buffer is made), one row, fewer rows on the
        # same buffer, one row: each batch reads only its own trials' words
        reader = rw.CodeReader(rw._philox_key(2025))
        for trials in (range(7, 8), range(10, 16), range(20, 21), range(30, 33), range(11, 12)):
            codes = np.full((len(trials), n), 9, dtype=np.uint8)
            reader.fill(trials, codes)
            for row, trial in zip(codes, trials):
                assert np.array_equal(row, _reference(2025, trial, n)), (trial, n)


class TestMasterSeed:
    @pytest.mark.parametrize(
        "bad", [-1, 1.5, "7", None, True, [1, 2], (), (1, -2), (3, (2, -1)), (1, 2.0)]
    )
    def test_bad_seed_fails_by_name(self, bad):
        with pytest.raises(ParameterError, match="master seed"):
            rw._philox_key(bad)
        with pytest.raises(ParameterError, match="master seed"):
            rw.trial_generator(bad, 0)
        with pytest.raises(ParameterError, match="master seed"):
            wk._trial_params(1, bad, 1, 0.95)

    def test_good_seeds_accepted(self):
        for seed in (0, 2**70, np.int64(5), (1, 2), ((1, 2), 101, 0)):
            rw._philox_key(seed)
            wk._trial_params(1, seed, 1, 0.95)

    def test_entry_points_validate_before_any_shortcut(self):
        const1 = sq.make_sequence("constant", value=1)
        with pytest.raises(ParameterError, match="master seed"):
            wk.monte_carlo_return(const1, 0, 5, -1)
        with pytest.raises(ParameterError, match="master seed"):
            wk.simulate(const1, 0, -1)
        with pytest.raises(ParameterError, match="master seed"):
            wk.simulate(const1, 0, -1, visitor=lambda *a: None)
        # r = 0 starts at the origin and needs no walk at all
        with pytest.raises(ParameterError, match="master seed"):
            vf.hitting_time_experiment(0, trials=3, master_seed=1.5)


class TestWilsonEnds:
    @pytest.mark.parametrize("level", [0.95, 0.99])
    def test_exact_zero_and_one(self, level):
        for n in range(1, 5000):
            assert rw.wilson_interval(0, n, level).low == 0.0, n
            assert rw.wilson_interval(n, n, level).high == 1.0, n

    @pytest.mark.parametrize("level", [0.95, 0.99])
    def test_interior_contains_estimate(self, level):
        for n in (1, 2, 13, 16, 24, 500, 512):
            for s in range(n + 1):
                ci = rw.wilson_interval(s, n, level)
                assert 0.0 <= ci.low <= s / n <= ci.high <= 1.0
