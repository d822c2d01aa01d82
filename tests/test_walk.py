"""Walk simulation: exactness, seeding contracts, statistics, Monte Carlo."""

import ast
import csv
import hashlib
import inspect
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radwalk import cli, construction as cn, exact, rng as rw, sequences as sq, verify as vf, walk as wk
from radwalk.errors import ParameterError, PositionOverflowError

CONST1 = sq.make_sequence("constant", value=1)


def find_seed_with_codes(prefix_codes, span=2000):
    """Smallest master seed whose trial-0 stream starts with the given codes."""
    want = list(prefix_codes)
    for seed in range(span):
        got = rw.direction_codes(seed, 0, len(want))
        if list(got) == want:
            return seed
    raise AssertionError("no seed found; widen the search span")


class TestSampling:
    def test_uniformity_within_four_sigma(self):
        n = 1_000_000
        codes = rw.direction_codes(123, 0, n)
        sigma = (n * 0.25 * 0.75) ** 0.5
        for code in range(4):
            count = int((codes == code).sum())
            assert abs(count - n * 0.25) <= 4 * sigma

    def test_same_seed_same_stream(self):
        a = rw.direction_codes(7, 3, 1000)
        b = rw.direction_codes(7, 3, 1000)
        assert np.array_equal(a, b)

    def test_trials_have_distinct_streams(self):
        a = rw.direction_codes(7, 0, 64)
        b = rw.direction_codes(7, 1, 64)
        assert not np.array_equal(a, b)

    def test_scalar_draws_match_vector_draws(self):
        gen = rw.trial_generator(11, 5)
        scalar = [int(gen.integers(0, 4)) for _ in range(257)]
        assert scalar == list(rw.direction_codes(11, 5, 257))


class TestSimulate:
    def test_zero_horizon(self):
        summary = wk.simulate(CONST1, 0, 0)
        assert summary.final == wk.WalkState(0, 0, 0)

    def test_one_step_norm(self):
        for seed in range(8):
            s = wk.simulate(CONST1, 1, seed)
            assert abs(s.final.x) + abs(s.final.y) == 1

    def test_two_step_with_unequal_sizes_never_returns(self):
        seq = sq.make_sequence("explicit-list", values=[1, 2])
        for seed in range(32):
            s = wk.simulate(seq, 2, seed)
            assert abs(s.final.x) + abs(s.final.y) in (1, 3)

    def test_horizon_exceeding_explicit_list(self):
        seq = sq.make_sequence("explicit-list", values=[1, 2])
        with pytest.raises(ParameterError):
            wk.simulate(seq, 3, 0)

    def test_fast_path_matches_streaming(self):
        seq = sq.make_sequence("floor-power", gamma=Fraction(1, 2))
        for seed in range(6):
            fast = wk.simulate(seq, 50, seed)
            slow = wk.simulate(seq, 50, seed, visitor=lambda *a: None)
            assert fast.final == slow.final
            assert fast.horizontal_steps == slow.horizontal_steps

    def test_streamed_states_recompose_exactly(self):
        seq = sq.make_sequence("floor-power", gamma=1)
        summary, rec = wk.simulate_recording(seq, 200, 5)
        x = y = 0
        for n, (rn, rx, ry, a, kappa, eps) in enumerate(rec.rows, 1):
            dx = a * eps if kappa else 0
            dy = 0 if kappa else a * eps
            x += dx
            y += dy
            assert (rn, rx, ry) == (n, x, y)
        assert (summary.final.x, summary.final.y) == (x, y)

    def test_conservation_of_step_counts(self):
        summary, rec = wk.simulate_recording(CONST1, 300, 9)
        kappas = [r[4] for r in rec.rows]
        assert sum(kappas) == summary.horizontal_steps
        assert sum(kappas) + sum(1 - k for k in kappas) == 300

    def test_norm_bounded_by_step_sum(self):
        seq = sq.make_sequence("floor-power", gamma=1)
        summary = wk.simulate(seq, 100, 3)
        budget = sum(seq.prefix(100))
        assert abs(summary.final.x) + abs(summary.final.y) <= 2 * budget

    def test_fractional_steps_exact_positions(self):
        seq = sq.make_sequence("explicit-list", values=[Fraction(1, 2), Fraction(1, 2)])
        summary = wk.simulate(seq, 2, 1, width_bits=None)
        assert isinstance(summary.final.x, (int, Fraction))
        assert (summary.final.x + summary.final.y).denominator in (1, 2)


class TestOverflowPolicy:
    BIG = 1 << 62

    def test_checked_width_raises_with_step(self):
        seq = sq.make_sequence("explicit-list", values=[self.BIG, self.BIG, self.BIG])
        with pytest.raises(PositionOverflowError) as exc:
            wk.simulate(seq, 3, 0)
        assert 1 <= exc.value.step <= 3

    def test_promotion_keeps_exact_values(self):
        seq = sq.make_sequence("explicit-list", values=[self.BIG] * 3)
        summary = wk.simulate(seq, 3, 0, width_bits=None)
        assert abs(summary.final.x) + abs(summary.final.y) in (self.BIG, 3 * self.BIG)

    def test_unbounded_width(self):
        seq = sq.make_sequence("explicit-list", values=[self.BIG] * 3)
        summary = wk.simulate(seq, 3, 0, width_bits=None)
        assert abs(summary.final.x) <= 3 * self.BIG

    def test_negative_width_rejected(self):
        with pytest.raises(ParameterError, match="width_bits"):
            wk.simulate(CONST1, 3, 0, width_bits=-3)

    def test_narrow_width_checked_even_for_small_steps(self):
        seq = sq.make_sequence("constant", value=100)
        found_overflow = False
        for seed in range(20):
            try:
                wk.simulate(seq, 10, seed, width_bits=8)  # bound 255
            except PositionOverflowError as exc:
                assert 1 <= exc.step <= 10
                found_overflow = True
        assert found_overflow


class TestVisitStatistics:
    def test_zero_horizon_counts_nothing(self):
        stats = wk.visit_statistics(CONST1, 0, 0, [(0, 0)])
        st = stats.stats_for((0, 0))
        assert st.count == 0 and st.first_hit is None

    def test_forced_return(self):
        seed = find_seed_with_codes([0, 1])  # +e1 then -e1
        stats = wk.visit_statistics(CONST1, 2, seed, [(0, 0)])
        st = stats.stats_for((0, 0))
        assert st.first_hit == 2
        assert st.count == 1
        assert st.min_sq_distance == 0

    def test_unreachable_target(self):
        stats = wk.visit_statistics(CONST1, 3, 1, [(10, 10)])
        assert stats.stats_for((10, 10)).count == 0

    def test_first_le_last_when_counted(self):
        stats = wk.visit_statistics(CONST1, 500, 12, [(0, 0), (1, 0)])
        for st in stats.per_target:
            if st.count > 0:
                assert st.first_hit <= st.last_hit
            assert st.count >= 0

    def test_threads_keep_their_own_buffers(self):
        # each thread reuses its own squared-distance buffers, of the longest
        # block it has walked: threads interleaving calls of several lengths
        # must count as one thread calling them one after another
        calls = [(n, seed) for n in (40_000, 300, 20_000) for seed in range(4)]

        def run(call):
            n, seed = call
            return wk.visit_statistics(CONST1, n, seed, [(0, 0), (2, -1)]).per_target

        want = list(map(run, calls))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(run, calls))
        finally:
            sys.setswitchinterval(interval)
        assert got == want


class TestMonteCarloReturn:
    def test_impossible_return_is_zero(self):
        seq = sq.make_sequence("explicit-list", values=[1, 2])
        est = wk.monte_carlo_return(seq, 2, 500, 4, (0, 0))
        assert est.successes == 0

    def test_single_trial_is_zero_or_one(self):
        est = wk.monte_carlo_return(CONST1, 2, 1, 9, (0, 0))
        assert est.estimate in (0.0, 1.0)

    def test_estimate_identity_and_ci(self):
        est = wk.monte_carlo_return(CONST1, 2, 4000, 10, (0, 0))
        assert est.estimate == est.successes / est.trials
        assert est.ci.low <= est.estimate <= est.ci.high

    def test_rejects_zero_trials(self):
        with pytest.raises(ParameterError):
            wk.monte_carlo_return(CONST1, 2, 0, 0, (0, 0))

    def test_reproducible_and_worker_invariant(self):
        a = wk.monte_carlo_return(CONST1, 4, 3000, 77, (0, 0), workers=1)
        b = wk.monte_carlo_return(CONST1, 4, 3000, 77, (0, 0), workers=4)
        assert a.successes == b.successes
        assert a.to_json_dict() == b.to_json_dict()

    @pytest.mark.parametrize(
        "values,horizon,target",
        [([1, 1], 2, (0, 0)), ([1, 1, 1], 3, (1, 0)), ([1, 2, 2], 3, (0, 0))],
    )
    def test_within_four_sigma_of_exact(self, values, horizon, target):
        seq = sq.make_sequence("explicit-list", values=values)
        p = exact.hit_probability_2d(values, target, horizon)
        trials = 40_000
        est = wk.monte_carlo_return(seq, horizon, trials, 2024, target)
        sigma = (float(p) * (1 - float(p)) / trials) ** 0.5
        assert abs(est.estimate - float(p)) <= 4 * sigma + 1e-12

    def test_exact_steps_match_int64_steps(self):
        # object-array walks (fractional or huge steps) see the same codes
        halves = sq.make_sequence("constant", value=Fraction(1, 2))
        huge = sq.make_sequence("constant", value=1 << 61)
        for trials, seed in ((300, 5), (257, 6)):
            want = wk.monte_carlo_return(CONST1, 6, trials, seed, (1, 1)).successes
            got = wk.monte_carlo_return(halves, 6, trials, seed, (Fraction(1, 2), Fraction(1, 2)))
            assert got.successes == want
            got = wk.monte_carlo_return(huge, 6, trials, seed, (1 << 61, 1 << 61))
            assert got.successes == want
            # off the lattice of the steps: never visited
            assert wk.monte_carlo_return(halves, 6, trials, seed, (Fraction(1, 4), 0)).successes == 0

    def test_python_fallback_for_fractional_steps(self):
        seq = sq.make_sequence("explicit-list", values=[Fraction(1, 2), Fraction(1, 2)])
        est = wk.monte_carlo_return(seq, 2, 400, 3, (0, 0))
        exact_p = exact.hit_probability_2d([Fraction(1, 2)] * 2, (0, 0), 2)
        assert abs(est.estimate - float(exact_p)) < 0.1


class TestStepArray:
    """The steps every walk takes: ``StepSequence.lattice``."""

    @pytest.mark.parametrize(
        "seq",
        [
            CONST1,
            sq.make_sequence("constant", value=7),
            sq.make_sequence("floor-power", gamma=1),
            sq.make_sequence("floor-power", gamma=3),
            sq.make_sequence("floor-power", gamma=Fraction(3, 2)),
            sq.make_sequence("explicit-list", values=[3, 1, 4, 1, 5, 9, 2, 6] * 30),
        ],
    )
    def test_closed_forms_match_values(self, seq):
        for n in (0, 1, 2, 239):
            arr, scale = seq.lattice(n)
            assert arr.dtype == np.int64 and scale == 1
            assert arr.tolist() == [seq.value(i) for i in range(1, n + 1)]

    def test_int64_bound_is_exact(self):
        def dtype(seq, n):
            arr, scale = seq.lattice(n)
            assert scale == 1
            assert arr.tolist() == [seq.value(i) for i in range(1, n + 1)]
            return arr.dtype

        limit = sq.INT64_STEP_SUM
        assert dtype(sq.make_sequence("constant", value=limit // 4), 4) == np.int64
        assert dtype(sq.make_sequence("constant", value=limit // 4 + 1), 4) == object
        # 1 + 2**61 fits, 1 + 2**62 does not; one step of 1**q always does
        assert dtype(sq.make_sequence("floor-power", gamma=61), 2) == np.int64
        assert dtype(sq.make_sequence("floor-power", gamma=62), 2) == object
        assert dtype(sq.make_sequence("floor-power", gamma=500), 1) == np.int64
        # past the closed form's bound n**(q+1), the exact sum still decides
        assert dtype(sq.make_sequence("floor-power", gamma=20), 8) == np.int64
        assert dtype(sq.make_sequence("explicit-list", values=[limit, 1]), 1) == np.int64
        assert dtype(sq.make_sequence("explicit-list", values=[limit, 1]), 2) == object

    def test_explicit_lists_are_sliced(self):
        limit = sq.INT64_STEP_SUM
        for values, n, dtype, scale in (
            ([3, 1, 4, 1, 5], 4, np.int64, 1),
            ([limit, 1, 2], 3, object, 1),
            ([2, Fraction(1, 3), 5], 3, np.int64, 3),
            ([Fraction(1, 2), 2**62, Fraction(1, 3)], 3, object, 6),
        ):
            arr, got_scale = sq.make_sequence("explicit-list", values=values).lattice(n)
            assert (arr.dtype, got_scale) == (dtype, scale)
            assert arr.tolist() == [v * scale for v in values[:n]]
            assert {type(a) for a in arr.tolist()} == {int}

    def test_fractional_steps_stay_exact(self):
        half = sq.make_sequence("constant", value=Fraction(1, 2))
        assert half.lattice(3)[0].tolist() == [1] * 3 and half.lattice(3)[1] == 2
        root = sq.make_sequence("real-power", alpha=Fraction(1, 2))
        for n in (1, 3):  # the scale is 2**64 also where every value is whole
            arr, scale = root.lattice(n)
            assert scale == 1 << 64
            assert [Fraction(a, scale) for a in arr.tolist()] == [root.value(i) for i in range(1, n + 1)]

    def test_plan_steps_match_values(self):
        p23, p35 = cn.positive_bezout(2, 3), cn.positive_bezout(3, 5)
        r0 = cn.RoundPlan(0, p23, 7, 0, 7 * p23.period, 0, 3)
        r1 = cn.RoundPlan(1, p35, 5, r0.n_end, r0.n_end + 5 * p35.period, 4, 5)
        for rounds in ((r0,), (r0, r1)):
            seq = cn.ConstructionPlan(rounds, "inconclusive", 0, 0.95, 16, "coarse").sequence()
            for n in (0, 1, 4, r0.n_end - 1, r0.n_end + 3, seq.length):
                if n > seq.length:
                    continue
                arr, scale = seq.lattice(n)
                assert arr.dtype == np.int64 and scale == 1
                assert arr.tolist() == [seq.value(i) for i in range(1, n + 1)]
        pattern = p23.pattern() * 7 + p35.pattern() * 5
        assert [seq.value(i) for i in range(1, seq.length + 1)] == pattern

    def test_horizon_checked(self):
        with pytest.raises(ParameterError, match="horizon must be >= 0"):
            CONST1.lattice(-1)
        with pytest.raises(ParameterError, match="horizon 3 exceeds the sequence length 2"):
            sq.make_sequence("explicit-list", values=[1, 2]).lattice(3)

    def test_unallocatable_steps_fail_by_name(self, monkeypatch):
        # 10**12 int64 steps need 7.3 TiB: the allocation is refused, not made
        class NoFull:
            def __getattr__(self, name):
                return getattr(np, name)

            def full(self, *args, **kwargs):
                raise MemoryError

        monkeypatch.setattr(sq, "np", NoFull())
        with pytest.raises(ParameterError, match=r"^horizon 1000000000000: the step array does not fit"):
            wk.simulate(CONST1, 10**12, 0)


class TestRotatedKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=3),
        st.booleans(),
    )
    def test_rotated_coordinates_recompose_positions(self, values, seed, trial, drop_last):
        # odd and even horizons: the last word of an odd horizon is half used
        n = len(values) - 1 if drop_last and len(values) > 1 else len(values)
        seq = sq.make_sequence("explicit-list", values=values)
        _, rec = wk.simulate_recording(seq, n, seed, trial=trial)
        reader = rw.CodeReader(rw._philox_key(seed))
        reader.seek(trial)
        steps = np.array(values[:n], dtype=np.int64)
        out = np.empty((1, n, 2), dtype=np.int64)
        uv = wk._rotated(steps, reader.read(n)[None], out)
        assert uv is out
        got = [((a + b) // 2, (a - b) // 2) for a, b in uv[0].tolist()]
        assert got == [rec.position_at(k) for k in range(1, n + 1)]

    @pytest.mark.parametrize(
        "values, dtype, batch_steps, trials",
        [
            ([3, 1, 4, 1, 5, 9, 2, 6], np.int64, 40, range(2, 13)),  # 5 rows a batch, 1 left over
            ([3, 1, 4, 1, 5, 9, 2], np.int64, 1 << 16, range(4)),  # one batch of four rows
            ([2**62, 1, 3], object, 7, range(5)),  # two rows a batch
            ([Fraction(1, 2), Fraction(1, 3), 2, Fraction(5, 7)], object, 9, range(1, 8)),
            ([2**30 - 9, 1, 4, 1, 5], np.int32, 15, range(3, 9)),  # int32, 3 rows a batch
        ],
    )
    def test_matches_step_by_step_walk(self, values, dtype, batch_steps, trials):
        # batches as the trial loop cuts them, each walked into one reused buffer
        steps = np.array(values, dtype=dtype)
        n = len(values)
        rows = max(1, min(len(trials), batch_steps // n))
        reader = rw.CodeReader(rw._philox_key(17))
        codes, out = np.empty((rows, n), dtype=np.uint8), np.empty((rows, n, 2), dtype=dtype)
        moves = {0: (1, 0), 1: (-1, 0), 2: (0, 1), 3: (0, -1)}
        seen = []
        for lo in range(trials.start, trials.stop, rows):
            batch = range(lo, min(lo + rows, trials.stop))
            reader.fill(batch, codes[: len(batch)])
            uv = wk._rotated(steps, codes[: len(batch)], out[: len(batch)])
            assert uv.shape == (len(batch), n, 2)
            assert uv.dtype == steps.dtype
            u, v = uv[..., 0], uv[..., 1]
            for r, t in enumerate(batch):
                x = y = 0
                want_u, want_v = [], []
                for a, code in zip(values, rw.direction_codes(17, t, n).tolist()):
                    x, y = x + a * moves[code][0], y + a * moves[code][1]
                    want_u.append(x + y)
                    want_v.append(x - y)
                assert u[r].tolist() == want_u and v[r].tolist() == want_v, t
            seen += list(batch)
        assert seen == list(trials)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("rows, n", [(1, 1), (1, 1001), (2, 7), (3, 8), (64, 33), (65, 1000)])
    def test_unit_route_matches_the_multiply_route(self, dtype, rows, n):
        codes = np.random.default_rng(rows * n).integers(0, 4, (rows, n), dtype=np.uint8)
        ones = np.ones(n, dtype=dtype)
        want = wk._rotated(ones, codes, np.empty((rows, n, 2), dtype=dtype))
        got = wk._rotated(ones, codes, np.full((rows, n, 2), 7, dtype=dtype), unit=True)
        assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("batch_steps", [40, 24, 7, 1 << 16])
    def test_batches_cover_each_chunk_once(self, monkeypatch, batch_steps):
        # 5, 3, 1 and 256 rows a batch: the chunks of 256, 256 and 88 trials
        # end in a shorter batch where the rows do not divide them
        monkeypatch.setattr(wk, "BATCH_STEPS", batch_steps)

        def score(uv):
            assert 1 <= len(uv) <= max(1, batch_steps // 8)
            assert uv.shape[1:] == (8, 2) and uv.dtype == np.int32
            return _ends(uv)

        got = wk._walk_trials(8, lambda: np.ones(8, dtype=np.int64), 600, 17, score,
                              combine=_concat)
        assert got == [_reference_end([1] * 8, rw.direction_codes(17, t, 8)) for t in range(600)]

    @pytest.mark.parametrize("n", [1, 7, 8, 1000])
    def test_fill_matches_direction_codes(self, n):
        reader = rw.CodeReader(rw._philox_key(23))
        # a first batch, a shorter one on the same buffer, then a new horizon
        for trials, width in [(range(3, 9), n), (range(40, 42), n), (range(0, 4), n + 1)]:
            codes = np.full((len(trials), width), 9, dtype=np.uint8)
            reader.fill(trials, codes)
            for row, t in zip(codes.tolist(), trials):
                assert row == rw.direction_codes(23, t, width).tolist(), (t, width)

    @pytest.mark.parametrize("trials", [1, 255, 256, 257, 513])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_batched_equals_unbatched(self, monkeypatch, trials, workers):
        floor1 = sq.make_sequence("floor-power", gamma=1)
        pair = cn.positive_bezout(2, 3)

        def outputs():
            return (
                wk.monte_carlo_return(CONST1, 6, trials, 31, (0, 0), workers=workers).successes,
                wk.monte_carlo_return(floor1, 7, trials, 32, (1, 0), workers=workers).successes,
                vf.hitting_time_experiment(
                    2, trials=trials, master_seed=33, workers=workers
                ).successes,
                vf.hitting_time_experiment(
                    2, trials=trials, master_seed=34, workers=workers, start_mode="ring"
                ).successes,
                cn.estimate_N0(
                    pair, 1, trials=trials, master_seed=35, horizon_cap=32, workers=workers
                ).to_json_dict(),
            )

        batched = outputs()
        monkeypatch.setattr(wk, "BATCH_STEPS", 1)  # one trial per batch
        assert outputs() == batched


def _ends(uv):
    """Per trial of a batch: (u, v) after its last step."""
    return [tuple(e) for e in uv[:, -1].tolist()]


def _reference_end(values, codes):
    """(u, v) after the last step from the origin, walked in Python ints."""
    x, y = _python_walk(values, codes.tolist(), (0, 0))[-1]
    return x + y, x - y


def _concat(parts):
    return sum(parts, [])


class TestTrialDriver:
    VALUES = [3, 1, 4, 1, 5, 9, 2]
    TRIALS = 600  # three chunks of trials: 256, 256 and 88

    def steps(self):
        return np.array(self.VALUES, dtype=np.int64)

    def reference_ends(self, seed):
        """(u, v) after the last step, trial by trial, from the reference draws."""
        n = len(self.VALUES)
        return [_reference_end(self.VALUES, rw.direction_codes(seed, t, n)) for t in range(self.TRIALS)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scores_every_trial_once_in_order(self, monkeypatch, workers):
        monkeypatch.setattr(wk, "BATCH_STEPS", 7 * 50)  # 50 rows a batch, several a chunk
        got = wk._walk_trials(7, self.steps, self.TRIALS, 11, _ends, workers=workers, combine=_concat)
        assert got == self.reference_ends(11)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_combine_max(self, monkeypatch, workers):
        monkeypatch.setattr(wk, "BATCH_STEPS", 7 * 50)
        want = max(abs(u) for u, _ in self.reference_ends(12))
        got = wk._walk_trials(
            7, self.steps, self.TRIALS, 12, lambda uv: int(np.abs(uv[:, -1, 0]).max()),
            workers=workers, combine=max,
        )
        assert got == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_custom_codes_of(self, workers):
        # trial t always moves in direction t mod 4, whatever its stream holds
        readers = {}  # kept alive, so that no two share an id

        def codes_of(reader, t):
            assert isinstance(reader, rw.CodeReader)
            readers[id(reader)] = reader
            return np.full(7, t % 4, dtype=np.uint8), 0  # no start: any index

        got = wk._walk_trials(
            7, self.steps, self.TRIALS, 13, _ends, workers=workers, codes_of=codes_of,
            combine=_concat,
        )
        s = sum(self.VALUES)
        signs = [(1, 1), (-1, -1), (1, -1), (-1, 1)]
        assert got == [(s * signs[t % 4][0], s * signs[t % 4][1]) for t in range(self.TRIALS)]
        assert len(readers) == 3  # one reader per chunk

    def test_workers_do_not_change_the_result(self):
        runs = [
            wk._walk_trials(7, self.steps, self.TRIALS, 14, _ends, workers=w, combine=_concat)
            for w in (1, 2)
        ]
        assert runs[0] == runs[1]

    def test_seed_checked_before_the_steps_are_built(self):
        def steps():
            raise AssertionError("steps built before the seed was checked")

        with pytest.raises(ParameterError, match="master seed"):
            wk._walk_trials(7, steps, 5, -1, _ends)

    def test_unallocatable_steps_fail_by_name(self):
        def steps():
            raise MemoryError

        with pytest.raises(ParameterError, match="horizon 7: the walk arrays do not fit"):
            wk._walk_trials(7, steps, 5, 0, _ends)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unallocatable_kernel_buffers_fail_by_name(self, monkeypatch, workers):
        def no_buffers(*args):
            raise MemoryError

        monkeypatch.setattr(wk, "_rotated", no_buffers)
        with pytest.raises(ParameterError, match="horizon 27: "):
            vf.hitting_time_experiment(3, trials=300, master_seed=0, workers=workers)
        with pytest.raises(ParameterError, match="horizon 40: "):
            wk.monte_carlo_return(CONST1, 40, 300, 0, workers=workers)

    def test_only_walk_runs_trials(self):
        """The trial protocol (readers, chunks, the kernel) lives in the driver."""

        def calls(tree):
            return {
                node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
            }

        for mod in (cn, vf):
            tree = ast.parse(inspect.getsource(mod))
            assert not calls(tree) & {"_rotated", "reader", "map_trial_chunks", "CodeReader"}
            imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
            assert "_rotated" not in imported, mod.__name__
        walk = ast.parse(inspect.getsource(wk))
        kernel_callers = {
            fn.name for fn in walk.body
            if isinstance(fn, ast.FunctionDef) and "_rotated" in calls(fn)
        }
        assert kernel_callers == {"_walk_trials", "simulate"}

    def test_walk_takes_its_steps_from_lattice(self):
        """Step sizes become ints in sequences alone: walk does not know the families."""
        tree = ast.parse(inspect.getsource(wk))
        imported = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        imported |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert "construction" not in imported
        assert not {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)} & {"kind", "params"}
        called = {getattr(n.func, "id", getattr(n.func, "attr", "")) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        assert "scaled_ints" not in called and "lattice" in called


INT32_EDGE = [1 << 29] * 3 + [(1 << 29) - 1]  # sums to 2**31 - 1: the last int32 walk
INT64_EDGE = [1 << 29] * 4  # sums to 2**31: walks on int64


def _reference_successes(values, seed, trials, target, codes_of=None):
    """Trials visiting ``target`` at some step, walked in Python ints from the
    reference direction codes, or from ``codes_of(t)``."""
    moves = {0: (1, 0), 1: (-1, 0), 2: (0, 1), 3: (0, -1)}
    codes_of = codes_of or (lambda t: rw.direction_codes(seed, t, len(values)))
    hits = 0
    for t in range(trials):
        x = y = 0
        seen = False
        for a, c in zip(values, codes_of(t).tolist()):
            x, y = x + a * moves[c][0], y + a * moves[c][1]
            seen = seen or (x, y) == target
        hits += seen
    return hits


class TestInt32Positions:
    """Walks whose steps sum below 2**31 run on int32 positions; the hit test
    must count exactly what exact arithmetic counts, on both sides of the edge."""

    TRIALS = 600

    @pytest.mark.parametrize("values", [INT32_EDGE, INT64_EDGE])
    @pytest.mark.parametrize("target", ["origin", "two steps", "far end"])
    def test_hits_match_a_python_walk(self, values, target):
        at = {"origin": (0, 0), "two steps": (1 << 29, -(1 << 29)), "far end": (sum(values), 0)}[target]
        seq = sq.make_sequence("explicit-list", values=values)
        want = _reference_successes(values, 41, self.TRIALS, at)
        assert want > 0  # the far end (every step +e1) comes about once in 256 trials
        got = wk.monte_carlo_return(seq, len(values), self.TRIALS, 41, at).successes
        assert got == want

    def test_target_outside_int32_is_never_hit(self):
        # rotated u of (2**31, 2**31) is 2**32, which wraps to 0 in int32, v is 0
        seq = sq.make_sequence("explicit-list", values=INT32_EDGE)
        assert _reference_successes(INT32_EDGE, 42, self.TRIALS, (0, 0)) > 0
        assert wk.monte_carlo_return(seq, 4, self.TRIALS, 42, (1 << 31, 1 << 31)).successes == 0
        for far in [(1 << 62, -(1 << 62)), (-(1 << 62), -(1 << 62)), (1 << 63, 0)]:
            assert wk.monte_carlo_return(seq, 4, self.TRIALS, 42, far).successes == 0

    @pytest.mark.parametrize(
        "tu, tv", [(0, 0), (2, 2), (3, -1), (-(1 << 31), 0), (1 << 31, 0), (1 << 70, 0)]
    )
    @pytest.mark.parametrize("dtype", [np.int32, np.int64, object])
    def test_hits_agree_across_dtypes(self, dtype, tu, tv):
        # paths from the origin visit (tu, tv) where the same paths from
        # -(tu, tv) return to 0; a start past the dtype walks on a wider one
        uv = np.array([[[1, 1], [3, -1], [0, 0]], [[0, 0], [0, 1], [2, 2]]], dtype=object)
        moved = uv - np.array([tu, tv], dtype=object)
        if dtype is not object and np.iinfo(dtype).min <= moved.min() <= moved.max() <= np.iinfo(dtype).max:
            moved = moved.astype(dtype)
        for paths, seen in ((moved, uv), (moved[:, 1:], uv[:, 1:])):  # rows, and a slice as evaluate_plan takes
            want = sum([tu, tv] in row for row in seen.tolist())
            assert wk._returns(paths) == want

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_one_target_per_row(self, dtype):
        # rows walked from (-3, 0), (-3, 0) and (-2**30, 0): only the first
        # returns (at step 2), as only it passes (3, 0) from the origin
        codes = np.array([[0, 0, 2, 1], [1, 3, 3, 3], [0, 0, 0, 2]], dtype=np.uint8)
        points = [(-3, 0), (-3, 0), (-(1 << 30), 0)]
        starts = np.array([(x + y, x - y) for x, y in points], dtype=dtype)
        uv = wk._rotated(np.array([1, 2, 3, 4], dtype=dtype), codes, np.empty((3, 4, 2), dtype=dtype), starts)
        for row, c, p in zip(uv.tolist(), codes.tolist(), points):
            assert row == [[x + y, x - y] for x, y in _python_walk([1, 2, 3, 4], c, p)]
        assert wk._returns(uv) == 1


def _python_walk(values, codes, start):
    """The (x, y) positions after each step from ``start``, in Python ints."""
    moves = {0: (1, 0), 1: (-1, 0), 2: (0, 1), 3: (0, -1)}
    x, y = start
    out = []
    for a, c in zip(values, codes):
        x, y = x + a * moves[c][0], y + a * moves[c][1]
        out.append((x, y))
    return out


class TestStarts:
    """A walk from ``start`` returns to the origin exactly where the same
    walk from the origin visits ``-start``: the kernel adds the rotated start
    before the cumsum and :func:`_returns` counts the rows at 0."""

    ROWS = 96

    @pytest.mark.parametrize(
        "dtype, values",
        [
            (np.int32, [1, 2, 1, 1, 3, 1, 2, 1, 1, 1]),
            (np.int64, [1, 2, 1, 1, 3, 1, 2, 1, 1, 1]),
            (object, [1, 2, 1, 1 << 62, 1 << 62, 1, 2, 1, 1, 1]),
        ],
    )
    @pytest.mark.parametrize("per_row", [False, True])
    def test_returns_match_a_python_walk(self, dtype, values, per_row):
        n = len(values)
        codes = np.random.default_rng(n).integers(0, 4, (self.ROWS, n), dtype=np.uint8)
        points = [(1, 0), (-1, 1), (2, 0), (0, -3)]
        starts = [points[r % 4] if per_row else (1, 0) for r in range(self.ROWS)]
        rotated = np.array([(x + y, x - y) for x, y in starts], dtype=dtype)
        at = rotated if per_row else rotated[0]
        uv = wk._rotated(np.array(values, dtype=dtype), codes, np.empty((self.ROWS, n, 2), dtype=dtype), at)
        walks = [_python_walk(values, row, s) for row, s in zip(codes.tolist(), starts)]
        for lo, hi in [(0, n), (0, 3), (2, 7), (6, n)]:  # whole rows, and evaluate_plan's slices
            want = sum((0, 0) in w[lo:hi] for w in walks)
            assert want > 0 and wk._returns(uv[:, lo:hi]) == want, (lo, hi)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_per_trial_starts_through_codes_of(self, workers):
        values, points = [1, 2, 1, 1, 3, 1, 2, 1], [(1, 0), (-1, 1), (3, 0)]

        def codes_of(reader, t):
            return rw.direction_codes(47, t, len(values)), t % 3

        got = wk._walk_trials(
            len(values), lambda: np.array(values, dtype=np.int64), 600, 47, wk._returns,
            start=points, workers=workers, codes_of=codes_of,
        )
        walks = [_python_walk(values, rw.direction_codes(47, t, len(values)).tolist(), points[t % 3])
                 for t in range(600)]
        want = sum((0, 0) in w for w in walks)
        assert want > 0 and got == want

    def test_zero_horizon_with_a_start(self, capsys):
        for dtype in (np.int32, np.int64, object):
            uv = wk._rotated(np.zeros(0, dtype=dtype), np.zeros((3, 0), dtype=np.uint8),
                             np.empty((3, 0, 2), dtype=dtype), np.array([1, -1], dtype=dtype))
            assert uv.shape == (3, 0, 2) and wk._returns(uv) == 0
        for target in [(0, 0), (1, 0), (0, 5)]:
            assert wk.monte_carlo_return(CONST1, 0, 5, 0, target).successes == 0
        assert cli.main(["mc-return", "--seq", '{"family":"constant","params":{"value":1}}',
                         "--n", "0", "--trials", "5", "--target", "1,0"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["record"]["successes"] == 0

    @pytest.mark.parametrize(
        "values, target, dtype",
        [
            # |start| + sum(a) = 2**31 - 1: the last int32 walk; 2**31: int64
            ([1 << 29, 1 << 29, (1 << 29) - 1], (1 << 29, 0), np.int32),
            ([1 << 29, 1 << 29, 1 << 29], (1 << 29, 0), np.int64),
            # |start| + sum(a) = 2**63: past int64, walked as exact objects
            ([1 << 61, 1 << 61], (-(1 << 62), 0), object),
            ([1 << 61, 1 << 61], (1 << 61, -(1 << 61)), object),
            ([1 << 61, 1 << 61], (1 << 61, 0), np.int64),
        ],
    )
    def test_the_start_counts_in_the_dtype_rules(self, monkeypatch, values, target, dtype):
        want = _reference_successes(values, 48, 300, target)
        calls = _spy_kernel(monkeypatch)
        got = wk.monte_carlo_return(_explicit(values), len(values), 300, 48, target).successes
        assert want > 0 and got == want
        assert {(steps, uv) for steps, _, uv, _ in calls} == {(np.dtype(dtype), np.dtype(dtype))}

    @pytest.mark.parametrize("values", [INT32_EDGE, INT64_EDGE, [1 << 61, 1 << 61, 1, 1]])
    def test_targets_past_the_steps_sum_walk_without_a_start(self, monkeypatch, values):
        total = sum(values)
        starts = []
        kernel = wk._rotated

        def spy(steps, codes, out, start=None, *args):
            starts.append(start)
            return kernel(steps, codes, out, start, *args)

        monkeypatch.setattr(wk, "_rotated", spy)
        seq = _explicit(values)
        for far in [(total + 1, 0), (total, 1), (0, -total - 1), (1 << 63, 0), (1 << 70, -1)]:
            assert wk.monte_carlo_return(seq, len(values), 300, 49, far).successes == 0, far
        assert starts and all(s is None for s in starts)
        # at the steps' sum the start is taken, and the far end is reached
        assert wk.monte_carlo_return(seq, len(values), 300, 49, (total, 0)).successes == \
            _reference_successes(values, 49, 300, (total, 0))


class TestTargetParam:
    @pytest.mark.parametrize(
        "target",
        [("x", 0), (1,), (1, 2, 3), (True, 0), (0, False), (0, None), 5, "ab", None,
         (float("nan"), 0), (0, float("inf")), (1j, 0), (np.float32(0.5), 0)],
        ids=repr,
    )
    def test_refused_by_name(self, target):
        with pytest.raises(ParameterError, match=r"^target must be a point \(x, y\)"):
            wk.monte_carlo_return(CONST1, 4, 5, 0, target)

    def test_ints_fractions_and_floats_keep_working(self):
        halves = _explicit([Fraction(1, 2)] * 6)
        runs = [wk.monte_carlo_return(halves, 6, 200, 3, t) for t in
                [(1, 0), (Fraction(1), 0), (1.0, 0.0), (np.int64(1), np.int64(0)), (Fraction(2, 2), -0.0)]]
        assert len({r.successes for r in runs}) == 1 and runs[0].successes > 0
        assert wk.monte_carlo_return(halves, 6, 200, 3, (0.5, 0)).successes > 0
        assert wk.monte_carlo_return(halves, 6, 200, 3, (0.25, 0)).successes == 0  # off the lattice
        assert runs[0].to_json_dict()["params"]["target"] == [1, 0]


FLOOR1 = sq.make_sequence("floor-power", gamma=1)
FLOOR2 = sq.make_sequence("floor-power", gamma=2)
PAIR23 = cn.positive_bezout(2, 3)
#: Steps summing to 2**32 whose walks spread to 8 sigma = 2**29: checked int32.
CHECKED = [1 << 20] * 4096


def _explicit(values):
    return sq.make_sequence("explicit-list", values=values)


def _mc_long_build():
    """The benchmark's build job, at 2 trials a search."""
    prefix = cn.GoodSetPrefix([2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
    return cn.build_recurrent_sequence(prefix, 2, trials=2, horizon_cap=1 << 14)


@pytest.fixture(scope="module")
def mc_long_plan():
    return _mc_long_build()[0]


def _mc(values, n, trials):
    return wk.monte_carlo_return(_explicit(values), n, trials, 0)


#: (run of a plan, the steps' dtype the kernel gets, whether it checks them,
#: whether it takes the unit-step route)
KERNEL_STEPS = {
    "int32-edge": (lambda plan: _mc(INT32_EDGE, 4, 300), np.int32, False, False),
    "int64-edge": (lambda plan: _mc(INT64_EDGE, 4, 300), np.int64, False, False),
    "checked-edge": (lambda plan: _mc(CHECKED, 4096, 3), np.int32, True, False),
    # the job shapes of the benchmark's mc_long workload, at its horizons
    "hit_r10": (lambda plan: vf.hitting_time_experiment(10, trials=3), np.int32, False, True),
    "mc_floor1": (lambda plan: wk.monte_carlo_return(FLOOR1, 10**5, 2, 0), np.int32, True, False),
    "n0_23": (lambda plan: cn.estimate_N0(PAIR23, 0, trials=2, horizon_cap=1 << 14), np.int32, False, False),
    "build": (lambda plan: _mc_long_build(), np.int32, False, False),
    "evaluate": (lambda plan: cn.evaluate_plan(plan, 2, 0), np.int32, False, False),
    # a_n = n**2 spreads past int32: int64 from the start
    "floor2": (lambda plan: wk.monte_carlo_return(FLOOR2, 10**5, 2, 0), np.int64, False, False),
    "simulate-int32-edge": (lambda plan: wk.simulate(_explicit(INT32_EDGE), 4, 0), np.int64, False, False),
    "simulate-checked": (lambda plan: wk.simulate(_explicit(CHECKED), 4096, 0), np.int64, False, False),
}


def _spy_kernel(monkeypatch) -> list:
    """Per :func:`_rotated` call: the steps' dtype, whether it was asked for
    the checked walk (a ``limit``), the dtype of the positions it returned,
    and whether it took the unit-step route.  Every argument passes through
    to the kernel."""
    calls = []
    kernel = wk._rotated
    signature = inspect.signature(kernel)

    def spy(*args, **kwargs):
        uv = kernel(*args, **kwargs)
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        calls.append((a["steps"].dtype, a["limit"] != 0, uv.dtype, a["unit"]))
        return uv

    monkeypatch.setattr(wk, "_rotated", spy)
    return calls


class TestKernelSteps:
    """A guard on the fast paths: each walk reaches the kernel on the dtype
    the narrowing rule gives it, and on the unit-step route exactly when its
    steps are all 1, so a silent fall back to int64 or to the multiply fails
    here."""

    @pytest.mark.parametrize("case", sorted(KERNEL_STEPS))
    def test_kernel_gets_the_narrowed_steps(self, monkeypatch, mc_long_plan, case):
        run, dtype, checked, unit = KERNEL_STEPS[case]
        calls = _spy_kernel(monkeypatch)
        run(mc_long_plan)
        assert calls
        for steps_dtype, limit, walked, route in calls:
            assert (steps_dtype, limit, route) == (dtype, checked, unit)
            assert walked == dtype  # none was walked twice
        if case in ("int32-edge", "int64-edge"):
            assert len(calls) == 2  # one batch per chunk of 300 trials


class TestCheckedInt32Walk:
    """Walks under the check count exactly what exact arithmetic counts, also
    when a batch leaves the range and is walked again on int64."""

    TRIALS = 48  # three batches of 16 rows

    @pytest.mark.parametrize("target", [(0, 0), (1 << 30, 0)])
    def test_a_batch_out_of_range_is_walked_again(self, monkeypatch, target):
        # from -target: 2**30 + max(a) + 8 sigma = 2**30 + 2**20 + 2**29 < 2**31
        n = len(CHECKED)
        east = np.zeros(n, dtype=np.uint8)  # trials 16..19 move +e1 all the way to (2**32, 0)

        def codes(t):
            return east if 16 <= t < 20 else rw.direction_codes(43, t, n)

        want = _reference_successes(CHECKED, 43, self.TRIALS, target, codes)
        assert want >= (4 if target == (1 << 30, 0) else 1)
        calls = _spy_kernel(monkeypatch)
        got = wk._walk_trials(
            n, lambda: np.array(CHECKED, dtype=np.int64), self.TRIALS, 43, wk._returns,
            start=[(-target[0], -target[1])], codes_of=lambda reader, t: (codes(t), 0),
        )
        assert got == want
        assert calls == [
            (np.int32, True, np.int32, False), (np.int32, True, np.int64, False),
            (np.int32, True, np.int32, False),
        ]

    def test_a_wrap_inside_the_range_is_walked_again(self, monkeypatch):
        # steps of 2**20 + 1 all along +e1 pass 2**31 by 2048, which int32 wraps
        # to -2**31 + 2048, inside +-(2**31 - 1): only the max(a) margin of the
        # checked range catches the step before it
        values = [(1 << 20) + 1] * 4096
        east = np.zeros(len(values), dtype=np.uint8)
        far = [sum(values), sum(values)]  # (u, v) of (sum, 0)
        calls = _spy_kernel(monkeypatch)
        got = wk._walk_trials(
            len(values), lambda: np.array(values, dtype=np.int64), 16, 45,
            lambda uv: int((uv[:, -1] == far).all(axis=1).sum()), codes_of=lambda reader, t: (east, 0),
        )
        assert got == 16
        assert calls == [(np.int32, True, np.int64, False)]

    @pytest.mark.parametrize("target", [(0, 0), (1 << 32, 0), (1 << 20, -(1 << 20))])
    def test_random_codes_match_a_python_walk(self, target):
        want = _reference_successes(CHECKED, 44, self.TRIALS, target)
        got = wk.monte_carlo_return(_explicit(CHECKED), len(CHECKED), self.TRIALS, 44, target)
        assert got.successes == want


@pytest.mark.parametrize("workers", [0, -1, 2.5, True])
@pytest.mark.parametrize(
    "run",
    [
        lambda w: vf.hitting_time_experiment(0, trials=3, workers=w),  # starts at the origin
        lambda w: cn.estimate_N0(cn.positive_bezout(2, 3), 10**4, trials=3, workers=w),  # over budget
        lambda w: wk.monte_carlo_return(CONST1, 3, 5, 0, workers=w),
    ],
    ids=["hitting_at_origin", "estimate_N0_over_budget", "monte_carlo_return"],
)
def test_workers_checked_before_any_shortcut(run, workers):
    with pytest.raises(ParameterError, match="^workers must be"):
        run(workers)

class TestExports:
    def test_trajectory_csv_schema(self):
        _, rec = wk.simulate_recording(CONST1, 3, 2)
        buf = io.StringIO()
        rec.export_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,x,y,a_n,kappa,eps"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1" and first[3] == "1"

    @staticmethod
    def csv_reference(rec):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "x", "y", "a_n", "kappa", "eps"])
        writer.writerows(rec.rows)
        return buf.getvalue()

    @staticmethod
    def exported(rec):
        """``rec``'s CSV text and the number of lines of each write."""
        writes = []

        class Sink(io.StringIO):
            def write(self, text):
                writes.append(text.count("\n"))
                return super().write(text)

        buf = Sink()
        rec.export_csv(buf)
        return buf.getvalue(), writes

    @pytest.mark.parametrize(
        "seq, n",
        [
            (CONST1, 0),
            (CONST1, 300),  # negative coordinates
            (CONST1, wk.STREAM_CHUNK + 5),  # two writes
            (sq.make_sequence("constant", value=Fraction(3, 7)), 40),
            (sq.make_sequence("real-power", alpha=Fraction(1, 2), precision_bits=8), 40),
            (sq.make_sequence("explicit-list", values=[5, Fraction(1, 2), 2, Fraction(9, 4)]), 4),
        ],
    )
    def test_csv_matches_csv_writer(self, seq, n):
        _, rec = wk.simulate_recording(seq, n, 3)
        buf = io.StringIO()
        rec.export_csv(buf)
        assert buf.getvalue() == self.csv_reference(rec)

    @staticmethod
    def recorded(*walks, chunk=None):
        """One recorder fed the blocks of each ``(seq, n, seed, width_bits)``
        walk in turn, read ``chunk`` codes at a time; an overflow ends a walk."""
        rec = wk.TrajectoryRecorder()
        with pytest.MonkeyPatch.context() as mp:
            if chunk:
                mp.setattr(wk, "STREAM_CHUNK", chunk)
            for seq, n, seed, width_bits in walks:
                try:
                    wk.simulate(seq, n, seed, rec, width_bits=width_bits)
                except PositionOverflowError:
                    pass
        return rec

    HUGE = sq.make_sequence("constant", value=1 << 61)  # from 3 steps on, an object walk

    @pytest.mark.parametrize(
        "walks, chunk",
        [
            ([(CONST1, 2 * wk.STREAM_CHUNK + 5, 3, 63)], None),  # three blocks
            ([(CONST1, 300, 3, 63)], None),  # negative coordinates
            # int64 extremes: 2**62 and -2**62 in x and in y, steps of 2**62 and 2**61
            (
                [(sq.make_sequence("explicit-list", values=[1 << 62]), 1, find_seed_with_codes([c]), 63)
                 for c in range(4)]
                + [(sq.make_sequence("constant", value=1 << 61), 2, find_seed_with_codes([c, c]), 63)
                   for c in range(4)],
                None,
            ),
            ([(sq.make_sequence("constant", value=100), 40, 0, 8)], 4),  # cut short by an overflow
            ([(HUGE, 40, 5, None)], None),  # object positions
            ([(sq.make_sequence("constant", value=Fraction(3, 7)), 40, 1, 63)], None),  # fractions
            ([(CONST1, 6, 1, 63), (HUGE, 5, 2, None), (CONST1, 7, 3, 63)], 4),  # int64 and object blocks
        ],
        ids=["blocks", "negative", "int64-extremes", "overflow", "object", "fractions", "mixed"],
    )
    @pytest.mark.parametrize("export_chunk", [None, 7], ids=["chunk-default", "chunk-7"])
    def test_export_routes_match_csv_writer(self, walks, chunk, export_chunk, monkeypatch):
        rec = self.recorded(*walks, chunk=chunk)
        rows = rec.rows
        assert len(rec) == len(rows)
        assert repr([rec.position_at(k) for k in range(len(rows) + 1)]) == repr(
            [(0, 0)] + [r[1:3] for r in rows]
        )
        with pytest.raises(ParameterError, match="^n must be >= 0"):
            rec.position_at(-1)
        with pytest.raises(ParameterError, match="trajectory covers"):
            rec.position_at(len(rows) + 1)
        if export_chunk:  # the export cuts at the recorded blocks, whatever STREAM_CHUNK reads now
            monkeypatch.setattr(wk, "STREAM_CHUNK", export_chunk)
        text, writes = self.exported(rec)
        assert text == self.csv_reference(rec)
        assert writes == [1] + [len(b.codes) for b in rec._blocks]

    def test_position_at_checks_n_by_name(self):
        _, rec = wk.simulate_recording(CONST1, 3, 2)
        for bad in (True, 2.5, "2"):
            with pytest.raises(ParameterError, match="^n must be an integer"):
                rec.position_at(bad)
        assert rec.position_at(np.int64(2)) == rec.rows[1][1:3]

    def test_each_chunk_takes_its_own_route(self, monkeypatch):
        rec = self.recorded((CONST1, 6, 1, 63), (self.HUGE, 5, 2, None), (CONST1, 7, 3, 63))
        calls, numpy_route = [], wk._csv_text
        monkeypatch.setattr(wk, "_csv_text", lambda *cols: calls.append(cols[0].tolist()) or numpy_route(*cols))
        buf = io.StringIO()
        rec.export_csv(buf)
        # one call per int64 block; the object walk's block goes through %s
        assert calls == [[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 7]]
        assert rec._rows is None  # and builds only its own row tuples
        assert buf.getvalue() == self.csv_reference(rec)

    def test_rows_are_built_once_and_rebuilt_after_a_block(self):
        rec = self.recorded((CONST1, 10, 1, 63))
        assert rec.rows is rec.rows
        with pytest.raises(AttributeError):
            rec.rows = []
        wk.simulate(CONST1, 3, 2, rec)
        assert len(rec.rows) == len(rec) == 13

    def test_csv_of_an_empty_recorder(self):
        buf = io.StringIO()
        wk.TrajectoryRecorder().export_csv(buf)
        assert buf.getvalue() == "n,x,y,a_n,kappa,eps\r\n"

    @pytest.mark.parametrize("chunk", [1, 7, 50, 64])
    def test_csv_writes_bounded_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(wk, "STREAM_CHUNK", chunk)
        for seq in (sq.make_sequence("constant", value=Fraction(1, 3)), CONST1):  # %s and numpy
            _, rec = wk.simulate_recording(seq, 50, 5)
            text, writes = self.exported(rec)
            assert text == self.csv_reference(rec)
            # one write per block, each of at most STREAM_CHUNK rows
            assert writes == [1] + [min(chunk, 50 - i) for i in range(0, 50, chunk)]

    def test_summary_json_carries_seed_metadata(self):
        summary = wk.simulate(CONST1, 5, 42)
        doc = summary.to_json_dict()
        assert doc["master_seed"] == 42
        assert doc["rng_id"] == rw.RNG_ID
        assert doc["seed_rule"] == rw.SEED_RULE_ID


# ---------------------------------------------------------------------------
# Blockwise streamed walks against the per-step walk they replaced
# ---------------------------------------------------------------------------


#: (dx, dy, kappa, eps) of direction codes 0:+e1, 1:-e1, 2:+e2, 3:-e2.
DIRECTIONS = ((1, 0, 1, 1), (-1, 0, 1, -1), (0, 1, 0, 1), (0, -1, 0, -1))


def reference_walk(seq, n, master_seed, *, trial=0, width_bits=63):
    """The per-step walk: ``(summary, states)`` with one ``(n, x, y, a_n,
    kappa, eps)`` row per step, or ``(error, states)`` when the width check
    fails, ``states`` then holding the steps before the failing one."""
    check = width_bits is not None
    bound = (1 << width_bits) - 1 if check else None
    steps = seq.prefix(n)
    codes = rw.direction_codes(master_seed, trial, n).tolist()
    x = y = 0
    kap = 0
    states = []
    for i, (code, a) in enumerate(zip(codes, steps), 1):
        dxv, dyv, kappa, eps = DIRECTIONS[code]
        x = x + a * dxv
        y = y + a * dyv
        kap += kappa
        if check and (abs(x) > bound or abs(y) > bound):
            return PositionOverflowError("overflow", step=i), states
        states.append((i, x, y, a, kappa, eps))
    return wk.WalkSummary(wk.WalkState(n, x, y), n, kap, master_seed, trial), states


def reference_visits(states, targets):
    out = []
    for t in targets:
        count, first, last, minsq = 0, None, None, None
        for i, x, y, *_ in states:
            dx = x - t[0]
            dy = y - t[1]
            sq_ = dx * dx + dy * dy
            if minsq is None or sq_ < minsq:
                minsq = sq_
            if sq_ == 0:
                count += 1
                last = i
                if first is None:
                    first = i
        out.append(wk.TargetVisitStats((t[0], t[1]), count, first, last, minsq))
    return tuple(out)


def run_blockwise(seq, n, seed, targets, trial=0, width_bits=63):
    """``(summary or error, recorded rows, visit statistics)`` of the streamed walk."""
    rec = wk.TrajectoryRecorder()
    try:
        result = wk.simulate(seq, n, seed, rec, trial=trial, width_bits=width_bits)
    except PositionOverflowError as exc:
        return exc, rec.rows, None
    stats = wk.visit_statistics(seq, n, seed, targets, trial=trial, width_bits=width_bits)
    again, rec2 = wk.simulate_recording(seq, n, seed, trial=trial, width_bits=width_bits)
    assert repr(again) == repr(result) and repr(rec2.rows) == repr(rec.rows)
    return result, rec.rows, stats.per_target


def assert_matches_reference(seq, n, seed, targets, trial=0, width_bits=63):
    want, states = reference_walk(seq, n, seed, trial=trial, width_bits=width_bits)
    got, rows, per_target = run_blockwise(seq, n, seed, targets, trial, width_bits)
    assert repr(rows) == repr(states)
    if isinstance(want, PositionOverflowError):
        assert isinstance(got, PositionOverflowError)
        assert got.step == want.step
        with pytest.raises(PositionOverflowError):
            wk.simulate(seq, n, seed, trial=trial, width_bits=width_bits)
        return
    assert got == want and repr(got) == repr(want)
    plain = wk.simulate(seq, n, seed, trial=trial, width_bits=width_bits)
    assert repr(plain) == repr(want)
    assert repr(per_target) == repr(reference_visits(states, targets))


BIG_STEPS = st.sampled_from([1 << 30, (1 << 31) + 1, 1 << 40, 1 << 61, (1 << 62) - 1, 1 << 62])
FRACTIONS = st.fractions(min_value=Fraction(1, 12), max_value=8, max_denominator=12)
TARGETS = st.lists(
    st.tuples(
        st.one_of(st.integers(-6, 6), st.sampled_from([1 << 31, -(1 << 40), 1 << 70])),
        st.one_of(st.integers(-6, 6), st.sampled_from([-(1 << 31), 1 << 62, -(1 << 70)])),
    ),
    min_size=1,
    max_size=3,
)
WIDTHS = st.sampled_from([63, 8, None, 0])


class TestBlockwiseWalk:
    @pytest.mark.parametrize("chunk", [2, 4, 1 << 15])
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(1, 60), BIG_STEPS, FRACTIONS), min_size=1, max_size=23
        ),
        st.integers(0, 1000),
        st.integers(0, 3),
        TARGETS,
        WIDTHS,
    )
    def test_matches_per_step_walk(self, chunk, values, seed, trial, targets, width_bits):
        seq = sq.make_sequence("explicit-list", values=values)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wk, "STREAM_CHUNK", chunk)
            for n in {len(values), len(values) - 1}:  # odd and even horizons
                assert_matches_reference(seq, n, seed, targets, trial, width_bits)

    @pytest.mark.parametrize("chunk", [2, 4])
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 3, 100, 1 << 61]), st.integers(0, 500), WIDTHS)
    def test_narrow_and_wide_widths(self, chunk, value, seed, width_bits):
        # constant steps reach a width of 8 bits within a few blocks
        seq = sq.make_sequence("constant", value=value)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wk, "STREAM_CHUNK", chunk)
            assert_matches_reference(seq, 41, seed, [(0, 0), (value, 0)], width_bits=width_bits)
            assert_matches_reference(seq, 9, seed, [(0, 0)], width_bits=63)

    @pytest.mark.parametrize("n", [(1 << 15) - 1, 1 << 15, (1 << 15) + 1])
    def test_across_the_default_chunk(self, n):
        huge = sq.make_sequence("constant", value=1 << 61)  # an object array
        for seq, seed in ((CONST1, 3), (huge, 4)):
            assert_matches_reference(seq, n, seed, [(0, 0), (1, 1)])

    def test_mixed_int_and_fraction_steps(self):
        values = [2, 1, 3, Fraction(1, 2), 5, Fraction(7, 3)] * 3
        mixed = sq.make_sequence("explicit-list", values=values)
        # a_1 = 1**alpha is Fraction(1, 1): positions are Fractions from step 1 on
        root = sq.make_sequence("real-power", alpha=Fraction(1, 2), precision_bits=70)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wk, "STREAM_CHUNK", 4)
            for seed in range(5):
                assert_matches_reference(mixed, len(values), seed, [(0, 0), (2, 1)])
                assert_matches_reference(root, 1, seed, [(0, 0)])
                assert_matches_reference(root, 19, seed, [(0, 0), (1, 0)])

    def test_position_at_the_int64_step_sum(self):
        # x = 2**62 after one +e1 step: u + v = 2**63 would wrap in int64
        seq = sq.make_sequence("explicit-list", values=[1 << 62])
        seed = find_seed_with_codes([0])
        _, rec = wk.simulate_recording(seq, 1, seed)
        assert rec.rows == [(1, 1 << 62, 0, 1 << 62, 1, 1)]
        assert_matches_reference(seq, 1, seed, [(0, 0)])

    def test_overflow_visitor_sees_the_steps_before(self):
        seq = sq.make_sequence("constant", value=100)
        blocks = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wk, "STREAM_CHUNK", 4)
            for seed in range(40):
                want, states = reference_walk(seq, 12, seed, width_bits=8)
                if not isinstance(want, PositionOverflowError):
                    continue
                blocks.clear()
                with pytest.raises(PositionOverflowError) as exc:
                    wk.simulate(seq, 12, seed, blocks.append, width_bits=8)
                assert exc.value.step == want.step
                seen = [k for b in blocks for k in range(b.start, b.start + len(b.codes))]
                assert seen == list(range(1, want.step))
                assert all(len(b.codes) for b in blocks)

    # Recorded on the per-step walk: sha256 of the trajectory CSV and the
    # visit statistics at (0, 0), (3, -2) and (400, -300), unit steps, n = 20000.
    PINS = {
        0: (
            "8cbe5a7d97ef53e2c3d5445ba81c3db52c316b7cc1883d985e82ff68dd1a7f0e",
            [(13, 8, 14770, 0), (3, 27, 85, 0), (0, None, None, 160469)],
        ),
        7: (
            "5591d509801d960b24c13577163d63757e2cc535d08fd2b01790bd8b869348dc",
            [(2, 1664, 1678, 0), (1, 65, 65, 0), (0, None, None, 159274)],
        ),
        2025: (
            "57570d91c14af5c24d07507aea9d8c9594ad29a1be1562791025d847abb9f94f",
            [(4, 2, 5496, 0), (5, 12891, 12925, 0), (0, None, None, 177218)],
        ),
    }

    @pytest.mark.parametrize("seed", sorted(PINS))
    def test_pinned_outputs(self, seed):
        digest, visits = self.PINS[seed]
        _, rec = wk.simulate_recording(CONST1, 20_000, seed)
        buf = io.StringIO()
        rec.export_csv(buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
        stats = wk.visit_statistics(CONST1, 20_000, seed, [(0, 0), (3, -2), (400, -300)])
        got = [(s.count, s.first_hit, s.last_hit, s.min_sq_distance) for s in stats.per_target]
        assert repr(got) == repr(visits)
