"""Walk simulation: exactness, seeding contracts, statistics, Monte Carlo."""

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radwalk import construction as cn, exact, rng as rw, sequences as sq, verify as vf, walk as wk
from radwalk.errors import ConsistencyError, ParameterError, PositionOverflowError

CONST1 = sq.make_sequence("constant", value=1)


def find_seed_with_codes(prefix_codes, span=2000):
    """Smallest master seed whose trial-0 stream starts with the given codes."""
    want = list(prefix_codes)
    for seed in range(span):
        got = rw.direction_codes(seed, 0, len(want))
        if list(got) == want:
            return seed
    raise AssertionError("no seed found; widen the search span")


class TestSteps:
    def test_decompose_examples(self):
        assert wk.decompose_step((1, 0)) == (1, 1)
        assert wk.decompose_step((0, -1)) == (0, -1)
        assert wk.decompose_step((-1, 0)) == (1, -1)

    def test_bijection(self):
        seen = set()
        for code in range(4):
            s = wk.Step2D(code)
            pair = (s.kappa, s.eps)
            assert wk.Step2D.from_decomposition(*pair).code == code
            seen.add(pair)
        assert seen == {(0, 1), (0, -1), (1, 1), (1, -1)}

    def test_kappa_means_horizontal(self):
        for code in range(4):
            s = wk.Step2D(code)
            assert s.kappa == (1 if s.vector[0] != 0 else 0)
            assert s.eps == (s.vector[0] or s.vector[1])

    def test_sampled_step_decomposes(self):
        gen = rw.trial_generator(0, 0)
        s = wk.sample_step(gen)
        assert s.code in range(4)
        assert wk.Step2D.from_decomposition(s.kappa, s.eps) == s

    def test_invalid_direction(self):
        with pytest.raises(ParameterError):
            wk.decompose_step((1, 1))


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
        summary = wk.simulate(seq, 2, 1, policy=wk.PositionPolicy(width_bits=None))
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
        seq = sq.make_sequence("explicit-list", values=[self.BIG, self.BIG, self.BIG])
        summary = wk.simulate(seq, 3, 0, policy=wk.PositionPolicy(promote=True))
        assert abs(summary.final.x) + abs(summary.final.y) in (
            self.BIG,
            3 * self.BIG,
        )

    def test_unbounded_width(self):
        seq = sq.make_sequence("explicit-list", values=[self.BIG] * 3)
        summary = wk.simulate(seq, 3, 0, policy=wk.PositionPolicy(width_bits=None))
        assert abs(summary.final.x) <= 3 * self.BIG

    def test_narrow_width_checked_even_for_small_steps(self):
        seq = sq.make_sequence("constant", value=100)
        policy = wk.PositionPolicy(width_bits=8)  # bound 255
        found_overflow = False
        for seed in range(20):
            try:
                wk.simulate(seq, 10, seed, policy=policy)
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

    def test_python_fallback_for_fractional_steps(self):
        seq = sq.make_sequence("explicit-list", values=[Fraction(1, 2), Fraction(1, 2)])
        est = wk.monte_carlo_return(seq, 2, 400, 3, (0, 0))
        exact_p = exact.hit_probability_2d([Fraction(1, 2)] * 2, (0, 0), 2)
        assert abs(est.estimate - float(exact_p)) < 0.1


class TestStepArray:
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
            arr = wk._step_array(seq, n)
            assert arr.dtype == np.int64
            assert arr.tolist() == [seq.value(i) for i in range(1, n + 1)]

    def test_int64_bound_is_exact(self):
        def dtype(seq, n):
            arr = wk._step_array(seq, n)
            assert arr.tolist() == [seq.value(i) for i in range(1, n + 1)]
            return arr.dtype

        limit = wk.INT64_STEP_SUM
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

    def test_fractional_steps_stay_exact(self):
        half = sq.make_sequence("constant", value=Fraction(1, 2))
        assert wk._step_array(half, 3).tolist() == [Fraction(1, 2)] * 3
        root = sq.make_sequence("real-power", alpha=Fraction(1, 2))
        assert wk._step_array(root, 3).tolist() == [root.value(i) for i in (1, 2, 3)]

    def test_horizon_checked(self):
        with pytest.raises(ParameterError):
            wk._step_array(CONST1, -1)
        with pytest.raises(ParameterError):
            wk._step_array(sq.make_sequence("explicit-list", values=[1, 2]), 3)


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
        reader = rw.TrialStream(seed).reader()
        steps = np.array(values[:n], dtype=np.int64)
        one = range(trial, trial + 1)
        batches = list(wk.rotated_paths(steps, one, lambda t: reader.codes(t, n)))
        assert len(batches) == 1
        batch, u, v = batches[0]
        assert batch == range(trial, trial + 1)
        got = [((a + b) // 2, (a - b) // 2) for a, b in zip(u[0].tolist(), v[0].tolist())]
        assert got == [rec.position_at(k) for k in range(1, n + 1)]

    def test_batches_cover_trials_in_order(self, monkeypatch):
        monkeypatch.setattr(wk, "BATCH_STEPS", 40)
        steps = np.ones(8, dtype=np.int64)
        reader = rw.TrialStream(3).reader()
        seen = []
        for batch, u, v in wk.rotated_paths(steps, range(2, 13), lambda t: reader.codes(t, 8)):
            assert u.shape == v.shape == (len(batch), 8)
            assert len(batch) <= 5
            seen += list(batch)
        assert seen == list(range(2, 13))

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


class TestDivisibility:
    SEQ = sq.make_sequence("explicit-list", values=[1, 1, 2, 2])

    def test_cancelling_path_divisible(self):
        seed = find_seed_with_codes([0, 1])  # +e1, -e1 puts S_2 = (0,0)
        _, rec = wk.simulate_recording(self.SEQ, 4, seed)
        dec = sq.run_length_decompose(self.SEQ, 4)
        rep = wk.divisibility_at_blocks(self.SEQ, rec, dec)
        assert [(r.block, r.value, r.time) for r in rep] == [(1, 1, 0), (2, 2, 2)]
        assert rep[0].x_divisible and rep[0].y_divisible  # everything divides 0
        assert rep[1].x_divisible and rep[1].y_divisible

    def test_non_cancelling_path_not_divisible(self):
        seed = find_seed_with_codes([0, 2])  # +e1, +e2 puts S_2 = (1,1)
        _, rec = wk.simulate_recording(self.SEQ, 4, seed)
        dec = sq.run_length_decompose(self.SEQ, 4)
        rep = wk.divisibility_at_blocks(self.SEQ, rec, dec)
        assert not rep[1].x_divisible and not rep[1].y_divisible

    def test_block_one_always_divisible(self):
        seed = find_seed_with_codes([2, 3])
        _, rec = wk.simulate_recording(self.SEQ, 4, seed)
        dec = sq.run_length_decompose(self.SEQ, 4)
        rep = wk.divisibility_at_blocks(self.SEQ, rec, dec)
        assert rep[0].x_divisible and rep[0].y_divisible

    def test_mismatched_decomposition_rejected(self):
        _, rec = wk.simulate_recording(self.SEQ, 4, 0)
        other = sq.run_length_decompose(
            sq.make_sequence("explicit-list", values=[1, 2, 2, 2]), 4
        )
        with pytest.raises(ConsistencyError):
            wk.divisibility_at_blocks(self.SEQ, rec, other)

    def test_short_trajectory_rejected(self):
        _, rec = wk.simulate_recording(self.SEQ, 1, 0)
        dec = sq.run_length_decompose(self.SEQ, 4)
        with pytest.raises(ConsistencyError):
            wk.divisibility_at_blocks(self.SEQ, rec, dec)


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

    def test_summary_json_carries_seed_metadata(self):
        summary = wk.simulate(CONST1, 5, 42)
        doc = summary.to_json_dict()
        assert doc["master_seed"] == 42
        assert doc["rng_id"] == rw.RNG_ID
        assert doc["seed_rule"] == rw.SEED_RULE_ID
