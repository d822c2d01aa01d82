"""Coprime-pair construction: coefficients, schedules, horizon searches."""

import math
from fractions import Fraction

import pytest

from radwalk import construction as cn, exact
from radwalk.errors import CoprimalityError, ExhaustionError, ParameterError

FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestPositiveBezout:
    @pytest.mark.parametrize(
        "b1,b2,c1,c2",
        [(3, 5, 2, 1), (2, 3, 2, 1), (5, 7, 3, 2), (1, 5, 6, 1),
         # b2 = 1: (1, b1 - 1), and (2, 1) for b1 = 1, where c2 would be 0
         (1, 1, 2, 1), (2, 1, 1, 1), (7, 1, 1, 6), (1999, 1, 1, 1998)],
    )
    def test_examples(self, b1, b2, c1, c2):
        pair = cn.positive_bezout(b1, b2)
        assert (pair.c1, pair.c2) == (c1, c2)
        assert pair.c1 * b1 - pair.c2 * b2 == 1
        assert pair.c1 >= 1 and pair.c2 >= 1

    def test_not_coprime(self):
        with pytest.raises(CoprimalityError) as exc:
            cn.positive_bezout(4, 6)
        assert exc.value.gcd == 2

    def test_domain(self):
        with pytest.raises(ParameterError):
            cn.positive_bezout(0, 3)

    def test_minimality_by_scan(self):
        for b1 in range(1, 25):
            for b2 in range(1, 25):
                if math.gcd(b1, b2) != 1:
                    continue
                pair = cn.positive_bezout(b1, b2)
                assert pair.c1 * b1 - pair.c2 * b2 == 1
                for smaller in range(1, pair.c1):
                    rem = smaller * b1 - 1
                    assert not (rem > 0 and rem % b2 == 0), (b1, b2, smaller)

    def test_pattern_layout(self):
        pair = cn.positive_bezout(2, 3)
        assert pair.pattern() == [2, 2, 3]
        assert pair.period == 3


class TestGoodSet:
    def test_pick_pairs_in_index_order(self):
        prefix = cn.GoodSetPrefix([2, 3, 4, 5])
        assert cn.pick_pair(prefix) == (2, 3)
        assert cn.pick_pair(prefix) == (4, 5)
        with pytest.raises(ExhaustionError):
            cn.pick_pair(prefix)

    def test_all_even_exhausts(self):
        prefix = cn.GoodSetPrefix([2, 4, 8])
        with pytest.raises(ExhaustionError):
            cn.pick_pair(prefix)

    def test_distinct_positive_required(self):
        with pytest.raises(ParameterError):
            cn.GoodSetPrefix([2, 2])
        with pytest.raises(ParameterError):
            cn.GoodSetPrefix([0, 3])
        with pytest.raises(ParameterError):
            cn.GoodSetPrefix([])

    def test_check_primes_all_partnered(self):
        primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
        rep = cn.check_good_set(cn.GoodSetPrefix(primes))
        assert rep.ok
        assert all(c >= 1 for c in rep.partner_counts)

    def test_check_pairwise_even_flagged(self):
        rep = cn.check_good_set(cn.GoodSetPrefix([2, 4, 6, 8]))
        assert rep.flagged == (2, 4, 6, 8)
        assert not rep.ok

    def test_check_two_coprimes(self):
        rep = cn.check_good_set(cn.GoodSetPrefix([2, 3]))
        assert rep.partner_counts == (1, 1)

    @pytest.mark.parametrize("horizon", [0, -1, -5])
    def test_check_horizon_below_one_refused(self, horizon):
        with pytest.raises(ParameterError, match=f"horizon must be >= 1, got {horizon}"):
            cn.check_good_set(cn.GoodSetPrefix([2, 3, 5]), horizon)

    def test_check_horizon_keeps_a_prefix(self):
        assert cn.check_good_set(cn.GoodSetPrefix([2, 3, 5]), 2).elements == (2, 3)

    def test_prefix_file(self, tmp_path):
        path = tmp_path / "good.txt"
        path.write_text("2\n3\n# note\n5\n", encoding="utf-8")
        prefix = cn.GoodSetPrefix.from_file(path)
        assert prefix.elements == (2, 3, 5)


class TestCompositeStepLaw:
    @pytest.mark.parametrize("b1,b2", [(2, 3), (3, 5), (5, 7)])
    def test_unit_directions_reachable(self, b1, b2):
        pair = cn.positive_bezout(b1, b2)
        law = exact.pmf_2d(pair.pattern())
        for f in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
            assert law.mass(f) > 0

    def test_law_is_exact(self):
        law = exact.pmf_2d(cn.positive_bezout(2, 3).pattern())
        assert sum(law.as_dict().values()) == 1
        assert law.mass((1, 0)) == Fraction(1, 64)


class TestEstimateN0:
    PAIR23 = cn.positive_bezout(2, 3)

    def test_rejects_zero_trials(self):
        with pytest.raises(ParameterError):
            cn.estimate_N0(self.PAIR23, 0, trials=0)

    def test_origin_only_target_set(self):
        est = cn.estimate_N0(
            self.PAIR23, 0, trials=150, master_seed=5, horizon_start=64, horizon_cap=256
        )
        assert est.target_count == 1
        assert est.per_target_lb is not None and len(est.per_target_lb) == 1
        assert est.status == "inconclusive"
        assert 0.0 <= est.worst_lb < 0.5
        assert est.reason is not None

    def test_deterministic(self):
        kw = dict(trials=100, master_seed=8, horizon_start=32, horizon_cap=128)
        a = cn.estimate_N0(self.PAIR23, 0, **kw)
        b = cn.estimate_N0(self.PAIR23, 0, **kw, workers=3)
        assert a == b

    def test_target_budget_guard(self, monkeypatch):
        monkeypatch.setattr(cn, "TARGET_BUDGET", 100)
        est = cn.estimate_N0(self.PAIR23, 10_000, trials=10, horizon_cap=64)
        assert est.status == "inconclusive"
        assert est.evaluated_targets == 0
        assert "budget" in est.reason

    @pytest.mark.parametrize(
        "radius, budget, enumerated",
        [(0, 100, 1), (3, 100, 1), (2, 10, 1), (10_000, 100, 0)],
        ids=["origin", "disk", "over-budget-disk", "analytic-count"],
    )
    def test_disk_enumerated_at_most_once(self, radius, budget, enumerated, monkeypatch):
        calls = []
        disk = cn._disk_targets

        def counting(r):
            calls.append(r)
            return disk(r)

        monkeypatch.setattr(cn, "_disk_targets", counting)
        monkeypatch.setattr(cn, "TARGET_BUDGET", budget)
        est = cn.estimate_N0(self.PAIR23, radius, trials=10, horizon_start=16, horizon_cap=16)
        assert calls == [radius] * enumerated
        assert (est.evaluated_targets > 0) is (est.target_count <= budget)

    def test_grid_is_doubling_to_cap(self):
        est = cn.estimate_N0(
            self.PAIR23, 0, trials=50, horizon_start=16, horizon_cap=100
        )
        assert est.grid == (16, 32, 64, 100)

    def test_certified_path(self):
        # the (1,1) pair walks on the unit lattice, whose returns are fast
        # enough to clear the 1/2 level at a desk-scale horizon
        pair = cn.positive_bezout(1, 1)
        est = cn.estimate_N0(
            pair,
            0,
            trials=1200,
            master_seed=20,
            horizon_start=1 << 15,
            horizon_cap=1 << 16,
        )
        assert est.status == "certified"
        assert est.n0 == 1 << 16
        assert est.worst_lb >= 0.5


class TestBuildAndEvaluate:
    def test_zero_rounds(self):
        plan, seq = cn.build_recurrent_sequence(
            cn.GoodSetPrefix(FIRST_PRIMES), 0, master_seed=1, trials=10
        )
        assert plan.rounds == ()
        assert plan.n_end == 0
        assert plan.status == "empty"

    def test_schedule_well_formed(self):
        plan, seq = cn.build_recurrent_sequence(
            cn.GoodSetPrefix(FIRST_PRIMES),
            2,
            master_seed=11,
            trials=60,
            horizon_cap=256,
        )
        r0, r1 = plan.rounds
        assert (r0.pair.b1, r0.pair.b2) == (2, 3)
        assert (r1.pair.b1, r1.pair.b2) == (5, 7)
        assert r0.n_start == 0
        assert r0.n_end == r0.pair.period * r0.n0
        assert r1.n_start == r0.n_end
        assert r1.n_end - r1.n_start == r1.pair.period * r1.n0
        # first round: C = alpha_0 * n_0 = 0; second round: alpha = 3
        assert r0.radius == 0
        assert r1.alpha == 3
        assert r1.radius == 3 * r0.n_end

    def test_sequence_matches_pattern(self):
        plan, seq = cn.build_recurrent_sequence(
            cn.GoodSetPrefix([2, 3]), 1, master_seed=2, trials=40, horizon_cap=64
        )
        period = plan.rounds[0].pair.pattern()
        got = seq.prefix(3 * len(period))
        assert got == period * 3
        with pytest.raises(ParameterError):
            seq(plan.n_end + 1)

    def test_expansion_rederives_the_plan(self):
        plan, seq = cn.build_recurrent_sequence(
            cn.GoodSetPrefix(FIRST_PRIMES), 3, master_seed=8, trials=30, horizon_cap=32
        )
        values = seq.prefix(plan.n_end)
        for rp in plan.rounds:
            segment = values[rp.n_start : rp.n_end]
            # the emitted segment is exactly n0 repeats of the round's period
            assert segment == rp.pair.pattern() * rp.n0
            assert len(segment) == rp.pair.period * rp.n0
            # re-derived pair usage: the two values present are (b1, b2)
            assert set(segment) == {rp.pair.b1, rp.pair.b2}

    def test_each_element_used_once(self):
        prefix = cn.GoodSetPrefix(FIRST_PRIMES)
        plan, _ = cn.build_recurrent_sequence(
            prefix, 3, master_seed=4, trials=30, horizon_cap=64
        )
        used = [b for r in plan.rounds for b in (r.pair.b1, r.pair.b2)]
        assert len(used) == len(set(used))
        assert prefix.used.count(True) == 6

    def test_plan_roundtrip_regenerates_sequence(self):
        plan, seq = cn.build_recurrent_sequence(
            cn.GoodSetPrefix(FIRST_PRIMES), 2, master_seed=3, trials=40, horizon_cap=128
        )
        restored = cn.ConstructionPlan.from_json(plan.to_json())
        assert restored == plan
        n = min(plan.n_end, 200)
        assert restored.sequence().prefix(n) == seq.prefix(n)

    def test_plan_backed_sequence_family(self):
        from radwalk import sequences as sq

        plan, seq = cn.build_recurrent_sequence(
            cn.GoodSetPrefix([2, 3]), 1, master_seed=9, trials=20, horizon_cap=32
        )
        rebuilt = sq.make_sequence("from-construction-plan", plan=plan.to_json_dict())
        assert rebuilt.prefix(30) == seq.prefix(30)
        assert rebuilt.length == plan.n_end
        runs = list(rebuilt.iter_runs())
        assert runs[:2] == [(2, 2), (3, 1)]

    def test_realized_radius_mode(self):
        plan, _ = cn.build_recurrent_sequence(
            cn.GoodSetPrefix([2, 3, 5, 7]),
            2,
            master_seed=5,
            trials=30,
            horizon_cap=64,
            radius_mode="realized",
        )
        r1 = plan.rounds[1]
        # realized bound is a max over simulated |S_n|, far below alpha * n
        assert 0 < r1.radius <= 3 * plan.rounds[0].n_end

    def test_evaluation_deterministic_across_workers(self):
        plan, _ = cn.build_recurrent_sequence(
            cn.GoodSetPrefix([2, 3]), 1, master_seed=6, trials=30, horizon_cap=512
        )
        ev1 = cn.evaluate_plan(plan, 400, 123, workers=1)
        ev2 = cn.evaluate_plan(plan, 400, 123, workers=4)
        assert ev1 == ev2
        r = ev1.per_round[0]
        assert 0.0 <= r.wilson_lb <= r.fraction <= 1.0

    def test_first_round_hits_often(self):
        # starting at the origin, a fair share of walks return inside round 1
        plan, _ = cn.build_recurrent_sequence(
            cn.GoodSetPrefix([2, 3]), 1, master_seed=7, trials=50, horizon_cap=2048
        )
        ev = cn.evaluate_plan(plan, 500, 99)
        assert ev.per_round[0].fraction > 0.25
