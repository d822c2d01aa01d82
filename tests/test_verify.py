"""Inequality checks: drift grid, interval bound, residue bound, hitting times."""

import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from radwalk import exact, rng, verify as vf
from radwalk.errors import ParameterError, PreconditionError, SupportBudgetError


class TestDrift:
    def test_origin_neighbor_value(self):
        rep = vf.supermartingale_delta(1, 0)
        assert rep.classification == "origin-neighbor"
        expected = 126.0 * math.exp(-5.0)
        assert abs(rep.exp4_closed - expected) <= 1e-12 * expected
        assert rep.exp4_closed < 0.85
        assert rep.agreement <= vf.DRIFT_AGREEMENT_TOL

    def test_diagonal_is_exactly_critical(self):
        rep = vf.supermartingale_delta(1, 1)
        assert rep.exp4_closed == 1
        assert rep.delta_closed == 0.0
        assert rep.identity_exact
        assert rep.agreement <= vf.DRIFT_AGREEMENT_TOL

    def test_axis_point_two(self):
        rep = vf.supermartingale_delta(2, 0)
        assert rep.exp4_closed == Fraction(1377, 2401)
        assert rep.delta_direct < 0

    def test_origin_rejected(self):
        with pytest.raises(ParameterError):
            vf.supermartingale_delta(0, 0)

    def test_direct_average_at_unit_point(self):
        # hand-computable: exp(4*Delta) = (3.5 * e^-5 * 1.5 * 1.5) / 0.5^4
        rep = vf.supermartingale_delta(0, 1)
        assert math.exp(4 * rep.delta_direct) == pytest.approx(126 * math.exp(-5), rel=1e-12)

    def test_identity_holds_on_sample(self):
        for x, y in [(2, 0), (3, 1), (5, 5), (7, 2), (40, 13)]:
            assert vf.supermartingale_delta(x, y).identity_exact


class TestDriftGrid:
    def test_small_grid_passes(self):
        rep = vf.verify_supermartingale(30)
        assert rep.passed
        assert rep.nonpositive
        assert rep.identity_failures == 0
        assert rep.equality_diagonal_only
        assert rep.max_delta == 0.0  # attained exactly on the diagonals
        assert rep.max_agreement_gap <= vf.DRIFT_AGREEMENT_TOL
        assert rep.points == sum(4 * r for r in range(1, 31))

    def test_radius_one(self):
        rep = vf.verify_supermartingale(1)
        assert rep.passed
        assert rep.points == 4
        assert rep.max_delta == pytest.approx((math.log(126) - 5) / 4)
        assert rep.max_delta < 0

    def test_radius_validated(self):
        with pytest.raises(ParameterError):
            vf.verify_supermartingale(0)


def scan_drift_grid(radius: int) -> vf.DriftGridReport:
    """Reference for verify_supermartingale: supermartingale_delta at every
    point of the grid, in row-major order, with no shared shortcuts."""
    points, max_delta, max_point, max_gap = 0, -math.inf, None, 0.0
    nonpositive, failures, equality = True, 0, True
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            if not 1 <= abs(x) + abs(y) <= radius:
                continue
            rep = vf.supermartingale_delta(x, y)
            points += 1
            max_gap = max(max_gap, rep.agreement)
            if rep.delta_closed > max_delta:
                max_delta, max_point = rep.delta_closed, (x, y)
            nonpositive = nonpositive and rep.exp4_closed <= 1
            failures += not rep.identity_exact
            equality = equality and (rep.exp4_closed == 1) == (abs(x) == abs(y))
    return vf.DriftGridReport(
        radius=radius,
        points=points,
        max_delta=max_delta,
        max_delta_point=max_point,
        max_agreement_gap=max_gap,
        nonpositive=nonpositive,
        identity_failures=failures,
        equality_diagonal_only=equality,
        passed=nonpositive
        and failures == 0
        and max_gap <= vf.DRIFT_AGREEMENT_TOL
        and equality,
    )


class TestDriftGridReference:
    @pytest.mark.parametrize("radius", range(1, 41))
    def test_equals_pointwise_scan(self, radius):
        # every field, floats by ==
        assert vf.verify_supermartingale(radius) == scan_drift_grid(radius)

    @pytest.mark.parametrize("radius", [57, 64, 97])
    def test_equals_pointwise_scan_larger(self, radius):
        assert vf.verify_supermartingale(radius) == scan_drift_grid(radius)

    def test_pinned_radius_200(self):
        rep = vf.verify_supermartingale(200)
        assert rep.points == 80400
        assert rep.max_delta == 0.0
        assert rep.max_delta_point == (-100, -100)
        assert rep.max_agreement_gap == 3.1508266538754517e-15
        assert rep.passed


def identity_terms(a, b):
    """Both sides of prod(neighbors) + 64(a^2-b^2)^2 = E^4 as terms of factors."""
    neighbors = [
        2 * nx * nx + 2 * ny * ny - 1 for nx, ny in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1))
    ]
    e = 2 * a * a + 2 * b * b - 1
    return [neighbors, [64, (a * a - b * b) ** 2]], [[e, e, e, e]]


def python_value(terms, i):
    """A side at entry i, on Python ints."""
    return sum(math.prod(f if isinstance(f, int) else int(f[i]) for f in term) for term in terms)


class TestIdentityCheck:
    CAP = vf.DRIFT_RADIUS_CAP
    _, P1, P2 = vf.IDENTITY_MODULI

    def orbits(self, count, seed):
        """Random orbits a >= b >= 0 with 2 <= a + b <= the cap, and the extremes."""
        g = np.random.default_rng(seed)
        s = g.integers(2, self.CAP + 1, size=count)
        b = g.integers(0, s // 2 + 1)
        half = self.CAP // 2
        edge = [(self.CAP, 0), (self.CAP - 1, 1), (self.CAP - half, half), (1, 1), (2, 0)]
        a = np.concatenate([s - b, [x for x, _ in edge]])
        return a, np.concatenate([b, [y for _, y in edge]])

    def test_orbits_agree_with_the_point_api(self):
        a, b = self.orbits(3000, 0)
        expected = [vf._closed_form(x, y)[2] for x, y in zip(a.tolist(), b.tolist())]
        assert vf._identity_holds(a, b).tolist() == expected == [True] * len(a)

    @pytest.mark.parametrize(
        "offset",
        [[], [[1]], [[2]], [[1 << 32, 1 << 32]], [[P1]], [[P2]],
         [[1 << 32, 1 << 32, P1]], [[1 << 32, 1 << 32, P2]], [[P1, P2]]],
        ids=["none", "1", "2", "2**64", "P1", "P2", "2**64*P1", "2**64*P2", "P1*P2"],
    )
    def test_sides_agree_with_python_ints(self, offset):
        # every side below the bound: residues decide as Python ints do
        a, b = self.orbits(400, 1)
        left, right = identity_terms(a, b)
        right = right + [[np.full(len(a), f) for f in term] for term in offset]
        bound = math.prod(vf.IDENTITY_MODULI)
        truth = []
        for i in range(len(a)):
            lv, rv = python_value(left, i), python_value(right, i)
            assert 0 <= lv < bound and 0 <= rv < bound
            truth.append(lv == rv)
        assert vf._sums_equal(left, right).tolist() == truth == [not offset] * len(a)

    def test_residues_cannot_see_past_the_bound(self):
        a, b = self.orbits(10, 2)
        left, right = identity_terms(a, b)
        past = [np.full(len(a), f) for f in (1 << 32, 1 << 32, self.P1, self.P2)]
        assert vf._sums_equal(left, right + [past]).all()

    def test_cap_is_the_largest_exact_radius(self):
        moduli = vf.IDENTITY_MODULI
        assert all(math.gcd(m, n) == 1 for i, m in enumerate(moduli) for n in moduli[i + 1:])
        assert all(p < 1 << 31 for p in moduli[1:])
        bound = lambda r: 16 * (r + 1) ** 8 + 64 * r**4  # noqa: E731
        assert bound(self.CAP) <= math.prod(moduli) < bound(self.CAP + 1)
        a, b = self.orbits(200, 3)
        left, right = identity_terms(a, b)
        for i, r in enumerate((a + b).tolist()):
            assert python_value(left, i) < bound(r) and python_value(right, i) < bound(r)

    def test_radius_above_cap_refused_before_any_array(self, monkeypatch):
        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} used")

        monkeypatch.setattr(vf, "np", NoArrays())
        with pytest.raises(ParameterError, match=f"radius {self.CAP + 1} exceeds {self.CAP}"):
            vf.verify_supermartingale(self.CAP + 1)

    def test_broken_identity_is_counted(self, monkeypatch):
        exact_check = vf._sums_equal

        def off_by_p1(left, right):
            return exact_check(left, right + [[self.P1, np.ones_like(left[0][0])]])

        monkeypatch.setattr(vf, "_sums_equal", off_by_p1)
        rep = vf.verify_supermartingale(6)
        assert rep.identity_failures == rep.points - 4  # every point but the origin's neighbours
        assert not rep.passed

    def test_one_broken_orbit_counts_at_its_eight_points(self, monkeypatch):
        holds = vf._identity_holds
        monkeypatch.setattr(vf, "_identity_holds", lambda a, b: holds(a, b) & ((a != 3) | (b != 1)))
        rep = vf.verify_supermartingale(6)
        assert rep.identity_failures == 8
        assert not rep.passed


class TestEloBound:
    def test_four_unit_steps(self):
        cmp_ = vf.verify_elo([1, 1, 1, 1], 1)
        assert cmp_.exact == Fraction(3, 8)
        assert cmp_.bound == pytest.approx(0.4)
        assert cmp_.passed

    def test_single_step(self):
        cmp_ = vf.verify_elo([1], 1)
        assert cmp_.exact == Fraction(1, 2)
        assert cmp_.passed

    def test_spaced_steps(self):
        cmp_ = vf.verify_elo([2, 2], 2)
        assert cmp_.exact == Fraction(1, 2)
        assert cmp_.passed

    def test_precondition_propagates(self):
        with pytest.raises(PreconditionError):
            vf.verify_elo([1, 3], 2)


class TestModLemma:
    def test_three_steps(self):
        rep = vf.verify_mod_lemma([1, 2, 3], 3)
        assert rep.sup == Fraction(1, 2)
        assert rep.arg_residue == 0
        profile = exact.mod_probability_profile([1, 2, 3], 3)
        assert profile == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
        assert rep.passed

    def test_degenerate_modulus(self):
        rep = vf.verify_mod_lemma([1], 1)
        assert rep.sup == 1
        assert rep.ratio is None
        assert rep.passed is None

    def test_hypothesis_requires_large_modulus(self):
        with pytest.raises(PreconditionError):
            vf.verify_mod_lemma([1, 2, 5], 3)

    def test_sixteen_distinct_steps(self):
        rep = vf.verify_mod_lemma(list(range(1, 17)), 16)
        assert rep.k == 16
        assert rep.sup == Fraction(1, 8)  # exact residue-space convolution
        assert rep.ratio == pytest.approx(float(rep.sup) * 16 / math.log(16))
        assert rep.passed

    @pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf])
    def test_non_finite_cap_refused(self, cap):
        with pytest.raises(ParameterError, match="cap must be finite"):
            vf.verify_mod_lemma([1, 2, 3], 3, cap=cap)

    def test_repeated_steps_count_distinct(self):
        rep = vf.verify_mod_lemma([1, 1, 2, 2, 3], 3)
        assert rep.k == 3


class TestHittingTime:
    def test_at_origin(self):
        res = vf.hitting_time_experiment(0, trials=10, master_seed=0)
        assert res.estimate == 1.0
        assert res.exact == 1

    def test_unit_radius_exact(self):
        res = vf.hitting_time_experiment(1, trials=30_000, master_seed=6)
        assert res.exact == Fraction(1, 4)
        sigma = (0.25 * 0.75 / res.trials) ** 0.5
        assert abs(res.estimate - 0.25) <= 4 * sigma

    def test_radius_two_exact_dp(self):
        res = vf.hitting_time_experiment(2, trials=30_000, master_seed=6)
        assert res.exact == Fraction(2791, 16384)
        p = float(res.exact)
        sigma = (p * (1 - p) / res.trials) ** 0.5
        assert abs(res.estimate - p) <= 3 * sigma  # seed-pinned, verified once
        assert res.horizon == 8
        assert res.start == (2, 0)

    def test_scaled_lattice_equivalent(self):
        a = vf.hitting_time_experiment(2, step=1, trials=2000, master_seed=3)
        b = vf.hitting_time_experiment(2, step=5, trials=2000, master_seed=3)
        assert a.successes == b.successes  # the step size cancels out of hits

    def test_worker_invariance(self):
        a = vf.hitting_time_experiment(3, trials=4000, master_seed=9, workers=1)
        b = vf.hitting_time_experiment(3, trials=4000, master_seed=9, workers=3)
        assert a.successes == b.successes

    def test_ring_starts_under_thread_switches(self):
        # pool threads share the ring trials' stored origins: each must be
        # taken by the chunk that drew it, whatever the interleaving
        def run(workers):
            return vf.hitting_time_experiment(
                2, trials=3000, master_seed=8, workers=workers, start_mode="ring"
            ).successes

        want = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run(4)  # more threads than cores
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_ring_start_mode(self):
        ring = vf._ring_points(2.0)
        assert all(4 <= x * x + y * y < 9 for x, y in ring)
        assert (2, 0) in ring and (1, 2) in ring and (0, 0) not in ring
        a = vf.hitting_time_experiment(2, trials=3000, master_seed=4, start_mode="ring")
        b = vf.hitting_time_experiment(2, trials=3000, master_seed=4, start_mode="ring")
        assert a.successes == b.successes
        assert a.exact is None  # exact cross-check is axis-start only
        assert 0.0 <= a.estimate <= 1.0

    @pytest.mark.parametrize("seed", [0, 11, (3, 4), ((1, 2), 5)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_ring_starts_follow_trial_generator(self, seed, workers):
        # reference: each trial draws its start, then its codes, from
        # trial_generator(seed, t); the walk is stepped with a plain cumsum
        moves = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)])
        for r in (1.5, 2, 3):
            ring = vf._ring_points(float(r))
            horizon = int(math.floor(r**3))
            hits = 0
            for t in range(300):
                gen = rng.trial_generator(seed, t)
                start = np.array(ring[int(gen.integers(0, len(ring)))])
                codes = gen.integers(0, 4, size=horizon, dtype=np.int64)
                path = start + np.cumsum(moves[codes], axis=0)
                hits += bool((path == 0).all(axis=1).any())
            res = vf.hitting_time_experiment(
                r, trials=300, master_seed=seed, workers=workers, start_mode="ring"
            )
            assert res.successes == hits

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            vf.hitting_time_experiment(-1)
        with pytest.raises(ParameterError):
            vf.hitting_time_experiment(1, step=0)
        with pytest.raises(ParameterError):
            vf.hitting_time_experiment(1, trials=0)

    @pytest.mark.parametrize(
        "r, named",
        [
            (float("nan"), "r must be finite"),
            (float("inf"), "r must be finite"),
            (float("-inf"), "r must be finite"),
            (1e7, "horizon floor"),
            (1e300, "horizon floor"),
        ],
    )
    def test_bad_radius_fails_by_name(self, r, named):
        # floor(r^3) past 2**62 would overflow the int64 kernel (unit steps sum to it)
        with pytest.raises(ParameterError, match=named):
            vf.hitting_time_experiment(r, trials=3)


class TestSupPmfTrend:
    def test_first_rows_exact(self):
        rep = vf.sup_pmf_trend(3)
        assert [r.sup for r in rep.rows] == [
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 4),
        ]
        assert rep.rows[1].ratio == pytest.approx(0.25 * 2**1.5)
        assert rep.rows[2].ratio == pytest.approx(0.25 * 3**1.5)

    def test_default_gate_passes_to_k32(self):
        rep = vf.sup_pmf_trend(32)
        assert rep.passed
        assert rep.max_ratio < 2.0

    @pytest.mark.parametrize("name", ["ratio_cap", "slope_cap"])
    @pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf])
    def test_non_finite_caps_refused(self, name, cap):
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            vf.sup_pmf_trend(3, **{name: cap})

    def test_growth_detected(self):
        rep = vf.sup_pmf_trend(32, ratio_cap=0.6)
        assert not rep.passed

    def test_rows_match_full_decode(self):
        rep = vf.sup_pmf_trend(40)
        for k in range(1, 41):
            assert rep.rows[k - 1].sup == exact.sup_pmf(range(1, k + 1))

    def test_budget_refused_before_any_law(self):
        # the span of 1..4000 is 8 002 000: the support is checked for k_max up front,
        # where a law-per-k route would first build 3161 laws, the last about 1.7 GB
        t0 = time.perf_counter()
        with pytest.raises(SupportBudgetError, match="needs 16004001 points"):
            vf.sup_pmf_trend(4000)
        assert time.perf_counter() - t0 < 1.0
