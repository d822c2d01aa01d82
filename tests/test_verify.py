"""Inequality checks: drift grid, interval bound, residue bound, hitting times."""

import math
import random
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

    @pytest.mark.parametrize("radius", [2.5, "3", True, None])
    def test_radius_must_be_an_int(self, radius):
        with pytest.raises(ParameterError, match=f"^radius must be an integer, got {radius!r}$"):
            vf.verify_supermartingale(radius)

    @pytest.mark.parametrize("table, radius", [("arange", vf.DRIFT_RADIUS_CAP), ("zeros", 5)])
    def test_unallocatable_tables_fail_by_name(self, monkeypatch, table, radius):
        # at the cap each quadrant table needs about 12 GB: the allocation is refused, not made
        def refuse(*args, **kwargs):
            raise MemoryError

        class NoTable:
            def __getattr__(self, name):
                return refuse if name == table else getattr(np, name)

        monkeypatch.setattr(vf, "np", NoTable())
        with pytest.raises(ParameterError, match=f"^radius {radius}: the drift tables do not fit in memory$"):
            vf.verify_supermartingale(radius)

    @pytest.mark.parametrize("x, y, named", [(1.5, 0, "x"), (2, "1", "y"), (True, 1, "x")])
    def test_point_must_be_integers(self, x, y, named):
        with pytest.raises(ParameterError, match=f"^{named} must be an integer"):
            vf.supermartingale_delta(x, y)

    @pytest.mark.parametrize("radius", [2, 5, 30, 200])
    def test_diagonal_maximum_is_positive_zero(self, radius):
        # log1p(-0.0) is -0.0, which a report would write as "-0.0"
        assert math.copysign(1.0, vf.verify_supermartingale(radius).max_delta) == 1.0

    def test_direct_route_is_symmetric_in_x(self):
        # the grid computes the half-plane x >= 0 only, on this identity
        for x in range(0, 25):
            for y in range(-25, 26):
                if x or y:
                    left = vf.supermartingale_delta(-x, y).delta_direct
                    assert vf.supermartingale_delta(x, y).delta_direct == left


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
    @pytest.mark.parametrize("radius", range(1, 57))
    def test_equals_pointwise_scan(self, radius):
        # every field, floats by ==
        assert vf.verify_supermartingale(radius) == scan_drift_grid(radius)

    @pytest.mark.parametrize("radius", [57, 64, 97, 150])
    def test_equals_pointwise_scan_larger(self, radius):
        assert vf.verify_supermartingale(radius) == scan_drift_grid(radius)

    def test_pinned_radius_200(self):
        rep = vf.verify_supermartingale(200)
        assert rep.points == 80400
        assert rep.max_delta == 0.0
        assert rep.max_delta_point == (-100, -100)
        assert rep.max_agreement_gap == 3.1508266538754517e-15
        assert rep.passed

    @pytest.mark.parametrize(
        "radius, points, corner, gap",
        [(333, 222444, -166, 3.476567459900904e-15), (1000, 2002000, -500, 3.828800504657832e-15)],
    )
    def test_pinned_larger_radii(self, radius, points, corner, gap):
        rep = vf.verify_supermartingale(radius)
        assert repr(rep) == repr(vf.DriftGridReport(
            radius=radius, points=points, max_delta=0.0, max_delta_point=(corner, corner),
            max_agreement_gap=np.float64(gap), nonpositive=True, identity_failures=0,
            equality_diagonal_only=True, passed=True,
        ))


def orbits_to(radius):
    """Orbits a >= b >= 0 with 2 <= a + b <= radius, as int64 arrays."""
    k = np.arange(radius + 1)
    a, b = np.nonzero(np.tri(radius + 1, dtype=bool) & (np.add.outer(k, k) <= radius))
    return a[2:], b[2:]  # not (0, 0) or (1, 0)


def int_quotients(num, den2):
    """num / den2**2 on Python ints, correctly rounded."""
    return [n / d**2 for n, d in zip(num, den2)]


class TestQuotient:
    def orbit_terms(self, a, b):
        return a * a - b * b, 2 * (a * a + b * b) - 1

    def test_every_orbit_to_radius_300(self):
        d, e = self.orbit_terms(*orbits_to(300))
        got = vf._quotient(64.0 * (d * d), (e * e).astype(float))
        assert got.tolist() == int_quotients((64 * d * d).tolist(), (e * e).tolist())
        assert vf._orbit_quotients(d, e).tolist() == got.tolist()

    def test_random_orbits_to_the_bound(self):
        # 64 d^2 < 2**53 holds at every orbit up to radius 3444
        g = np.random.default_rng(7)
        s = g.integers(2, 3445, size=20000)
        b = g.integers(0, s // 2 + 1)
        d, e = self.orbit_terms(s - b, b)
        assert (64 * d * d < 1 << 53).all() and (e * e < 1 << 52).all()
        got = vf._quotient(64.0 * (d * d), (e * e).astype(float))
        assert got.tolist() == int_quotients((64 * d * d).tolist(), (e * e).tolist())

    def test_orbits_straddling_the_bound(self):
        # (3444, 0) is the last axis orbit inside the float route, (3445, 0) the first past it
        a = np.array([3444, 3445, 3445, 3444, 3446, 5000, 5793, 5000, vf.DRIFT_RADIUS_CAP, 19483])
        b = np.array([0, 0, 1, 1, 0, 17, 0, 5000, 0, 19483])
        d, e = self.orbit_terms(a, b)
        assert (64 * int(d[0]) ** 2 < 1 << 53) and (64 * int(d[1]) ** 2 >= 1 << 53)
        assert d[7] == 0 and int(e[7]) ** 2 >= 1 << 52  # (5000, 5000): only e^2 is past
        expected = [64 * t * t / (x * x) ** 2 for t, x in zip(d.tolist(), e.tolist())]
        assert vf._orbit_quotients(d, e).tolist() == expected

    def test_random_operands(self):
        g = np.random.default_rng(8)
        e2 = np.maximum(np.floor(2.0 ** g.uniform(0, 52, 20000)), 1.0)
        num = np.floor(2.0 ** g.uniform(0, 53, 20000))
        num[:100] = 0.0
        got = vf._quotient(num, e2)
        assert got.tolist() == int_quotients([int(v) for v in num], [int(v) for v in e2])
        assert all(math.copysign(1.0, v) == 1.0 for v in got[:100])

    def test_a_hair_from_a_midpoint(self):
        # (2M+1) e2^2 = 1 + num 2**55 puts num / e2^2 a distance 2**-55 / e2^2
        # below the midpoint (2M+1) 2**-55 between two doubles of [1/4, 1/2),
        # where the leading terms of the sign's expansion cancel
        g = random.Random(9)
        num, e2 = [], []
        while len(num) < 2000:
            e = g.randrange(95_000_000, 1 << 27) | 1
            odd = pow(e * e, -1, 1 << 55)
            if 1 << 53 <= odd < 1 << 54:
                num.append((odd * e * e - 1) >> 55)
                e2.append(e)
        got = vf._quotient(np.array(num, dtype=float), np.array(e2, dtype=float))
        assert got.tolist() == int_quotients(num, e2)

    @pytest.mark.parametrize(
        "num, e2",
        [(3242696690299058, 14927706447104), (1417494750298802, 872359845103),
         (1895548877771758, 3940601021), (2562520276467453, 73307533875)],
    )
    def test_first_doubles_of_a_binade(self, num, e2):
        # num / e2 / e2 lands on a power of two or the double above it, where
        # the spacing below is not the ulp; one neighbour test would round these wrong
        mantissa = math.frexp(num / e2 / e2)[0]
        assert mantissa in (0.5, 0.5 + 2.0**-53)
        assert vf._quotient(np.array([float(num)]), np.array([float(e2)]))[0] == num / e2**2


class TestIdentityCheck:
    CAP = vf.DRIFT_RADIUS_CAP

    def test_drift_identity_is_a_polynomial_identity(self):
        """prod(neighbor args) + 64(x^2-y^2)^2 = E^4 for all integers x, y.

        Each neighbor argument 2x'^2 + 2y'^2 - 1 and E = 2x^2 + 2y^2 - 1 have
        degree 2 in x and 2 in y, so P = prod(neighbor args) + 64(x^2-y^2)^2 -
        E^4 has degree at most 8 in x and at most 8 in y.  A polynomial with
        these degree bounds that vanishes on S x T, with |S| = |T| = 9, is
        zero (Alon, "Combinatorial Nullstellensatz", 1999, Lemma 2.1): at each
        y in T, P(., y) has degree <= 8 and 9 roots, so every coefficient of
        x^i, a polynomial in y of degree <= 8, has 9 roots too.  The grid
        scan reads exp(4*Delta) = 1 - 64(x^2-y^2)^2/E^4 on this identity
        alone, and reports ``identity_failures = 0``.
        """
        def P(x, y):
            product = math.prod(
                2 * nx * nx + 2 * ny * ny - 1 for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
            )
            return product + 64 * (x * x - y * y) ** 2 - (2 * x * x + 2 * y * y - 1) ** 4

        assert [P(x, y) for x in range(9) for y in range(9)] == [0] * 81

    def test_radius_above_cap_refused_before_any_array(self, monkeypatch):
        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} used")

        monkeypatch.setattr(vf, "np", NoArrays())
        with pytest.raises(ParameterError, match=f"radius {self.CAP + 1} exceeds {self.CAP}"):
            vf.verify_supermartingale(self.CAP + 1)


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

    def test_iterator_reads_as_its_list(self):
        assert vf.verify_elo(iter([1, 2, 3]), 1) == vf.verify_elo([1, 2, 3], 1)
        assert vf.verify_elo((v for v in [2, 2]), 2) == vf.verify_elo([2, 2], 2)


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

    @pytest.mark.parametrize("m", ["3", 2.5, True])
    def test_modulus_must_be_an_int(self, m):
        with pytest.raises(ParameterError, match=f"^modulus m must be an integer, got {m!r}$"):
            vf.verify_mod_lemma([1, 2, 3], m)

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
        # each ring trial's start comes back with its codes on its chunk's
        # reader, so no interleaving of pool threads can swap two starts
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
        "named, value", [("step", 1.5), ("step", True), ("trials", 2.5), ("workers", 1.5)]
    )
    def test_counts_must_be_integers(self, named, value):
        with pytest.raises(ParameterError, match=f"^{named} must be an integer, got {value!r}$"):
            vf.hitting_time_experiment(1, **{"trials": 5, named: value})

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

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda: vf.sup_pmf_trend(2.5), "k_max"),
            (lambda: vf.sup_pmf_trend(3, k_floor=2.5), "k_floor"),
            (lambda: exact.sup_pmf_running(2.5), "k_max"),
        ],
        ids=["trend-k_max", "trend-k_floor", "running-k_max"],
    )
    def test_counts_must_be_integers(self, call, named):
        with pytest.raises(ParameterError, match=f"^{named} must be an integer, got 2.5$"):
            call()

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
