"""Exact-distribution oracles: examples, invariants, and enumeration cross-checks."""

import ast
import hashlib
import inspect
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radwalk import cli, construction, exact, rng, sequences, verify, walk
from radwalk.errors import ParameterError, PreconditionError, SupportBudgetError
from radwalk.sequences import scaled_ints

HALF = Fraction(1, 2)


def enumerate_signed_sum(d):
    """Independent oracle: the signed-sum law by direct 2^k enumeration."""
    law = {}
    for signs in itertools.product((-1, 1), repeat=len(d)):
        v = sum(s * x for s, x in zip(signs, d))
        law[v] = law.get(v, Fraction(0)) + Fraction(1, 2 ** len(d))
    return law


def enumerate_walk(a):
    """Independent oracle: the 2-D walk law by direct 4^n enumeration."""
    dirs = ((1, 0), (-1, 0), (0, 1), (0, -1))
    law = {}
    for combo in itertools.product(dirs, repeat=len(a)):
        x = sum(s * c[0] for s, c in zip(a, combo))
        y = sum(s * c[1] for s, c in zip(a, combo))
        law[(x, y)] = law.get((x, y), Fraction(0)) + Fraction(1, 4 ** len(a))
    return law


class TestPmf1D:
    def test_single_step(self):
        assert exact.pmf_1d([1]).as_dict() == {-1: HALF, 1: HALF}

    def test_two_steps(self):
        assert exact.pmf_1d([1, 2]).as_dict() == {
            -3: Fraction(1, 4),
            -1: Fraction(1, 4),
            1: Fraction(1, 4),
            3: Fraction(1, 4),
        }

    def test_three_unit_steps(self):
        assert exact.pmf_1d([1, 1, 1]).as_dict() == {
            -3: Fraction(1, 8),
            -1: Fraction(3, 8),
            1: Fraction(3, 8),
            3: Fraction(1, 8),
        }

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            exact.pmf_1d([1, 0, 2])
        with pytest.raises(ParameterError):
            exact.pmf_1d([])

    def test_budget_error_states_bound(self, monkeypatch):
        monkeypatch.setattr(exact, "SUPPORT_BUDGET", 10)
        with pytest.raises(SupportBudgetError) as exc:
            exact.pmf_1d([100, 100])
        assert exc.value.budget == 10
        assert exc.value.required == 401

    def test_fractional_steps_exact(self):
        law = exact.pmf_1d([HALF, Fraction(3, 2)]).as_dict()
        assert law == {
            -2: Fraction(1, 4),
            -1: Fraction(1, 4),
            1: Fraction(1, 4),
            2: Fraction(1, 4),
        }

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=12))
    def test_matches_enumeration(self, d):
        assert exact.pmf_1d(d).as_dict() == enumerate_signed_sum(d)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=12))
    def test_normalization_and_symmetry(self, d):
        law = exact.pmf_1d(d)
        assert sum(law.masses) == 1
        assert all(w > 0 for w in law.weights)
        as_map = law.as_dict()
        assert all(as_map[-v] == m for v, m in as_map.items())
        span = sum(d)
        assert all(-span <= v <= span for v in law.values)


class TestPmf2D:
    def test_single_step(self):
        law = exact.pmf_2d([1]).as_dict()
        assert law == {
            (1, 0): Fraction(1, 4),
            (-1, 0): Fraction(1, 4),
            (0, 1): Fraction(1, 4),
            (0, -1): Fraction(1, 4),
        }

    def test_return_probability_two_steps(self):
        assert exact.pmf_2d([1, 1]).mass((0, 0)) == Fraction(1, 4)

    def test_return_probability_four_steps(self):
        law = exact.pmf_2d([1, 1, 1, 1])
        assert law.mass((0, 0)) == Fraction(9, 64)
        assert law.as_dict() == enumerate_walk([1, 1, 1, 1])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5))
    def test_dihedral_symmetry(self, a):
        law = exact.pmf_2d(a).as_dict()
        assert sum(law.values()) == 1
        for (x, y), m in law.items():
            assert law[(-x, y)] == m
            assert law[(x, -y)] == m
            assert law[(y, x)] == m

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(exact, "SUPPORT_BUDGET", 100)
        with pytest.raises(SupportBudgetError):
            exact.pmf_2d([50, 50])


class TestPackedRoutes:
    """The packed pmf_1d and the rotated pmf_2d against oracles that share no
    code with them: binomial weights and brute-force enumeration."""

    @pytest.mark.parametrize("k", [7, 8, 9, 15, 16, 17, 63, 64, 65, 130])
    def test_unit_steps_are_binomial(self, k):
        # the weights cross byte and 64-bit slot boundaries as k grows
        law = exact.pmf_1d([1] * k)
        assert law.values == tuple(range(-k, k + 1, 2))
        assert law.weights == tuple(math.comb(k, j) for j in range(k + 1))
        assert law.total == 2**k

    @pytest.mark.parametrize("k", [63, 64, 65, 130])
    def test_unit_steps_planar_return(self, k, monkeypatch):
        # P(S_k = 0) on the unit walk is C(k, k/2)^2 / 4^k for even k
        monkeypatch.setattr(exact, "SUPPORT_BUDGET", (2 * k + 1) ** 2)
        law = exact.pmf_2d([1] * k)
        expected = Fraction(math.comb(k, k // 2) ** 2, 4**k) if k % 2 == 0 else 0
        assert law.mass((0, 0)) == expected
        assert sum(law.weights) == law.total

    @pytest.mark.parametrize("k", [31, 32, 33])
    def test_unit_steps_planar_weights_are_binomial_products(self, k, monkeypatch):
        # products of 1-D weights in int64 up to 31 steps, in Python ints from 32 on
        monkeypatch.setattr(exact, "SUPPORT_BUDGET", (2 * k + 1) ** 2)
        law = exact.pmf_2d([1] * k)
        # u = x + y = 2i - k and v = x - y = 2j - k take C(k, i) and C(k, j) sign choices
        expected = {
            (i + j - k, i - j): math.comb(k, i) * math.comb(k, j)
            for i in range(k + 1) for j in range(k + 1)
        }
        assert law.points == tuple(sorted(expected))
        assert law.weights == tuple(expected[p] for p in law.points)
        assert all(type(w) is int for w in law.weights)
        assert law.total == 4**k

    @pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130])
    def test_step_order_leaves_the_law(self, n):
        """A shuffled list has the law of the list in its own order, one step at
        a time; the weights pass 64 bits from 64 steps on."""
        r = random.Random(n)
        d = [r.randint(1, 9) for _ in range(n)]
        law = {0: 1}  # the weights of the signed sum, step by step in d's order
        for s in d:
            step = {}
            for v, w in law.items():
                step[v - s] = step.get(v - s, 0) + w
                step[v + s] = step.get(v + s, 0) + w
            law = step
        shuffled = r.sample(d, n)
        got = exact.pmf_1d(shuffled)
        assert got.values == tuple(sorted(law))
        assert got.weights == tuple(law[v] for v in got.values)
        assert got.steps == tuple(shuffled)

    @pytest.mark.parametrize("k", [3, 63, 64, 130])
    def test_nonzero_slots_are_python_ints(self, k):
        # one 64-bit limb per slot below 64 steps, several from 64 on
        for packed, span in exact._running_laws([1] * k, k):
            pass
        j, weights = exact._nonzero_slots(packed, span + 1, k)
        assert j.tolist() == list(range(k + 1))
        assert weights == [math.comb(k, i) for i in range(k + 1)]
        assert all(type(w) is int for w in weights)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=9),
                st.fractions(min_value=Fraction(1, 6), max_value=5, max_denominator=6),
            ).filter(lambda f: f > 0),
            min_size=1,
            max_size=6,
        )
    )
    def test_pmf1d_matches_enumeration(self, d):
        law = exact.pmf_1d(d)
        assert law.as_dict() == enumerate_signed_sum(d)
        assert list(law.values) == sorted(law.values)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=6),
                st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4),
            ).filter(lambda f: f > 0),
            min_size=1,
            max_size=5,
        )
    )
    def test_pmf2d_matches_enumeration(self, a):
        law = exact.pmf_2d(a)
        assert law.as_dict() == enumerate_walk(a)
        assert list(law.points) == sorted(law.points)
        assert all(w > 0 for w in law.weights)

    def test_integer_steps_keep_int_coordinates(self):
        law = exact.pmf_2d([2, Fraction(4, 2)])
        assert all(type(c) is int for p in law.points for c in p)
        law = exact.pmf_2d([Fraction(1, 2), 1])
        assert (Fraction(3, 2), 0) in law.as_dict()
        assert (0, Fraction(1, 2)) in law.points

    @pytest.mark.parametrize(
        "steps, width", [([1, 2, 3], 13), ([Fraction(1, 2), Fraction(1, 3)], 11), ([5], 11)]
    )
    def test_budget_fires_at_the_same_sizes(self, steps, width, monkeypatch):
        # the support is 2*span + 1 points on the lattice of the scaled steps
        monkeypatch.setattr(exact, "SUPPORT_BUDGET", width)
        assert exact.pmf_1d(steps).total == 2 ** len(steps)
        monkeypatch.setattr(exact, "SUPPORT_BUDGET", width - 1)
        with pytest.raises(SupportBudgetError) as exc:
            exact.pmf_1d(steps)
        assert (exc.value.required, exc.value.budget) == (width, width - 1)
        monkeypatch.setattr(exact, "SUPPORT_BUDGET", width**2)
        assert exact.pmf_2d(steps).total == 4 ** len(steps)
        assert exact.hit_probability_2d(steps, (0, 0), len(steps)) >= 0
        monkeypatch.setattr(exact, "SUPPORT_BUDGET", width**2 - 1)
        with pytest.raises(SupportBudgetError) as exc:
            exact.pmf_2d(steps)
        assert (exc.value.required, exc.value.budget) == (width**2, width**2 - 1)
        with pytest.raises(SupportBudgetError) as exc:
            exact.hit_probability_2d(steps, (0, 0), len(steps))
        assert (exc.value.required, exc.value.budget) == (width**2, width**2 - 1)

    @pytest.mark.parametrize(
        "n, m, shown",
        [
            (1, 10**18 - 1, "999999999999999999 points"),
            (1, 10**18, "about 2**60 points"),
            (64, 6 * 10**17, "600000000000000000 points x 2 64-bit limbs = about 2**60"),
            (64, 1 << 200, "about 2**200 points x 2 64-bit limbs = about 2**201"),
        ],
        ids=["18-digits", "19-digits", "limbs-19-digits", "limbs-61-digits"],
    )
    def test_a_count_past_18_digits_is_shown_as_a_power_of_two(self, n, m, shown):
        # the residue route charges m slots of n // 64 + 1 limbs
        with pytest.raises(SupportBudgetError) as exc:
            exact.mod_probability_profile([1] * n, m)
        assert str(exc.value) == f"exact support needs {shown}, exceeding the budget of 10000000"
        assert exc.value.required == m * (n // 64 + 1)  # exact, whatever the message shows

    def test_interval_budget_counts_the_half_width_lattice(self, monkeypatch):
        # steps 1, 2 on the lattice of D = 1/2: scaled 2 and 4, 13 points
        monkeypatch.setattr(exact, "SUPPORT_BUDGET", 13)
        assert exact.max_interval_probability([1, 2], HALF)[0] == Fraction(1, 4)
        monkeypatch.setattr(exact, "SUPPORT_BUDGET", 12)
        with pytest.raises(SupportBudgetError, match="needs 13 points, exceeding the budget of 12$") as exc:
            exact.max_interval_probability([1, 2], HALF)
        assert (exc.value.required, exc.value.budget) == (13, 12)


class TestModProbability:
    def test_single_odd_step_mod_two(self):
        assert exact.mod_probability([1], 2, 0) == 0

    def test_two_steps_mod_three(self):
        assert exact.mod_probability([1, 2], 3, 0) == HALF

    def test_three_steps_mod_three(self):
        assert exact.mod_probability([1, 2, 3], 3, 0) == HALF

    def test_degenerate_modulus(self):
        for d in ([1], [1, 2, 3], [7, 7, 7]):
            assert exact.mod_probability(d, 1, 0) == 1

    def test_rejects_non_integer_steps(self):
        with pytest.raises(ParameterError):
            exact.mod_probability([HALF], 2, 0)

    @pytest.mark.parametrize(
        "d, message",
        [
            ([1, HALF], "d[1] must be an integer for modular arithmetic, got 1/2"),
            ([3, 0.5], "d[1] must be an integer for modular arithmetic, got 0.5"),
            ([1, 0], "d[1] must be > 0, got 0"),
            ([-2, 1], "d[0] must be > 0, got -2"),
            ([], "d must be nonempty"),
            (["abc"], "d[0] must be a rational number, got 'abc'"),
            ([2, math.nan], "d[1] must be a rational number, got nan"),
        ],
    )
    def test_single_fault_named(self, d, message):
        for call in (lambda: exact.mod_probability(d, 2, 0), lambda: exact.mod_probability_profile(d, 2)):
            with pytest.raises(ParameterError) as exc:
                call()
            assert str(exc.value) == message

    @pytest.mark.parametrize("bad, message", [("abc", "'abc'"), (math.nan, "nan"), (math.inf, "inf")])
    def test_every_oracle_names_a_non_number(self, bad, message):
        for call in (
            lambda: exact.pmf_1d([1, bad]), lambda: exact.pmf_2d([1, bad]),
            lambda: exact.max_interval_probability([1, bad], 1), lambda: exact.hoeffding_tail([1, bad], 1),
            lambda: exact.hit_probability_2d([1, bad], (0, 0), 1),
        ):
            with pytest.raises(ParameterError, match=f"^[ad]\\[1\\] must be a rational number, got {message}$"):
                call()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: exact.hoeffding_tail([1, 2], "abc"), "threshold t must be a rational number, got 'abc'"),
            (lambda: exact.hoeffding_tail([1, 2], math.inf), "threshold t must be a rational number, got inf"),
            (lambda: exact.max_interval_probability([1, 2], math.nan),
             "half-width D must be a rational number, got nan"),
            (lambda: exact.max_interval_probability([1, 2], math.inf),
             "half-width D must be a rational number, got inf"),
            (lambda: exact.mod_probability([1, 2], 2.5, 0), "modulus m must be an integer, got 2.5"),
            (lambda: exact.mod_probability([1, 2], 3, 0.5), "residue must be an integer, got 0.5"),
            (lambda: exact.mod_probability([1, 2], True, 0), "modulus m must be an integer, got True"),
            (lambda: exact.mod_probability_profile([1, 2], 2.5), "modulus m must be an integer, got 2.5"),
            (lambda: exact.hit_probability_2d([1, 1], (0, 0), 1.5), "horizon must be an integer, got 1.5"),
        ],
        ids=["t-abc", "t-inf", "D-nan", "D-inf", "m-float", "residue-float", "m-bool", "profile-m",
             "horizon-float"],
    )
    def test_scalar_parameters_fail_by_name(self, call, message):
        with pytest.raises(ParameterError) as exc:
            call()
        assert str(exc.value) == message

    def test_integral_parameters_accept_numpy_ints(self):
        assert exact.mod_probability([1, 2], np.int64(3), np.int64(0)) == exact.mod_probability([1, 2], 3, 0)

    def test_profile_budget_counts_slots(self):
        # 10**8 residue slots of one limb would take 800 MB: refused before any shift
        t0 = time.perf_counter()
        with pytest.raises(SupportBudgetError, match="needs 100000000 points, exceeding") as exc:
            exact.mod_probability_profile([1], 10**8)
        assert time.perf_counter() - t0 < 1.0
        assert (exc.value.required, exc.value.budget) == (10**8, exact.SUPPORT_BUDGET)
        with pytest.raises(SupportBudgetError, match=r"needs 5000000 points x 3 64-bit limbs = 15000000"):
            exact.mod_probability_profile([1] * 128, 5 * 10**6)

    def test_rejects_bad_residue(self):
        with pytest.raises(ParameterError):
            exact.mod_probability([1], 3, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=12),
    )
    def test_residue_route_matches_full_route(self, d, m):
        for residue in range(m):
            assert exact.mod_probability(d, m, residue, method="residue") == (
                exact.mod_probability(d, m, residue, method="full")
            )

    def test_profile_sums_to_one(self):
        profile = exact.mod_probability_profile(list(range(1, 17)), 16)
        assert sum(profile) == 1
        assert max(profile) == exact.mod_probability(list(range(1, 17)), 16, 0)


def loop_mod_profile(d, m):
    """Reference oracle: the residue-class law, one pass over the m classes
    per step."""
    vec = [1] + [0] * (m - 1)
    for s in d:
        new = [0] * m
        for r, wt in enumerate(vec):
            if wt:
                new[(r + s) % m] += wt
                new[(r - s) % m] += wt
        vec = new
    return [Fraction(w, 1 << len(d)) for w in vec]


@st.composite
def profile_cases(draw):
    """Steps 1..200 with lengths around the 64-bit limb edges, and moduli
    that are 1, above every step, or a divisor of a step."""
    k = draw(st.sampled_from([63, 64, 65, 128]) | st.integers(1, 130))
    d = draw(st.lists(st.integers(1, 200), min_size=k, max_size=k))
    divisor = draw(st.sampled_from(d).flatmap(lambda s: st.sampled_from(
        [q for q in range(1, s + 1) if s % q == 0])))
    m = draw(st.just(1) | st.integers(201, 1100) | st.just(divisor) | st.integers(2, 300))
    return d, m


class TestModProfile:
    @settings(max_examples=150, deadline=None)
    @given(profile_cases())
    @example(([1] * 63, 1))
    @example(([200] * 64, 1024))
    @example(([5, 10, 15] * 21 + [7, 3], 5))
    @example((list(range(1, 129)), 128))
    @example((list(range(72, 201)), 64))
    def test_packed_matches_loop(self, case):
        d, m = case
        assert exact.mod_probability_profile(d, m) == loop_mod_profile(d, m)


class TestSupPmf:
    def test_examples(self):
        assert exact.sup_pmf([1]) == HALF
        assert exact.sup_pmf([1, 1, 1]) == Fraction(3, 8)
        assert exact.sup_pmf([1, 2, 3]) == Fraction(1, 4)


class TestMaxIntervalProbability:
    def test_single_step(self):
        sup, _ = exact.max_interval_probability([1], 1)
        assert sup == HALF

    def test_four_unit_steps(self):
        sup, x = exact.max_interval_probability([1, 1, 1, 1], 1)
        assert sup == Fraction(3, 8)
        # the returned center must realize the supremum: (x-1, x+1] holds 3/8
        law = exact.pmf_1d([1, 1, 1, 1]).as_dict()
        window = sum(m for v, m in law.items() if x - 1 < v <= x + 1)
        assert window == sup

    def test_spaced_steps(self):
        sup, _ = exact.max_interval_probability([2, 2], 2)
        assert sup == HALF

    def test_requires_steps_at_least_half_width(self):
        with pytest.raises(PreconditionError):
            exact.max_interval_probability([1, 2], 2)

    def test_requires_positive_half_width(self):
        with pytest.raises(ParameterError):
            exact.max_interval_probability([1], 0)

    def test_half_open_orientation(self):
        # law of (1,): window (x-1, x+1] at x=0 contains +1 but not -1
        law = exact.pmf_1d([1]).as_dict()
        assert sum(m for v, m in law.items() if -1 < v <= 1) == HALF

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda D: st.tuples(
                st.just(D),
                st.lists(
                    st.integers(min_value=D, max_value=4 * D), min_size=1, max_size=16
                ),
            )
        )
    )
    def test_anti_concentration_bound_on_sampled_envelope(self, case):
        # window mass never exceeds 0.8/sqrt(m) when every step is >= D
        D, d = case
        m = len(d)
        sup, _ = exact.max_interval_probability(d, D)
        assert sup * sup * m <= Fraction(16, 25)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=8))
    def test_never_beats_sliding_scan(self, d):
        # independent oracle: scan all windows ending at each support point
        sup, _ = exact.max_interval_probability(d, 2)
        law = exact.pmf_1d(d).as_dict()
        best = max(
            sum(m for v, m in law.items() if s - 4 < v <= s) for s in law
        )
        assert sup == best


def dp_hit_probability(a, target, horizon):
    """Reference oracle: first passage by dynamic programming over the 2-D
    law, the target absorbing from step 1 on."""
    ints, scale = scaled_ints([Fraction(s) for s in a]) if a else ([], 1)
    tx, ty = Fraction(target[0]) * scale, Fraction(target[1]) * scale
    if tx.denominator != 1 or ty.denominator != 1:
        return Fraction(0)
    tkey = (int(tx), int(ty))
    state = {(0, 0): 1}
    absorbed = Fraction(0)
    for n in range(horizon):
        s = ints[n]
        new = {}
        for (x, y), wt in state.items():
            for key in ((x + s, y), (x - s, y), (x, y + s), (x, y - s)):
                new[key] = new.get(key, 0) + wt
        hit = new.pop(tkey, 0)
        if hit:
            absorbed += Fraction(hit, 1 << (2 * (n + 1)))
        state = new
    return absorbed


#: P(the unit walk visits (5, 0) within 125 steps), about 0.182309: criterion
#: 6's r = 5 case, recorded from the dynamic-programming route.
UNIT_R5_HIT = Fraction(
    329843622320248266379092091409896982440712961487067973435904249613171020793, 4**125
)


class TestHitProbability:
    def test_two_unit_steps(self):
        assert exact.hit_probability_2d([1, 1], (0, 0), 2) == Fraction(1, 4)

    def test_unequal_steps_cannot_cancel(self):
        assert exact.hit_probability_2d([1, 2], (0, 0), 2) == 0

    def test_horizon_zero(self):
        assert exact.hit_probability_2d([1, 1], (0, 0), 0) == 0

    def test_horizon_beyond_steps(self):
        with pytest.raises(ParameterError):
            exact.hit_probability_2d([1, 1], (0, 0), 3)

    def test_budget_counts_only_the_steps_walked(self):
        # the squared support of all six steps is 4000044000121 points, of the five walked 121
        want = exact.hit_probability_2d([1] * 5, (1, 0), 5)
        assert exact.hit_probability_2d([1] * 5 + [10**6], (1, 0), 5) == want

    def test_first_passage_vs_enumeration(self):
        # oracle: fraction of 4^3 paths visiting (1,0) at step >= 1
        dirs = ((1, 0), (-1, 0), (0, 1), (0, -1))
        a = [1, 1, 1]
        count = 0
        for combo in itertools.product(dirs, repeat=3):
            x = y = 0
            for s, c in zip(a, combo):
                x += s * c[0]
                y += s * c[1]
                if (x, y) == (1, 0):
                    count += 1
                    break
        assert exact.hit_probability_2d(a, (1, 0), 3) == Fraction(count, 64)

    def test_off_lattice_target(self):
        assert exact.hit_probability_2d([1, 1], (1, 1), 2) > 0
        assert exact.hit_probability_2d([2, 2], (1, 0), 2) == 0

    @settings(max_examples=250, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=4),
                st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=3),
            ).filter(lambda f: f > 0),
            min_size=1,
            max_size=9,
        ).flatmap(lambda a: st.tuples(st.just(a), st.integers(0, len(a)))),
        st.tuples(
            st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6)),
            st.integers(-4, 4),
        ),
    )
    def test_renewal_matches_dp(self, case, target):
        a, horizon = case
        assert exact.hit_probability_2d(a, target, horizon) == dp_hit_probability(a, target, horizon)
        assert exact.hit_probability_2d(a, (0, 0), horizon) == dp_hit_probability(a, (0, 0), horizon)

    def test_unit_walk_r5_pinned(self):
        assert exact.hit_probability_2d([1] * 125, (5, 0), 125) == UNIT_R5_HIT
        assert float(UNIT_R5_HIT) == pytest.approx(0.182309, abs=5e-7)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=3),
                st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=2),
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(0, 13),
        st.integers(0, 2),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    @example([2, 2, 3], 8, 0, (1, 0))
    @example([HALF, 1], 7, 2, (Fraction(1, 2), 0))
    @example([1], 12, 0, (2, 0))
    def test_periodic_renewal_matches_dp(self, pattern, horizon, extra, target):
        # tiled patterns have a period p < horizon, one return row per phase
        a = (pattern * 16)[: horizon + extra]
        assert exact.hit_probability_2d(a, target, horizon) == dp_hit_probability(a, target, horizon)
        assert exact.hit_probability_2d(a, (0, 0), horizon) == dp_hit_probability(a, (0, 0), horizon)

    @pytest.mark.parametrize(
        "a, target, period",
        [([1] * 40, (2, 0), 1), ([2, 2, 3] * 10, (1, 0), 3), ([2, 3, 5, 7] * 6 + [2], (0, 0), 4)],
    )
    def test_return_rows_one_per_phase(self, a, target, period, monkeypatch):
        built = []
        laws = exact._running_laws

        def counting(ints, depth):
            built.append(len(ints))
            return laws(ints, depth)

        monkeypatch.setattr(exact, "_running_laws", counting)
        assert exact.hit_probability_2d(a, target, len(a)) == dp_hit_probability(a, target, len(a))
        assert built[0] == len(a)  # the target row
        assert 1 <= len(built) - 1 <= period

    def test_unit_walk_r10_pinned(self):
        # recorded from the one-row-per-start renewal; about 0.2031355
        p = exact.hit_probability_2d([1] * 1000, (10, 0), 1000)
        assert p.denominator == 2**1987
        assert hashlib.sha256(str(p).encode()).hexdigest() == (
            "c2664a1153c2c6a6ce2b3eb212ba906f83798df8be0df73a912e79593cec040c"
        )
        assert float(p) == pytest.approx(0.2031355, abs=5e-8)


class TestEngine:
    #: The functions that know the slot layout of the packed laws.
    LAYOUT = {"_running_laws", "_weight_at", "_nonzero_slots", "mod_probability_profile"}

    @staticmethod
    def tree(mod):
        return ast.parse(inspect.getsource(mod))

    def test_one_shift_add_product(self):
        """``packed += packed << ...`` lives in the engine and the folded residue product."""

        def is_shift_add(n):
            if isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Add):
                added = n.value
            elif isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add):
                added = n.right
            else:
                return False
            return isinstance(added, ast.BinOp) and isinstance(added.op, ast.LShift)

        owners = {
            fn.name
            for mod in (cli, construction, exact, rng, sequences, verify, walk)
            for fn in self.tree(mod).body
            if isinstance(fn, ast.FunctionDef) and any(is_shift_add(n) for n in ast.walk(fn))
        }
        assert owners == {"_running_laws", "mod_probability_profile"}

    def test_only_the_engine_knows_the_slot_layout(self):
        """Elsewhere in exact and verify a shift only makes a power of two, and
        neither verify nor the renewal computes with a law's span."""
        for mod in (exact, verify):
            tree = self.tree(mod)
            layout = {
                id(n) for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name in self.LAYOUT for n in ast.walk(fn)
            }
            for n in ast.walk(tree):
                if id(n) not in layout and isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(
                    n.op, (ast.LShift, ast.RShift)
                ):
                    assert isinstance(n, ast.BinOp) and getattr(n.left, "value", None) == 1, ast.unparse(n)
        (renewal,) = [fn for fn in self.tree(exact).body if getattr(fn, "name", "") == "hit_probability_2d"]
        for tree in (self.tree(verify), renewal):
            for n in ast.walk(tree):
                operands = [getattr(n, f, None) for f in ("left", "right", "target", "value")]
                operands += getattr(n, "comparators", [])
                if isinstance(n, (ast.BinOp, ast.AugAssign, ast.Compare)):
                    assert "span" not in {getattr(x, "id", None) for x in operands}, ast.unparse(n)
        used = {n.attr for n in ast.walk(self.tree(verify)) if isinstance(n, ast.Attribute)}
        assert not used & {"_running_laws", "_weight_at", "_nonzero_slots", "_signed_sum_weights", "sup_pmf"}

    @pytest.mark.parametrize("k_max", [1, 2, 7, 64, 65, 200])
    def test_running_sup_matches_full_decode(self, k_max):
        sups = exact.sup_pmf_running(k_max)
        assert len(sups) == k_max
        for k in {min(k, k_max) for k in (1, 2, 3, k_max // 2 or 1, k_max)}:
            assert sups[k - 1] == exact.sup_pmf(range(1, k + 1))

    def test_budget_before_the_first_shift(self, monkeypatch):
        monkeypatch.setattr(exact, "SUPPORT_BUDGET", 13)
        laws = exact._running_laws([1, 2, 3, 1], 4)
        with pytest.raises(SupportBudgetError) as exc:
            next(laws)
        assert (exc.value.required, exc.value.budget) == (15, 13)
        assert len(list(exact._running_laws([1, 2, 3], 3))) == 3

    @pytest.mark.parametrize("depth, limbs", [(63, 1), (64, 2), (130, 3)])
    def test_budget_counts_the_limbs_of_a_slot(self, depth, limbs, monkeypatch):
        # 64 unit steps: 129 points, each slot packed in depth // 64 + 1 limbs
        monkeypatch.setattr(exact, "SUPPORT_BUDGET", 129 * limbs)
        assert len(list(exact._running_laws([1] * 64, depth))) == 64
        monkeypatch.setattr(exact, "SUPPORT_BUDGET", 129 * limbs - 1)
        with pytest.raises(SupportBudgetError) as exc:
            next(exact._running_laws([1] * 64, depth))
        assert (exc.value.required, exc.value.budget) == (129 * limbs, 129 * limbs - 1)


class TestHoeffdingTail:
    def test_two_unit_steps(self):
        rep = exact.hoeffding_tail([1, 1], 2)
        assert rep.exact_tail == HALF
        assert rep.bound == pytest.approx(2 * 2.718281828459045**-1)
        assert float(rep.exact_tail) <= rep.bound

    def test_single_step_threshold_beyond_range(self):
        rep = exact.hoeffding_tail([1], 2)
        assert rep.exact_tail == 0

    def test_a_threshold_on_a_support_value_counts_it(self):
        d = [HALF, Fraction(1, 3)]  # the signed sum is +-5/6 or +-1/6
        assert exact.hoeffding_tail(d, Fraction(5, 6)).exact_tail == HALF
        assert exact.hoeffding_tail(d, Fraction(5, 6) + Fraction(1, 10**9)).exact_tail == 0
        assert exact.hoeffding_tail(d, Fraction(1, 6)).exact_tail == 1
        assert exact.hoeffding_tail(d, Fraction(1, 6) + Fraction(1, 10**9)).exact_tail == HALF

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=6),
                st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6),
            ).filter(lambda f: f > 0),
            min_size=1,
            max_size=7,
        ),
        st.data(),
    )
    def test_exact_tail_matches_enumeration(self, d, data):
        law = enumerate_signed_sum(d)
        on_support = sorted(v for v in law if v > 0) or [sum(d)]
        t = data.draw(st.one_of(
            st.sampled_from(on_support),
            st.fractions(min_value=Fraction(1, 12), max_value=math.ceil(sum(d)) + 1, max_denominator=12)
            .filter(lambda f: f > 0),
        ))
        assert exact.hoeffding_tail(d, t).exact_tail == sum(m for v, m in law.items() if abs(v) >= t)

    def test_no_exact_tail_where_pmf_1d_is_refused(self, monkeypatch):
        steps = [HALF, Fraction(1, 3)]  # 3 and 2 on the lattice of 1/6: 11 points
        monkeypatch.setattr(exact, "SUPPORT_BUDGET", 11)
        assert exact.hoeffding_tail(steps, 1).exact_tail == 0
        monkeypatch.setattr(exact, "SUPPORT_BUDGET", 10)
        with pytest.raises(SupportBudgetError):
            exact.pmf_1d(steps)
        assert exact.hoeffding_tail(steps, 1).exact_tail is None

    def test_small_threshold_clamped(self):
        rep = exact.hoeffding_tail([1, 1], Fraction(1, 100))
        assert rep.bound_raw > 1
        assert rep.bound == 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=20),
    )
    def test_bound_dominates_exact_tail(self, d, t):
        rep = exact.hoeffding_tail(d, t)
        assert float(rep.exact_tail) <= rep.bound_raw + 1e-12
