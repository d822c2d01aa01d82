"""Step-sequence families and their structural analyses."""

import ast
import inspect
import itertools
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radwalk import sequences as sq
from radwalk.errors import (
    DecompositionError,
    OverflowRefusal,
    ParameterError,
    PreconditionError,
    RadwalkError,
)

#: A one-round construction plan: the sequence 2, 2, 3, 2, 2, 3.
PLAN = {
    "rounds": [{"index": 0, "pair": [2, 3, 2, 1], "n0": 2, "n_start": 0, "n_end": 6,
                "radius": 0, "alpha": 0, "estimate": None}],
    "status": "inconclusive", "master_seed": 0, "confidence": 0.95, "trials": 8,
    "radius_mode": "coarse",
}


class TestMakeSequence:
    def test_constant(self):
        s = sq.make_sequence("constant", value=1)
        assert [s(n) for n in (1, 5, 100)] == [1, 1, 1]

    def test_floor_power_identity(self):
        s = sq.make_sequence("floor-power", gamma=1)
        assert s(5) == 5

    def test_floor_power_sqrt(self):
        s = sq.make_sequence("floor-power", gamma=Fraction(1, 2))
        assert s(10) == 3

    def test_floor_power_is_exact_integer(self):
        s = sq.make_sequence("floor-power", gamma=Fraction(2, 3))
        for n in (1, 7, 1000, 10**6):
            a = s(n)
            assert isinstance(a, int)
            assert a**3 <= n**2 < (a + 1) ** 3

    def test_real_power_dyadic(self):
        s = sq.make_sequence("real-power", alpha=Fraction(1, 2))
        a2 = s(2)
        assert isinstance(a2, Fraction)
        assert (1 << 64) % a2.denominator == 0  # dyadic with bounded denominator
        assert abs(float(a2) - 2**0.5) < 2**-60

    def test_real_power_alpha_one(self):
        s = sq.make_sequence("real-power", alpha=1)
        assert s(7) == 7

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            sq.make_sequence("floor-power", gamma=0)
        with pytest.raises(ParameterError):
            sq.make_sequence("real-power", alpha=Fraction(3, 2))
        with pytest.raises(ParameterError):
            sq.make_sequence("real-power", alpha=0)
        with pytest.raises(ParameterError):
            sq.make_sequence("explicit-list", values=[])
        with pytest.raises(ParameterError):
            sq.make_sequence("explicit-list", values=[1, -2])
        with pytest.raises(ParameterError):
            sq.make_sequence("no-such-family")
        with pytest.raises(ParameterError):
            sq.make_sequence("constant", value=0)

    def test_evaluation_is_pure(self):
        s = sq.make_sequence("floor-power", gamma=Fraction(3, 7))
        assert [s(13)] * 5 == [s(13) for _ in range(5)]

    def test_index_bounds(self):
        s = sq.make_sequence("explicit-list", values=[1, 2])
        with pytest.raises(ParameterError):
            s(0)
        with pytest.raises(ParameterError):
            s(3)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=7),
    )
    def test_floor_power_root_identity(self, n, p, q):
        s = sq.make_sequence("floor-power", gamma=Fraction(p, q))
        a = s(n)
        assert a >= 1
        assert a**q <= n**p < (a + 1) ** q


class TestSerialization:
    @pytest.mark.parametrize(
        "family,params",
        [
            ("constant", {"value": 3}),
            ("floor-power", {"gamma": Fraction(1, 2)}),
            ("real-power", {"alpha": Fraction(2, 3), "precision_bits": 32}),
            ("explicit-list", {"values": [1, Fraction(5, 2), 3]}),
            ("explicit-block", {"scale": "exact"}),
            ("explicit-block", {"scale": "scaled"}),
            ("floor-power", {"gamma": 2}),
            ("real-power", {"alpha": 1}),
        ],
    )
    def test_config_roundtrip(self, family, params):
        s = sq.make_sequence(family, **params)
        config = s.to_config()
        json.dumps(config)  # must be serializable text
        s2 = sq.sequence_from_config(config)
        assert s2.to_config() == config
        n_probe = min(4, s.length or 4)
        assert s2.prefix(n_probe) == s.prefix(n_probe)

    @pytest.mark.parametrize(
        "family, params, config",
        [
            ("floor-power", {"gamma": Fraction(4, 2)}, {"gamma": 2}),
            ("floor-power", {"gamma": "3/2"}, {"gamma": "3/2"}),
            ("real-power", {"alpha": 1}, {"alpha": 1, "precision_bits": 64}),
            ("constant", {"value": "6/3"}, {"value": 2}),
            ("explicit-list", {"values": [2, "5/2"]}, {"values": [2, "5/2"]}),
        ],
    )
    def test_whole_numbers_stay_ints(self, family, params, config):
        assert sq.make_sequence(family, **params).to_config() == {"family": family, "params": config}

    @pytest.mark.parametrize(
        "build, n",
        [
            (lambda: sq.make_sequence("constant", value=3), 50),
            (lambda: sq.make_sequence("constant", value=Fraction(3, 7)), 50),
            (lambda: sq.make_sequence("floor-power", gamma=2), 50),
            (lambda: sq.make_sequence("floor-power", gamma=Fraction(1, 2)), 50),
            (lambda: sq.make_sequence("real-power", alpha=Fraction(1, 2), precision_bits=8), 50),
            (lambda: sq.make_sequence("explicit-list", values=[1, Fraction(5, 2), 3]), 3),
            (lambda: sq.explicit_block_sequence(), 70_000),
            (lambda: sq.explicit_block_sequence(exponent_bit_budget=16), 65553),
            (lambda: sq.explicit_block_sequence(scale="scaled"), 5000),
            (lambda: sq.make_sequence("from-construction-plan", plan=PLAN), 6),
        ],
        ids=["constant", "constant-3/7", "floor-power", "floor-power-1/2", "real-power",
             "explicit-list", "block-exact", "block-exact-budget-16", "block-scaled", "plan"],
    )
    def test_config_text_rebuilds_the_sequence(self, build, n):
        # the same config, and the same prefix or the same refusal
        def prefix_or_refusal(seq):
            try:
                return seq.prefix(n)
            except RadwalkError as exc:
                return type(exc)

        s = build()
        rebuilt = sq.sequence_from_config(json.loads(json.dumps(s.to_config())))
        assert rebuilt.to_config() == s.to_config()
        assert prefix_or_refusal(rebuilt) == prefix_or_refusal(s)

    def test_scaled_block_growth_names(self):
        s = sq.make_sequence("explicit-block", scale="scaled", growth="default-pow2")
        assert s.to_config()["params"]["growth"] == "default-pow2"
        assert s.prefix(20) == sq.explicit_block_sequence(scale="scaled").prefix(20)
        custom = {"family": "explicit-block", "params": {"scale": "scaled", "growth": "custom"}}
        with pytest.raises(ParameterError, match="^growth must be .*'custom'"):
            sq.sequence_from_config(custom)

    @pytest.mark.parametrize(
        "family, params, key",
        [
            ("constant", {"vlaue": 5}, "vlaue"),
            ("floor-power", {"gamma": "1/2", "gama": 3}, "gama"),
            ("explicit-list", {"values": [1], "value": 2}, "value"),
            ("explicit-block", {"scale": "scaled", "grwoth": "default-pow2"}, "grwoth"),
        ],
    )
    def test_unknown_params_rejected_by_name(self, family, params, key):
        with pytest.raises(ParameterError, match=f"'{key}'"):
            sq.sequence_from_config({"family": family, "params": params})

    # texts of L + 1 digits and of L, L = sys.get_int_max_str_digits()
    PAST_LIMIT = {
        "huge exponent": lambda L: "1e9999999",  # 10**9999999 alone takes seconds to build
        "exponent": lambda L: f"1e{L}",
        "mantissa and exponent": lambda L: f"1.5e{L - 1}",
        "negative exponent": lambda L: f"1e-{L}",
        "digits": lambda L: "9" * (L + 1),
        "denominator": lambda L: "1/" + "9" * (L + 1),
    }
    AT_LIMIT = {
        "exponent": lambda L: f"1e{L - 1}",
        "negative exponent": lambda L: f"5e-{L - 1}",
        "digits": lambda L: "9" * L,
        "denominator": lambda L: "1/" + "9" * L,
    }

    @pytest.mark.parametrize("form", sorted(PAST_LIMIT))
    def test_text_past_the_digit_limit_fails_by_name(self, form):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ParameterError, match=f"^gamma must have at most {limit} digits, got"):
            sq.make_sequence("floor-power", gamma=self.PAST_LIMIT[form](limit))

    @pytest.mark.parametrize("form", sorted(AT_LIMIT))
    def test_text_at_the_digit_limit_is_taken(self, form):
        text = self.AT_LIMIT[form](sys.get_int_max_str_digits())
        assert sq._fraction_param(text, "x") == Fraction(text)

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ParameterError):
            sq.sequence_from_config({"family": "constant", "params": {}, "bogus": 1})

    def test_explicit_list_file(self, tmp_path):
        path = tmp_path / "steps.txt"
        path.write_text("# comment\n1\n2\n5/2\n", encoding="utf-8")
        s = sq.load_explicit_list(path)
        assert s.prefix(3) == [1, 2, Fraction(5, 2)]


class TestRunLengthDecompose:
    def test_example(self):
        s = sq.make_sequence("explicit-list", values=[2, 2, 3, 3, 3, 5])
        d = sq.run_length_decompose(s, 6)
        assert d.values == (2, 3, 5)
        assert d.multiplicities == (2, 3, 1)
        assert d.starts == (1, 3, 6)

    def test_single_block(self):
        s = sq.make_sequence("explicit-list", values=[1, 1, 1, 1])
        d = sq.run_length_decompose(s, 4)
        assert d.values == (1,)
        assert d.multiplicities == (4,)

    def test_error_carries_offending_index(self):
        s = sq.make_sequence("explicit-list", values=[1, 2, 1])
        with pytest.raises(DecompositionError) as exc:
            sq.run_length_decompose(s, 3)
        assert exc.value.index == 3

    def test_non_integer_rejected(self):
        s = sq.make_sequence("explicit-list", values=[1, Fraction(3, 2)])
        with pytest.raises(DecompositionError) as exc:
            sq.run_length_decompose(s, 2)
        assert exc.value.index == 2

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40))
    def test_roundtrip(self, increments):
        values = []
        cur = 1
        for inc in increments:
            cur += inc
            values.append(cur)
        s = sq.make_sequence("explicit-list", values=values)
        d = sq.run_length_decompose(s, len(values))
        assert d.expand() == values
        assert all(b1 < b2 for b1, b2 in zip(d.values, d.values[1:]))
        assert all(
            d.starts[j + 1] - d.starts[j] == d.multiplicities[j]
            for j in range(len(d.starts) - 1)
        )


class TestDoublingExtraction:
    def test_linear_sixteen(self):
        s = sq.make_sequence("floor-power", gamma=1)
        cert = sq.extract_doubling_subsequence(s, 16, 1)
        assert cert.indices == (1, 2, 4, 8, 16)
        assert cert.size == 5
        assert cert.ratio == Fraction(5, 4)

    def test_linear_four(self):
        s = sq.make_sequence("floor-power", gamma=1)
        cert = sq.extract_doubling_subsequence(s, 4, 1)
        assert cert.indices == (1, 2, 4)

    def test_constant_trivial(self):
        s = sq.make_sequence("constant", value=5)
        cert = sq.extract_doubling_subsequence(s, 9)
        assert cert.indices == (9,)
        assert cert.size == 1

    @pytest.mark.parametrize("p", [2, 4, 6, 10])
    def test_powers_of_two_maximal(self, p):
        s = sq.make_sequence("floor-power", gamma=1)
        cert = sq.extract_doubling_subsequence(s, 2**p)
        assert cert.size == p + 1
        assert cert.ratio == Fraction(p + 1, p)

    def test_measured_gap_default(self):
        s = sq.make_sequence("floor-power", gamma=1)
        cert = sq.extract_doubling_subsequence(s, 8)
        assert cert.gap_bound == 1

    def test_supplied_gap_checked(self):
        s = sq.make_sequence("explicit-list", values=[1, 10, 20])
        with pytest.raises(PreconditionError):
            sq.extract_doubling_subsequence(s, 3, 2)

    def test_requires_values_at_least_one(self):
        s = sq.make_sequence("explicit-list", values=[Fraction(1, 2), 1])
        with pytest.raises(PreconditionError):
            sq.extract_doubling_subsequence(s, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=60))
    def test_certificate_always_verifies(self, increments):
        values = [1]
        for inc in increments:
            values.append(max(1, values[-1] + inc))
        s = sq.make_sequence("explicit-list", values=values)
        cert = sq.extract_doubling_subsequence(s, len(values))
        assert cert.verify(s)
        assert cert.indices[-1] == len(values)
        assert all(i < j for i, j in zip(cert.indices, cert.indices[1:]))


def reference_doubling(seq, n, gap_bound=None):
    """The Fraction scan that the integer scan of extract_doubling_subsequence
    replaced: the certificate, or the exception it raises."""
    try:
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n!r}")
        vals = [Fraction(seq.value(i)) for i in range(1, n + 1)]
        for i, v in enumerate(vals):
            if v < 1:
                raise PreconditionError(f"a_{i + 1} = {v} < 1; extraction requires a_m >= 1")
        measured = max((abs(vals[i + 1] - vals[i]) for i in range(n - 1)), default=Fraction(0))
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
        picked = [n]
        cur = vals[n - 1]
        while True:
            lo, hi = cur / 2 - C, cur / 2
            nxt = next((j for j in range(picked[-1] - 1, 0, -1) if lo < vals[j - 1] <= hi), None)
            if nxt is None:
                break
            picked.append(nxt)
            cur = vals[nxt - 1]
        indices = tuple(reversed(picked))
        return sq.DoublingCertificate(indices, C, sq._log2_ratio(len(indices), vals[n - 1]))
    except (ParameterError, PreconditionError) as exc:
        return exc


def doubling_outcome(seq, n, gap_bound=None):
    try:
        return sq.extract_doubling_subsequence(seq, n, gap_bound)
    except (ParameterError, PreconditionError) as exc:
        return exc


class TestDoublingAgainstFractionScan:
    VALUES = st.one_of(
        st.integers(min_value=1, max_value=400),
        st.fractions(min_value=Fraction(1, 2), max_value=200, max_denominator=9),
    )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(VALUES, min_size=1, max_size=50),
        st.booleans(),
        st.sampled_from([None, Fraction(7, 3), 100, 0, Fraction(1, 6)]),
    )
    def test_same_certificate_or_error(self, values, sort, gap_bound):
        if sort:  # non-decreasing prefixes double most often
            values = sorted(values)
        seq = sq.make_sequence("explicit-list", values=values)
        for n in (len(values), (len(values) + 1) // 2):
            want = reference_doubling(seq, n, gap_bound)
            got = doubling_outcome(seq, n, gap_bound)
            assert type(got) is type(want) and repr(got) == repr(want)
            assert str(got) == str(want)

    @pytest.mark.parametrize("gamma", [Fraction(1, 2), 1, Fraction(3, 2), 2])
    @pytest.mark.parametrize("gap_bound", [None, Fraction(7, 3), 100])
    def test_floor_and_real_powers(self, gamma, gap_bound):
        for seq in (
            sq.make_sequence("floor-power", gamma=gamma),
            sq.make_sequence("real-power", alpha=min(Fraction(gamma), 1), precision_bits=8),
        ):
            for n in (1, 7, 64, 300):
                want = reference_doubling(seq, n, gap_bound)
                got = doubling_outcome(seq, n, gap_bound)
                assert type(got) is type(want) and repr(got) == repr(want)


class TestRsMonotone:
    def test_monotone_sequence_clean(self):
        s = sq.make_sequence("floor-power", gamma=1)
        rep = sq.check_rs_monotone(s, 1, 1, 100)
        assert rep.ok
        assert rep.violations == ()
        assert rep.clean_from == 1

    def test_alternating_with_slack(self):
        s = sq.make_sequence("explicit-list", values=[1, 2] * 25)
        rep = sq.check_rs_monotone(s, 1, 2, 50)
        assert rep.ok

    def test_spike_violates(self):
        s = sq.make_sequence("explicit-list", values=[1, 1, 100, 1, 1, 1])
        rep = sq.check_rs_monotone(s, 1, 1, 6)
        assert not rep.ok
        assert (3, 4) in rep.violations
        assert rep.clean_from == 4

    def test_parameter_validation(self):
        s = sq.make_sequence("constant", value=1)
        with pytest.raises(ParameterError):
            sq.check_rs_monotone(s, Fraction(1, 2), 1, 10)
        with pytest.raises(ParameterError):
            sq.check_rs_monotone(s, 1, 1, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=25))
    def test_unit_parameters_mean_plain_monotonicity(self, values):
        seq = sq.make_sequence("explicit-list", values=values)
        rep = sq.check_rs_monotone(seq, 1, 1, len(values))
        non_decreasing = all(a <= b for a, b in zip(values, values[1:]))
        assert rep.ok == non_decreasing

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=20), min_size=2, max_size=30),
        st.fractions(min_value=1, max_value=3),
        st.fractions(min_value=1, max_value=3),
    )
    def test_matches_direct_scan(self, values, r, s_param):
        seq = sq.make_sequence("explicit-list", values=values)
        n_max = len(values)
        rep = sq.check_rs_monotone(seq, r, s_param, n_max)
        direct = tuple(
            (n, m)
            for n in range(1, n_max + 1)
            for m in range(1, n_max + 1)
            if Fraction(m) >= r * n and values[n - 1] > s_param * values[m - 1]
        )
        assert rep.violations == direct
        assert rep.ok == (not direct)


def reference_rs_monotone(seq, r, s, n_max):
    """The Fraction check that the integer check_rs_monotone replaced."""
    rf, sf = sq._fraction_param(r, "r"), sq._fraction_param(s, "s")
    if rf < 1 or sf < 1:
        raise ParameterError("r and s must both be >= 1")
    if n_max < 2:
        raise ParameterError(f"n_max must be >= 2, got {n_max!r}")
    vals = [Fraction(seq.value(i)) for i in range(1, n_max + 1)]
    sufmin = list(vals)
    for i in range(n_max - 2, -1, -1):
        if sufmin[i + 1] < sufmin[i]:
            sufmin[i] = sufmin[i + 1]
    violations = []
    for n in range(1, n_max + 1):
        m0 = math.ceil(rf * n)
        if m0 > n_max:
            break
        if vals[n - 1] <= sf * sufmin[m0 - 1]:
            continue
        for m in range(m0, n_max + 1):
            if vals[n - 1] > sf * vals[m - 1]:
                violations.append((n, m))
    if not violations:
        clean_from = 1
    else:
        worst = max(n for n, _ in violations)
        clean_from = worst + 1 if worst < n_max else None
    return sq.MonotonicityReport(rf, sf, n_max, tuple(violations), not violations, clean_from)


class TestRsMonotoneAgainstFractionCheck:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(1, 40), st.fractions(min_value=Fraction(1, 7), max_value=40)),
            min_size=2,
            max_size=40,
        ),
        st.booleans(),
        st.fractions(min_value=1, max_value=4, max_denominator=9),
        st.fractions(min_value=1, max_value=4, max_denominator=9),
    )
    def test_same_report(self, values, sort, r, s_param):
        values = sorted(values) if sort else values
        seq = sq.make_sequence("explicit-list", values=values)
        n_max = len(values)
        got = sq.check_rs_monotone(seq, r, s_param, n_max)
        want = reference_rs_monotone(seq, r, s_param, n_max)
        assert got == want and repr(got) == repr(want)

    @pytest.mark.parametrize("gamma", [Fraction(1, 2), Fraction(3, 2)])
    def test_floor_and_real_powers(self, gamma):
        for seq in (
            sq.make_sequence("floor-power", gamma=gamma),
            sq.make_sequence("real-power", alpha=gamma / 2, precision_bits=12),
        ):
            for r, s_param in ((1, 1), (2, Fraction(3, 2)), (Fraction(5, 4), 1)):
                got = sq.check_rs_monotone(seq, r, s_param, 300)
                assert got == reference_rs_monotone(seq, r, s_param, 300)


def reference_run_length(seq, n):
    """The per-index scan that run_length_decompose replaced: the
    decomposition, or the exception it raises."""
    try:
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n!r}")
        values, mult, starts, prev = [], [], [], None
        for i in range(1, n + 1):
            a = seq.value(i)
            if isinstance(a, Fraction):
                if a.denominator != 1:
                    raise DecompositionError(f"value at index {i} is not an integer: {a}", index=i)
                a = a.numerator
            if prev is not None and a < prev:
                raise DecompositionError(
                    f"prefix is not non-decreasing at index {i}: {a} < {prev}", index=i
                )
            if a != prev:
                values.append(a)
                mult.append(1)
                starts.append(i)
                prev = a
            else:
                mult[-1] += 1
        return sq.RunLengthDecomposition(tuple(values), tuple(mult), tuple(starts))
    except (ParameterError, DecompositionError) as exc:
        return exc


def run_length_outcome(seq, n):
    try:
        return sq.run_length_decompose(seq, n)
    except (ParameterError, DecompositionError) as exc:
        return exc


class TestRunLengthAgainstPerIndexScan:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(1, 6), st.fractions(min_value=1, max_value=6, max_denominator=3)),
            min_size=1,
            max_size=30,
        ),
        st.booleans(),
        st.integers(0, 35),
    )
    def test_same_decomposition_or_error(self, values, sort, n):
        seq = sq.make_sequence("explicit-list", values=sorted(values) if sort else values)
        want, got = reference_run_length(seq, n), run_length_outcome(seq, n)
        assert type(got) is type(want) and repr(got) == repr(want)
        if isinstance(want, Exception):
            assert str(got) == str(want) and getattr(got, "index", 0) == getattr(want, "index", 0)

    def test_real_power_whole_values(self):
        seq = sq.make_sequence("real-power", alpha=1, precision_bits=4)  # Fraction(k, 1)
        assert run_length_outcome(seq, 50) == reference_run_length(seq, 50)
        seq = sq.make_sequence("real-power", alpha=Fraction(1, 2), precision_bits=4)
        want = reference_run_length(seq, 50)
        assert str(run_length_outcome(seq, 50)) == str(want) and want.index == 2


def _small_plan_sequence():
    from radwalk import construction as cn

    plan, _ = cn.build_recurrent_sequence(
        cn.GoodSetPrefix([2, 3, 5, 7]), 2, master_seed=3, trials=40, horizon_cap=32
    )
    return plan.sequence()


#: A sequence of each family with a run iterator, and its per-index prefix.
RUN_FAMILIES = {
    "explicit-list": sq.make_sequence("explicit-list", values=[1, 1, 2, Fraction(5, 2), 2, 2, 7]),
    "block-exact": sq.explicit_block_sequence(),
    "block-scaled": sq.explicit_block_sequence(scale="scaled"),
    "plan": _small_plan_sequence(),
}
PER_INDEX = {
    name: [seq.value(i) for i in range(1, min(seq.length or 70_000, 70_000) + 1)]
    for name, seq in RUN_FAMILIES.items()
}


class TestPrefixFromRuns:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(RUN_FAMILIES)), st.integers(0, 300) | st.integers(0, 70_000))
    def test_prefix_matches_per_index(self, name, n):
        seq, want = RUN_FAMILIES[name], PER_INDEX[name]
        if seq.length is not None and n > seq.length:
            with pytest.raises(ParameterError, match="beyond this sequence's length"):
                seq.prefix(n)
        else:
            assert seq.prefix(n) == want[:n]

    def test_exact_block_prefix_stops_at_the_budget(self):
        s = sq.explicit_block_sequence(exponent_bit_budget=16)
        assert s.prefix(65552)[-13:] == [2] + [1] * 12
        with pytest.raises(OverflowRefusal):
            s.prefix(65553)


class TestPrefixAllocation:
    @pytest.mark.parametrize("gamma", [2, Fraction(1, 2)], ids=["per-index", "runs"])
    def test_unallocatable_prefix_fails_by_name(self, monkeypatch, gamma):
        # 10**12 slots need 7.3 TiB: the allocation is refused, not made
        class NoRepeat:
            def __getattr__(self, name):
                return getattr(itertools, name)

            def repeat(self, *args):
                raise MemoryError

        seq = sq.make_sequence("floor-power", gamma=gamma)
        monkeypatch.setattr(sq, "itertools", NoRepeat())
        with pytest.raises(ParameterError, match="^prefix length 1000000000000: the list does not fit"):
            seq.prefix(10**12)

    def test_prefix_beyond_a_list_index_fails_by_name(self):
        # no list holds 2**64 slots, and Python refuses the size before allocating
        with pytest.raises(ParameterError, match=f"^prefix length {1 << 64}: the list does not fit"):
            sq.make_sequence("constant", value=1).prefix(1 << 64)


class TestExplicitListPrefix:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(1, 4) | st.fractions(Fraction(1, 3), 4), min_size=1, max_size=40),
        st.integers(-2, 45),
    )
    def test_prefix_is_the_values(self, raw, n):
        seq = sq.make_sequence("explicit-list", values=raw)
        if n < 0:
            with pytest.raises(ParameterError, match=f"^n must be >= 0, got {n}$"):
                seq.prefix(n)
        elif n > seq.length:
            with pytest.raises(ParameterError, match=f"index {seq.length + 1} is beyond"):
                seq.prefix(n)
        else:
            assert seq.prefix(n) == [seq.value(i) for i in range(1, n + 1)]

    def test_prefix_is_a_fresh_list(self):
        seq = sq.make_sequence("explicit-list", values=[3, 1, 4])
        config = seq.to_config()
        out = seq.prefix(3)
        out[0] = 99
        out.append(5)
        assert seq.prefix(3) == [3, 1, 4] and seq.value(1) == 3
        assert seq.to_config() == config

    def test_runs_group_equal_neighbours(self):
        values = [1, 1, 2, Fraction(5, 2), Fraction(5, 2), 2, 2, 2, 7, 1]
        runs = list(sq.make_sequence("explicit-list", values=values).iter_runs())
        assert runs == [(1, 2), (2, 1), (Fraction(5, 2), 2), (2, 3), (7, 1), (1, 1)]


class TestBlockSequence:
    def test_sub_block_lengths(self):
        sb = sq.sub_block_length(1, 1)
        assert (sb.base, sb.exponent, sb.value) == (2, 2, 4)
        sb = sq.sub_block_length(2, 1)
        assert (sb.exponent, sb.value) == (16, 65536)
        sb = sq.sub_block_length(3, 1)
        assert sb.exponent == 512
        assert not sb.materializable
        assert sb.value is None
        with pytest.raises(OverflowRefusal) as exc:
            sb.materialize()
        assert exc.value.exponent == 512

    def test_sub_block_domain(self):
        with pytest.raises(ParameterError):
            sq.sub_block_length(2, 3)
        with pytest.raises(ParameterError):
            sq.sub_block_length(0, 0)

    def test_exact_prefix_values(self):
        s = sq.explicit_block_sequence()
        assert s.prefix(4) == [1, 1, 1, 1]
        assert s(5) == 2
        assert s(65540) == 2
        assert s(65541) == 1
        assert s(65552) == 1
        assert s(65553) == 2

    def test_streaming_matches_positional(self):
        s = sq.explicit_block_sequence(scale="scaled")
        flat = []
        for value, length in s.iter_runs():
            flat.extend([value] * length)
            if len(flat) > 300:
                break
        assert flat[:300] == s.prefix(300)

    def test_boundary_differences(self):
        # sub-block (k, i) is g(k, i) copies of k, then, for i < k, 3k^2 copies of k-1
        g = sq.default_scaled_growth
        expected = []
        for k in (1, 2, 3):
            for i in range(1, k + 1):
                expected += [(k, g(k, i))] + ([(k - 1, 3 * k * k)] if i < k else [])
        runs = sq.explicit_block_sequence(scale="scaled").iter_runs()
        assert list(itertools.islice(runs, len(expected))) == expected

    def test_exact_boundaries(self):
        # the run gaps equal the symbolic lengths L(k, i), and the 3k^2 tail
        runs = list(itertools.islice(sq.explicit_block_sequence().iter_runs(), 4))
        L = [sq.sub_block_length(k, i).materialize() for k, i in ((1, 1), (2, 1), (2, 2))]
        assert runs == [(1, L[0]), (2, L[1]), (1, 12), (2, L[2])]
        assert L == [4, 65536, 1 << 32]

    def test_exact_positional_overflow_refusal(self):
        s = sq.explicit_block_sequence(exponent_bit_budget=16)
        assert s(65552) == 1  # block (2,1) and its tail still materialize
        with pytest.raises(OverflowRefusal, match=r"^sub-block \(2,2\) has length 2\*\*32,") as exc:
            s(65553)  # needs L(2,2) = 2**32, whose exponent exceeds the budget
        assert exc.value.exponent == 32


# ---------------------------------------------------------------------------
# The integer scans that the array scans replaced, kept as references
# ---------------------------------------------------------------------------


def int_scan_run_length(seq, n):
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n!r}")
    vals = seq.prefix(n if seq.length is None else min(n, seq.length))
    ints, scale = sq.scaled_ints(vals)
    whole = len(vals) if scale == 1 else next(i for i, a in enumerate(vals) if a.denominator != 1)
    i = next((i for i, (a, b) in enumerate(zip(ints, ints[1:whole]), 2) if b < a), None)
    if i is not None:
        raise DecompositionError(
            f"prefix is not non-decreasing at index {i}: {vals[i - 1]} < {vals[i - 2]}", index=i
        )
    if whole < len(vals):
        raise DecompositionError(
            f"value at index {whole + 1} is not an integer: {vals[whole]}", index=whole + 1
        )
    if len(vals) < n:
        seq.value(len(vals) + 1)
    starts = [1] + [i for i, (a, b) in enumerate(zip(ints, ints[1:]), 2) if b != a]
    mult = [b - a for a, b in zip(starts, starts[1:] + [n + 1])]
    return sq.RunLengthDecomposition(tuple(ints[s - 1] for s in starts), tuple(mult), tuple(starts))


def int_scan_doubling(seq, n, gap_bound=None):
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n!r}")
    vals = seq.prefix(n)
    ints, den = sq.scaled_ints(vals)
    for i, w in enumerate(ints):
        if w < den:
            raise PreconditionError(f"a_{i + 1} = {vals[i]} < 1; extraction requires a_m >= 1")
    measured = Fraction(max((abs(b - a) for a, b in zip(ints, ints[1:])), default=0), den)
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
    ints = [w * up for w in ints] if up > 1 else ints
    two_c = 2 * C.numerator * (den * up // C.denominator)
    picked = [n]
    for j in range(n - 1, 0, -1):
        cur = ints[picked[-1] - 1]
        if cur - two_c < 2 * ints[j - 1] <= cur:
            picked.append(j)
    indices = tuple(reversed(picked))
    return sq.DoublingCertificate(indices, C, sq._log2_ratio(len(indices), Fraction(vals[n - 1])))


def int_scan_rs_monotone(seq, r, s, n_max):
    rf, sf = sq._fraction_param(r, "r"), sq._fraction_param(s, "s")
    if rf < 1 or sf < 1:
        raise ParameterError("r and s must both be >= 1")
    if n_max < 2:
        raise ParameterError(f"n_max must be >= 2, got {n_max!r}")
    ints, _ = sq.scaled_ints(seq.prefix(n_max))
    left = [a * sf.denominator for a in ints]
    right = [a * sf.numerator for a in ints]
    sufmin = list(itertools.accumulate(reversed(right), min))[::-1]
    violations = []
    for n in range(1, n_max + 1):
        m0 = -(-rf.numerator * n // rf.denominator)
        if m0 > n_max:
            break
        a = left[n - 1]
        if a > sufmin[m0 - 1]:
            violations.extend((n, m) for m in range(m0, n_max + 1) if a > right[m - 1])
    if not violations:
        clean_from = 1
    else:
        worst = max(n for n, _ in violations)
        clean_from = worst + 1 if worst < n_max else None
    return sq.MonotonicityReport(rf, sf, n_max, tuple(violations), not violations, clean_from)


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return exc


def assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        assert getattr(got, "index", None) == getattr(want, "index", None)
    else:
        assert got == want and repr(got) == repr(want)


#: Values of every kind the array scans must treat exactly: small ints,
#: fractions (some below 1), and ints near and past 2**62 and 2**63, where the
#: int64 array gives way to the object fallback.
SCAN_VALUES = st.one_of(
    st.integers(1, 40),
    st.fractions(min_value=Fraction(1, 3), max_value=40, max_denominator=7),
    st.integers(2**62 - 40, 2**62 + 40),
    st.integers(2**63 - 3, 2**63 + 3),
)
#: r and s at least 1, some with numerators near 2**40 or 2**62.
RS_PARAMS = st.one_of(
    st.fractions(min_value=1, max_value=4, max_denominator=9),
    st.builds(Fraction, st.integers(2**40, 2**40 + 99), st.integers(2**39, 2**40)),
    st.builds(Fraction, st.integers(2**62, 2**62 + 99), st.integers(2**61, 2**62)),
)


def scan_sequence(values, sort):
    return sq.make_sequence("explicit-list", values=sorted(values) if sort else values)


class TestArrayScansAgainstIntScans:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(SCAN_VALUES, min_size=1, max_size=30), st.booleans(), st.integers(0, 33))
    def test_run_length(self, values, sort, n):
        seq = scan_sequence(values, sort)
        assert_same_outcome(outcome(sq.run_length_decompose, seq, n), outcome(int_scan_run_length, seq, n))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(SCAN_VALUES, min_size=1, max_size=30),
        st.booleans(),
        st.integers(0, 33),
        st.one_of(st.none(), st.integers(-1, 50), st.fractions(0, 50, max_denominator=7),
                  st.integers(2**61, 2**65)),
    )
    def test_doubling(self, values, sort, n, gap_bound):
        seq = scan_sequence(values, sort)
        want = outcome(int_scan_doubling, seq, n)
        assert_same_outcome(outcome(sq.extract_doubling_subsequence, seq, n), want)
        bounds = [gap_bound]
        if isinstance(want, sq.DoublingCertificate):  # just below, at and above the measured gap
            bounds += [want.gap_bound - Fraction(1, 5), want.gap_bound, want.gap_bound + Fraction(1, 3)]
        for c in bounds:
            assert_same_outcome(
                outcome(sq.extract_doubling_subsequence, seq, n, c), outcome(int_scan_doubling, seq, n, c)
            )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(SCAN_VALUES, min_size=1, max_size=30),
        st.booleans(),
        st.integers(1, 33),
        RS_PARAMS,
        RS_PARAMS,
    )
    def test_rs_monotone(self, values, sort, n_max, r, s_param):
        seq = scan_sequence(values, sort)
        assert_same_outcome(
            outcome(sq.check_rs_monotone, seq, r, s_param, n_max),
            outcome(int_scan_rs_monotone, seq, r, s_param, n_max),
        )

    @pytest.mark.parametrize(
        "values",
        [
            [1],
            [2**62, 2**62 + 1, 2**63 + 5],  # past int64: the object fallback
            [2**61 + 1, 2**62, 3 * 2**61],  # fits int64, but not twice the values
            [1, 2**62, 2**62 + 2**61, Fraction(2**63 + 1, 2)],
        ],
    )
    def test_values_near_the_int64_edge(self, values):
        seq = sq.make_sequence("explicit-list", values=values)
        n = len(values)
        for got, want in (
            (outcome(sq.run_length_decompose, seq, n), outcome(int_scan_run_length, seq, n)),
            (outcome(sq.extract_doubling_subsequence, seq, n), outcome(int_scan_doubling, seq, n)),
            (
                outcome(sq.extract_doubling_subsequence, seq, n, Fraction(2**62, 3)),
                outcome(int_scan_doubling, seq, n, Fraction(2**62, 3)),
            ),
            (
                outcome(sq.check_rs_monotone, seq, 1, Fraction(2**40 + 1, 2**40), max(n, 2)),
                outcome(int_scan_rs_monotone, seq, 1, Fraction(2**40 + 1, 2**40), max(n, 2)),
            ),
        ):
            assert_same_outcome(got, want)

    @pytest.mark.parametrize("gamma", [Fraction(1, 2), Fraction(2, 3), 1, Fraction(3, 2)])
    def test_long_prefixes(self, gamma):
        # the doubling windows cross many 64-wide steps, and rs sees long runs
        seq = sq.make_sequence("floor-power", gamma=gamma)
        for n in (1, 63, 64, 65, 3000):
            assert_same_outcome(outcome(sq.extract_doubling_subsequence, seq, n),
                                outcome(int_scan_doubling, seq, n))
            assert_same_outcome(outcome(sq.run_length_decompose, seq, n), outcome(int_scan_run_length, seq, n))
        spiky = sq.make_sequence("explicit-list", values=[1, 5, 2, 9, 3, 3, 1, 7] * 50)
        for r, s_param in ((1, 1), (2, Fraction(3, 2)), (Fraction(5, 4), 3)):
            assert_same_outcome(outcome(sq.check_rs_monotone, spiky, r, s_param, 400),
                                outcome(int_scan_rs_monotone, spiky, r, s_param, 400))

    def test_scans_are_array_code(self):
        """The scans run on _exact_array, with no per-index Python loop."""
        scans = {"run_length_decompose", "extract_doubling_subsequence", "check_rs_monotone"}
        tree = ast.parse(inspect.getsource(sq))
        found = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in scans}
        assert set(found) == scans
        for name, fn in found.items():
            called = {getattr(node.func, "id", getattr(node.func, "attr", "")) for node in ast.walk(fn)
                      if isinstance(node, ast.Call)}
            assert "scaled_ints" not in called and "_exact_array" in called, name
            loops = [node.iter for node in ast.walk(fn) if isinstance(node, (ast.For, ast.comprehension))]
            per_index = [ast.unparse(it) for it in loops
                         if isinstance(it, ast.Call) and getattr(it.func, "id", "") in {"range", "zip", "enumerate"}]
            assert not per_index, (name, per_index)


# ---------------------------------------------------------------------------
# Floor-power runs and the explicit-list fast path
# ---------------------------------------------------------------------------

RUN_GAMMAS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4), Fraction(5, 7)]


class TestFloorPowerRuns:
    @pytest.mark.parametrize("gamma", RUN_GAMMAS)
    def test_prefix_and_runs_match_per_index(self, gamma):
        seq = sq.make_sequence("floor-power", gamma=gamma)
        want = [seq.value(i) for i in range(1, 5001)]
        for n in (0, 1, 2, 3, 17, 64, 1000, 4999, 5000):
            assert seq.prefix(n) == want[:n]
        flat = list(itertools.chain.from_iterable(
            [v] * count for v, count in itertools.islice(seq.iter_runs(), want[-1])
        ))
        assert flat[:5000] == want

    @pytest.mark.parametrize("gamma", RUN_GAMMAS)
    def test_runs_at_a_large_n(self, gamma):
        # every run of the first 10**6 terms starts where the value first
        # reaches v and ends where it last is v
        seq = sq.make_sequence("floor-power", gamma=gamma)
        first = 1
        for v, count in seq.iter_runs():
            assert count >= 1 and seq(first) == v and seq(first + count - 1) == v
            assert first == 1 or seq(first - 1) == v - 1
            first += count
            if first > 10**6:
                break
        n = 10**6
        assert seq.prefix(n)[-50:] == [seq(i) for i in range(n - 49, n + 1)]

    @pytest.mark.parametrize("gamma", [1, Fraction(3, 2), 2])
    def test_no_runs_from_gamma_one(self, gamma):
        with pytest.raises(ParameterError, match="has no run iterator"):
            sq.make_sequence("floor-power", gamma=gamma).iter_runs()


def loop_explicit_values(raw):
    """The per-value loop the explicit-list fast path skips for positive ints."""
    if not raw:
        raise ParameterError("explicit-list requires a nonempty values list")
    vals = []
    for i, v in enumerate(raw):
        f = sq._fraction_param(v, f"values[{i}]")
        if f <= 0:
            raise ParameterError(f"values[{i}] must be > 0, got {v}")
        vals.append(sq.int_if_whole(f))
    return tuple(vals)


def explicit_values(raw):
    seq = sq.make_sequence("explicit-list", values=raw)
    values = tuple(seq.prefix(seq.length))
    assert seq.to_config() == {"family": "explicit-list", "params": sq.json_encode({"values": list(values)})}
    return values


class TestExplicitListFastPath:
    @pytest.mark.parametrize(
        "raw",
        [
            [True, 2],
            [1, False],
            [0, 1],
            [3, -2],
            ["3", 1],
            [1, "1/2"],
            ["abc"],
            [Fraction(4, 2), 3],
            [Fraction(1, 2), 3],
            [2**70, 1],
            (5, 1, 2),
            [],
        ],
    )
    def test_matches_the_loop(self, raw):
        got, want = outcome(explicit_values, raw), outcome(loop_explicit_values, raw)
        assert_same_outcome(got, want)
        if not isinstance(want, Exception):
            assert [type(v) for v in got] == [type(v) for v in want]

    def test_generators_take_the_loop(self):
        assert explicit_values(v for v in (3, 1, 2)) == (3, 1, 2)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.integers(-2, 9), st.booleans(), st.fractions(-1, 5, max_denominator=4),
                              st.sampled_from(["2", "7/2", "x", "0"])), min_size=1, max_size=12))
    def test_any_list_matches_the_loop(self, raw):
        got, want = outcome(explicit_values, raw), outcome(loop_explicit_values, raw)
        assert_same_outcome(got, want)
        if not isinstance(want, Exception):
            assert [type(v) for v in got] == [type(v) for v in want]
