"""Every count a public entry takes is checked where it enters, by one rule:
an int (numpy ints too) of at least its bound, else a ParameterError that
names it.  A Monte Carlo request is checked whole before any walk."""

import math

import numpy as np
import pytest

from radwalk import construction as cn
from radwalk import exact, rng
from radwalk import sequences as sq
from radwalk import verify as vf
from radwalk import walk as wk
from radwalk.errors import ParameterError

FLOOR2 = sq.make_sequence("floor-power", gamma=2)
PAIR = cn.positive_bezout(2, 3)
PLAN = cn.ConstructionPlan.from_json_dict(
    {"rounds": [{"index": 0, "pair": [2, 3, 2, 1], "n0": 2, "n_start": 0, "n_end": 6,
                 "radius": 0, "alpha": 0, "estimate": None}],
     "status": "inconclusive", "master_seed": 0, "confidence": 0.95, "trials": 8,
     "radius_mode": "coarse"}
)
N0 = {"radius": 0, "trials": 4, "horizon_start": 4, "horizon_cap": 8}


def n0(**kw):
    kw = {**N0, **kw}
    return cn.estimate_N0(PAIR, kw.pop("radius"), **kw)


def build(rounds=1, **kw):
    kw = {"trials": 4, "horizon_cap": 16, **kw}
    return cn.build_recurrent_sequence(cn.GoodSetPrefix([2, 3]), rounds, **kw)


#: (entry, the count's name in messages, its least value or None, a value it
#: takes, the entry called with the count)
COUNTS = [
    ("trial_generator", "trial", 0, 1, lambda v: rng.trial_generator(7, v)),
    ("direction_codes", "horizon", 0, 3, lambda v: rng.direction_codes(7, 0, v)),
    ("wilson_interval", "trials", 1, 4, lambda v: rng.wilson_interval(0, v)),
    ("value", "n", 1, 2, lambda v: FLOOR2.value(v)),
    ("prefix", "n", 0, 3, lambda v: FLOOR2.prefix(v)),
    ("lattice", "horizon", 0, 3, lambda v: FLOOR2.lattice(v)),
    ("real-power", "precision_bits", 1, 8,
     lambda v: sq.make_sequence("real-power", alpha=1, precision_bits=v)),
    ("explicit_block_sequence", "exponent_bit_budget", 0, 16,
     lambda v: sq.explicit_block_sequence(exponent_bit_budget=v)),
    ("run_length_decompose", "n", 1, 3, lambda v: sq.run_length_decompose(FLOOR2, v)),
    ("extract_doubling_subsequence", "n", 1, 3, lambda v: sq.extract_doubling_subsequence(FLOOR2, v)),
    ("check_rs_monotone", "n_max", 2, 4, lambda v: sq.check_rs_monotone(FLOOR2, 1, 1, v)),
    ("sub_block_length", "k", 1, 2, lambda v: sq.sub_block_length(v, 1)),
    ("sub_block_length", "i", 1, 1, lambda v: sq.sub_block_length(2, v)),
    ("sub_block_length", "max_bits", None, 64, lambda v: sq.sub_block_length(1, 1, max_bits=v)),
    ("mod_probability", "modulus m", 1, 3, lambda v: exact.mod_probability([1, 2], v, 0)),
    ("mod_probability", "residue", 0, 1, lambda v: exact.mod_probability([1, 2], 3, v)),
    ("mod_probability_profile", "modulus m", 1, 3, lambda v: exact.mod_probability_profile([1, 2], v)),
    ("hit_probability_2d", "horizon", 0, 2, lambda v: exact.hit_probability_2d([1, 1], (0, 0), v)),
    ("sup_pmf_running", "k_max", 0, 3, lambda v: exact.sup_pmf_running(v)),
    ("simulate", "trial", 0, 1, lambda v: wk.simulate(FLOOR2, 5, 7, trial=v)),
    ("simulate", "width_bits", 0, 8, lambda v: wk.simulate(FLOOR2, 5, 7, width_bits=v)),
    ("monte_carlo_return", "trials", 1, 3, lambda v: wk.monte_carlo_return(FLOOR2, 4, v, 0)),
    ("monte_carlo_return", "workers", 1, 2,
     lambda v: wk.monte_carlo_return(FLOOR2, 4, 3, 0, workers=v)),
    ("verify_supermartingale", "radius", 1, 2, lambda v: vf.verify_supermartingale(v)),
    ("hitting_time_experiment", "step", 1, 2, lambda v: vf.hitting_time_experiment(2, step=v, trials=3)),
    ("hitting_time_experiment", "trials", 1, 3, lambda v: vf.hitting_time_experiment(2, trials=v)),
    ("hitting_time_experiment", "workers", 1, 2,
     lambda v: vf.hitting_time_experiment(2, trials=3, workers=v)),
    ("sup_pmf_trend", "k_max", 1, 3, lambda v: vf.sup_pmf_trend(v)),
    ("sup_pmf_trend", "k_floor", None, 2, lambda v: vf.sup_pmf_trend(3, k_floor=v)),
    ("positive_bezout", "b1", 1, 2, lambda v: cn.positive_bezout(v, 3)),
    ("positive_bezout", "b2", 1, 3, lambda v: cn.positive_bezout(2, v)),
    ("GoodSetPrefix", "elements[1]", 1, 3, lambda v: cn.GoodSetPrefix([2, v])),
    ("check_good_set", "horizon", 1, 2, lambda v: cn.check_good_set(cn.GoodSetPrefix([2, 3]), v)),
    ("estimate_N0", "radius", 0, 1, lambda v: n0(radius=v)),
    ("estimate_N0", "trials", 1, 3, lambda v: n0(trials=v)),
    ("estimate_N0", "workers", 1, 2, lambda v: n0(workers=v)),
    ("estimate_N0", "horizon_start", 1, 2, lambda v: n0(horizon_start=v)),
    ("estimate_N0", "horizon_cap", 1, 8, lambda v: n0(horizon_cap=v)),
    ("build_recurrent_sequence", "rounds", 0, 1, lambda v: build(v)),
    ("build_recurrent_sequence", "horizon_cap", 16, 16, lambda v: build(0, horizon_cap=v)),
    ("evaluate_plan", "trials", 1, 3, lambda v: cn.evaluate_plan(PLAN, v, 0)),
    ("evaluate_plan", "workers", 1, 2, lambda v: cn.evaluate_plan(PLAN, 3, 0, workers=v)),
]
IDS = [f"{entry}-{name}" for entry, name, *_ in COUNTS]


@pytest.mark.parametrize("entry, name, low, good, call", COUNTS, ids=IDS)
def test_counts_fail_by_name(entry, name, low, good, call):
    bad = [(2.5, "an integer"), (True, "an integer")]
    if low is not None:
        bad.append((low - 1, f">= {low}"))
    for value, rule in bad:
        with pytest.raises(ParameterError) as exc:
            call(value)
        assert str(exc.value).startswith(f"{name} must be {rule}, got {value!r}"), str(exc.value)


@pytest.mark.parametrize("entry, name, low, good, call", COUNTS, ids=IDS)
def test_counts_take_numpy_ints(entry, name, low, good, call):
    call(np.int64(good))


@pytest.mark.parametrize(
    "call",
    [
        lambda: wk.monte_carlo_return(FLOOR2, 4, 3, 0, level=1.5),
        lambda: vf.hitting_time_experiment(3, trials=3, level=0.0),
        lambda: vf.hitting_time_experiment(0, trials=3, level=2.0),  # starts at the origin
        lambda: n0(confidence=2.0),
        lambda: n0(radius=10**4, confidence=math.nan),  # over the target budget
        lambda: build(confidence=1.0),
        lambda: build(0, confidence=-1.0),
        lambda: cn.evaluate_plan(PLAN, 3, 0, level=math.nan),
    ],
    ids=["mc_return", "hitting", "hitting-at-origin", "estimate_N0", "estimate_N0-over-budget",
         "build", "build-no-rounds", "evaluate_plan"],
)
def test_bad_level_fails_before_any_walk(monkeypatch, call):
    def spy(*args, **kwargs):
        raise AssertionError("a walk ran before the level was checked")

    for module in (wk, vf, cn):
        monkeypatch.setattr(module, "_walk_trials", spy)
    with pytest.raises(ParameterError, match=r"^confidence level must lie in \(0, 1\)$"):
        call()
