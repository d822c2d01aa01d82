"""The JSON codec of reports and plans: pinned bytes, round trips, plans checked on load."""

import copy
import hashlib
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radwalk import cli
from radwalk import construction as cn
from radwalk import exact, rng as rw, sequences as sq, verify as vf, walk as wk
from radwalk.errors import ParameterError

CONST1 = sq.make_sequence("constant", value=1)
HALF = sq.make_sequence("constant", value=Fraction(1, 2))


def _hoeffding_no_exact():
    with mock.patch.object(exact, "SUPPORT_BUDGET", 10):
        return exact.hoeffding_tail([Fraction(1, 3), 2, 5], Fraction(7, 2))


def _n0_over_budget():
    with mock.patch.object(cn, "TARGET_BUDGET", 100):
        return cn.estimate_N0(cn.positive_bezout(3, 5), 50, trials=10, master_seed=4)


def _plan_realized():
    # 300 radius probes a round: two chunks of trials, folded by max
    with mock.patch.object(cn, "REALIZED_RADIUS_TRIALS", 300):
        plan, _ = cn.build_recurrent_sequence(
            cn.GoodSetPrefix([2, 3, 5, 7, 11, 13]), 3, master_seed=(5, 1), trials=40,
            horizon_cap=32, radius_mode="realized",
        )
    return plan


def _plan(master_seed=3, rounds=2):
    plan, _ = cn.build_recurrent_sequence(
        cn.GoodSetPrefix([2, 3, 5, 7]), rounds, master_seed=master_seed, trials=40, horizon_cap=32
    )
    return plan


#: One report of every type with a JSON form, built small.
REPORTS = {
    "wilson": lambda: rw.wilson_interval(3, 10),
    "mc_return": lambda: wk.monte_carlo_return(CONST1, 4, 200, 7),
    "mc_return_tuple_seed": lambda: wk.monte_carlo_return(
        HALF, 6, 100, (3, (1, 2)), target=(1, 0)
    ),
    "hoeffding": lambda: exact.hoeffding_tail([1, 2, 3], 2),
    "hoeffding_no_exact": _hoeffding_no_exact,
    "drift_grid": lambda: vf.verify_supermartingale(5),
    "elo": lambda: vf.verify_elo([1, 2, 3, 4], Fraction(1, 2)),
    "mod_lemma": lambda: vf.verify_mod_lemma([1, 2, 3, 5], 7),
    "mod_lemma_one_step": lambda: vf.verify_mod_lemma([2, 2], 3),
    "hitting_axis": lambda: vf.hitting_time_experiment(2, trials=200, master_seed=1),
    "hitting_ring": lambda: vf.hitting_time_experiment(
        1.5, trials=100, master_seed=(2, 3), start_mode="ring"
    ),
    "sup_pmf_trend": lambda: vf.sup_pmf_trend(10),
    "n0": lambda: cn.estimate_N0(
        cn.positive_bezout(2, 3), 1, trials=50, master_seed=((1, 2), 5), horizon_cap=64
    ),
    "n0_over_budget": _n0_over_budget,
    "plan": _plan,
    "plan_realized": _plan_realized,
    "plan_evaluation": lambda: cn.evaluate_plan(_plan(), 50, (3, 201)),
    "walk_summary_int": lambda: wk.simulate(CONST1, 100, 5),
    "walk_summary_fraction": lambda: wk.simulate(HALF, 101, 5),
    "walk_summary_real_power": lambda: wk.simulate(
        sq.make_sequence("real-power", alpha=Fraction(1, 2), precision_bits=8), 40, (6, 1)
    ),
}

#: sha256 of ``json.dumps(report.to_json_dict(), sort_keys=True)``, recorded
#: with the hand-written codecs the dataclass codec replaced.
REPORT_PINS = {
    "wilson": "a8804b3e78a14f9e42b177c8bdaee962199ab864cd4b4f55a1bcdb5ea923fd23",
    "mc_return": "96e332bd7eb341d5dccaf9e5869dab909716a79d85c32512737b2a01851a23c1",
    "mc_return_tuple_seed": "f25dbcd04287452f977e0aff627f693e3c9f3ffb863dba8a3bf70176f8ae6b60",
    "hoeffding": "6a3e5a24e5bbf12f60d95ea581d6da8659118620ea59933a3c9e6349e44adea6",
    "hoeffding_no_exact": "6ec4dc802df2b1265bddc3f481953b5c97a2a356fc9623972fb6967870ae5141",
    "drift_grid": "63d8de3059ebecbbd3b82e1f94bcb22bd2d65ce7f3afc6458f3889f707799cc5",
    "elo": "5f08098f637fd08522025b9a86122f2e0805f323d40de33a84b4f8d428d9f548",
    "mod_lemma": "7516ac5fb4c14908a6110592805bd99882cb3fbf6e8564971be817905e71a66a",
    "mod_lemma_one_step": "4094300db5964a49eda5d9948564c756eb76d45a9f64dc82b6c88c4990965bb0",
    "hitting_axis": "0d665d0446914c166233a32b4508970d6b5a01769229a3717a9f034605137cbc",
    "hitting_ring": "9c5596d0b52af7dfe16d9bd35163715bba2083ed81459bcac5b25b0ed1421b49",
    "sup_pmf_trend": "ccea5a9f99b88b314f9b1be9e329a59f6168e2b0eff03c31ea233d42f0b2b14f",
    "n0": "4864b6cab67e7c982b5cb41ace4e570ef906e1726499358ef06dfaa6c70001be",
    "n0_over_budget": "49cc6a37e9616f640058969a6f4a48dea5cb9cdb7cd9013d0882c806b2cb20d8",
    "plan": "e985313b05a060c600ad8fd3650fdbcb14444d97f80a16bd73865f537cf56ad7",
    # recorded while each Monte Carlo routine still ran its own trial loop
    "plan_realized": "5ed894942915207090b98dc8abb721fea815a02612a8b39cef4a5de80c325382",
    "plan_evaluation": "1fe9a29376102ba3185403ef4418fcd51e3bcc39a1d45152374ed70cc8364565",
    "walk_summary_int": "2d15b5f37d4a3f99e52c5bc243936dfad4c416058d87d5038b1556e77c16e9db",
    "walk_summary_fraction": "8864a01d8b07563ab96ff5e098442a701cb40b538d42d0a9c6fea986525a067b",
    "walk_summary_real_power": "0e6bf1b9db90c0702c0d3da0984d73eb8301d77c96a204ef126b3fa97e8379fe",
}

#: CLI reports whose records list a dataclass's fields.
CLI_REPORTS = {
    "blocks": ["sequence", "blocks", "--k", "2", "--i", "1"],
    "blocks_too_wide": ["sequence", "blocks", "--k", "3", "--i", "2", "--max-bits", "16"],
    "decompose": [
        "sequence", "decompose", "--seq", '{"family":"floor-power","params":{"gamma":"1/2"}}',
        "--n", "40",
    ],
    "monotone": [
        "sequence", "monotone", "--seq",
        '{"family":"explicit-list","params":{"values":[1,"3/2",5,2,2,"7/3",9,1]}}',
        "--r", "3/2", "--s", "2", "--n-max", "8",
    ],
}

#: sha256 of each command's stdout, recorded before those records went
#: through the codec.
CLI_PINS = {
    "blocks": "a5ff72bd82fa77e7a9fbeb84f7a1526303c479c0234168cb2180335cc5cfe438",
    "blocks_too_wide": "1ae46683c3897addb8018693465329c7a214b7a5ebeee93a4a4f74e4f84370fd",
    "decompose": "b82f6eb09ecec193a3644193dc687364e167ddac32c0a79deb6023abd38372ef",
    "monotone": "50976ef5e7a3a022091f5ba0b07f3a7cd08ad62a914388613e1275af2ed676e0",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_json_is_pinned(name):
    doc = REPORTS[name]().to_json_dict()
    assert _sha(json.dumps(doc, sort_keys=True)) == REPORT_PINS[name]


@pytest.mark.parametrize("name", sorted(CLI_REPORTS))
def test_cli_record_is_pinned(name, capsys):
    assert cli.main(CLI_REPORTS[name]) == cli.EXIT_OK
    assert _sha(capsys.readouterr().out) == CLI_PINS[name]


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

SEEDS = [0, 17, (4, 2), ((1, 2), 5), (3, ((0,), 9))]


@pytest.mark.parametrize("seed", SEEDS)
def test_n0_estimate_round_trip(seed):
    est = cn.estimate_N0(cn.positive_bezout(3, 4), 1, trials=30, master_seed=seed, horizon_cap=32)
    text = json.dumps(est.to_json_dict())
    again = cn.N0Estimate.from_json_dict(json.loads(text))
    assert again == est
    assert again.master_seed == seed and type(again.grid) is tuple
    assert json.dumps(again.to_json_dict()) == text


@pytest.mark.parametrize("seed", SEEDS)
def test_plan_round_trip(seed):
    plan = _plan(master_seed=seed)
    again = cn.ConstructionPlan.from_json(plan.to_json())
    assert again == plan
    assert again.master_seed == seed
    assert again.rounds[1].estimate.master_seed == (seed, 101, 1)
    assert again.to_json() == plan.to_json()


def test_plan_without_estimates_round_trips():
    p23 = cn.positive_bezout(2, 3)
    plan = cn.ConstructionPlan(
        (cn.RoundPlan(0, p23, 4, 0, 4 * p23.period, 0, 0),), "inconclusive", 1, 0.95, 8, "coarse"
    )
    data = plan.to_json_dict()
    assert data["rounds"][0]["estimate"] is None
    assert cn.ConstructionPlan.from_json_dict(data) == plan
    del data["rounds"][0]["estimate"]  # a field with a default may be left out
    assert cn.ConstructionPlan.from_json_dict(data) == plan


# ---------------------------------------------------------------------------
# Plans are checked on load
# ---------------------------------------------------------------------------

PLAN_DATA = _plan().to_json_dict()

#: Keys of a plan's dicts, by the type of their values.
INT_KEYS = {"index", "n0", "n_start", "n_end", "radius", "alpha", "trials", "target_count",
            "evaluated_targets"}
FLOAT_KEYS = {"confidence", "worst_lb"}
STR_KEYS = {"status", "radius_mode"}


def _dicts(data):
    """Every dict in a plan's JSON form, the plan's own first."""
    yield data
    for r in data["rounds"]:
        yield r
        if r["estimate"] is not None:
            yield r["estimate"]


@st.composite
def broken_plans(draw):
    data = copy.deepcopy(PLAN_DATA)
    where = draw(st.sampled_from(list(_dicts(data))))
    kind = draw(st.sampled_from(["missing", "unknown", "type", "pair", "arith"]))
    keys = sorted(set(where) - {"estimate"})  # a round's estimate may be None or left out
    key = draw(st.sampled_from(keys))
    if kind == "missing":
        del where[key]
    elif kind == "unknown":
        where[draw(st.sampled_from(["extra", "Rounds", "n0 ", "pairs"]))] = 1
    elif kind == "type":
        value = where[key]
        if key in INT_KEYS:
            bad = draw(st.sampled_from([str(value), value + 0.5, None, True, [value]]))
        elif key in FLOAT_KEYS:
            bad = draw(st.sampled_from([str(value), None, [value], False]))
        elif key in STR_KEYS:
            bad = draw(st.sampled_from([1, None, [value]]))
        elif key == "master_seed":
            bad = draw(st.sampled_from([-1, "3", 1.5, [], [1, "a"], {"seed": 1}, None]))
        elif key == "pair":
            bad = draw(st.sampled_from([value[:3], value + [1], "2,3,2,1", None, [2, 3, 2, "1"]]))
        elif key in ("grid", "rounds"):
            bad = draw(st.sampled_from([{}, "x", None, [{}]] if key == "rounds" else [{}, ["16"]]))
        elif key == "worst_target":
            bad = draw(st.sampled_from([[0], [0, 0, 0], ["0", 0], 3]))
        elif key == "per_target_lb":
            bad = draw(st.sampled_from([[[0, 0], 0.5], [[[0, 0]]], [[[0], 0.5]], {}]))
        else:  # reason
            bad = draw(st.sampled_from([1, [], {}]))
        where[key] = bad
    elif kind == "pair":
        pair = where.get("pair") or data["rounds"][0]["pair"]
        i = draw(st.integers(0, 3))
        pair[i] += draw(st.integers(-3, 3).filter(bool))
    else:
        r = data["rounds"][draw(st.integers(0, len(data["rounds"]) - 1))]
        r[draw(st.sampled_from(["index", "n0", "n_start", "n_end"]))] += draw(
            st.integers(-3, 3).filter(bool)
        )
    return data


@settings(max_examples=300, deadline=None)
@given(broken_plans())
def test_every_single_mutation_is_refused(data):
    with pytest.raises(ParameterError):
        cn.ConstructionPlan.from_json_dict(data)


@pytest.mark.parametrize(
    "mutate, named",
    [
        (lambda d: d["rounds"][0]["pair"].__setitem__(3, 5), "c1*b1 - c2*b2"),
        (lambda d: d["rounds"][1].__setitem__("n_end", d["rounds"][1]["n_end"] + 3), "period"),
        (lambda d: d["rounds"][1].update(n_start=d["rounds"][1]["n_start"] + 1,
                                          n_end=d["rounds"][1]["n_end"] + 1), "contiguous"),
        (lambda d: d["rounds"].reverse(), "contiguous"),
        (lambda d: d.pop("status"), "status"),
        (lambda d: d["rounds"][0]["estimate"].__setitem__("grid", [16, "32"]), "grid"),
        (lambda d: d.__setitem__("master_seed", [3, -1]), "master_seed"),
    ],
)
def test_refusals_name_the_fault(mutate, named):
    data = copy.deepcopy(PLAN_DATA)
    mutate(data)
    with pytest.raises(ParameterError, match=named.replace("*", r"\*")):
        cn.ConstructionPlan.from_json_dict(data)
