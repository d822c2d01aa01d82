"""Command-line front end.

Each subcommand binds one library operation to flags, an optional JSON config
file (flags override file values; unknown keys are rejected), seeded streams,
and exportable reports.  Outputs are byte-stable for identical inputs and
seeds: no timestamps, sorted keys, and a versioned metadata header.

Exit codes: 0 success, 1 execution error (bad input, I/O), 2 a verification
check failed, 3 a search ended inconclusive (for example a horizon cap was
reached before certification).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import construction as _construction
from . import exact as _exact
from . import sequences as _sequences
from . import verify as _verify
from . import walk as _walk
from .errors import RadwalkError, ParameterError, _digit_limit, _int_param, _past_digit_limit
from .rng import RNG_ID, SEED_RULE_ID, json_decode, json_encode

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFY_FAILED = 2
EXIT_INCONCLUSIVE = 3

REPORT_VERSION = 1


@dataclass
class RunConfig:
    """A fully validated run: one subcommand plus its arguments."""

    command: str
    args: dict = field(default_factory=dict)

    to_dict = json_encode
    from_dict = classmethod(json_decode)  # a command string and an optional args object


def _from_json_file(path, flag: str, build):
    """``build`` of the JSON value in the file ``path`` given by ``flag``: a
    file that is not JSON, or a value ``build`` refuses, fails naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return build(json.load(fh))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, ParameterError
        raise _digit_limit(exc, f"{flag} {path}") or ParameterError(f"{flag} {path}: {exc}") from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in str(text).split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ParameterError(f"expected a comma-separated integer list, got {text!r}") from exc


def _number_list(text: str) -> list:
    out = []
    for p in str(text).split(","):  # argparse turns a bare "--" value into a list
        p = p.strip()
        if not p:
            continue
        out.append(_sequences.int_if_whole(_sequences._fraction_param(p, "list entry")))
    if not out:
        raise ParameterError("expected a nonempty comma-separated list")
    return out


def _point(text: str) -> tuple[int, int]:
    parts = _int_list(text)
    if len(parts) != 2 or text.count(",") != 1:
        raise ParameterError(f"expected a point 'x,y', got {text!r}")
    return parts[0], parts[1]


def _sequence_from_args(args: dict) -> _sequences.StepSequence:
    spec = args.get("seq")
    path = args.get("seq_file")
    lst = args.get("seq_list")
    given = [v for v in (spec, path, lst) if v]
    if len(given) != 1:
        raise ParameterError("exactly one of --seq, --seq-file, --seq-list is required")
    if spec:
        try:
            config = json.loads(spec)
        except ValueError as exc:
            refusal = _digit_limit(exc, "--seq") or ParameterError(f"--seq must be a JSON object: {exc}")
            raise refusal from None
        return _sequences.sequence_from_config(config)
    if path:
        return _from_json_file(path, "--seq-file", _sequences.sequence_from_config)
    return _sequences.load_explicit_list(lst)


# ---------------------------------------------------------------------------
# Argument declaration (one entry per subcommand; used for parser and for
# config-file key validation)
# ---------------------------------------------------------------------------

_SEQ_FLAGS = [
    ("--seq", {"help": "sequence config as inline JSON"}),
    ("--seq-file", {"help": "path to a sequence config JSON file"}),
    ("--seq-list", {"help": "path to a one-value-per-line explicit list"}),
]

_COMMANDS: dict[str, list[tuple[str, dict]]] = {
    "simulate": _SEQ_FLAGS
    + [
        ("--n", {"type": int, "required": True, "help": "horizon (steps)"}),
        ("--seed", {"type": int, "default": 0}),
        ("--trial", {"type": int, "default": 0}),
        ("--record", {"action": "store_true", "help": "record the trajectory; its CSV, the recorder's "
                      "table with LF line ends, is written with --out and --format csv|both"}),
        ("--width-bits", {"type": int, "default": 63}),
        ("--promote", {"action": "store_true", "help": "grow past the width instead of failing"}),
    ],
    "mc-return": _SEQ_FLAGS
    + [
        ("--n", {"type": int, "required": True}),
        ("--trials", {"type": int, "required": True}),
        ("--seed", {"type": int, "default": 0}),
        ("--target", {"default": "0,0"}),
        ("--level", {"type": float, "default": 0.95}),
    ],
    "exact.pmf1d": [("--d", {"required": True, "help": "steps, comma separated"})],
    "exact.pmf2d": [("--a", {"required": True})],
    "exact.mod": [
        ("--d", {"required": True}),
        ("--m", {"type": int, "required": True}),
        ("--residue", {"type": int, "default": 0}),
        ("--method", {"default": "auto", "choices": ["auto", "residue", "full"]}),
    ],
    "exact.interval": [
        ("--d", {"required": True}),
        ("--half-width", {"required": True, "help": "window half width D"}),
    ],
    "exact.hit": [
        ("--a", {"required": True}),
        ("--target", {"default": "0,0"}),
        ("--horizon", {"type": int, "required": True}),
    ],
    "sequence.make": _SEQ_FLAGS + [("--n", {"type": int, "default": 16})],
    "sequence.decompose": _SEQ_FLAGS + [("--n", {"type": int, "required": True})],
    "sequence.doubling": _SEQ_FLAGS
    + [
        ("--n", {"type": int, "required": True}),
        ("--gap-bound", {"default": None}),
    ],
    "sequence.monotone": _SEQ_FLAGS
    + [
        ("--r", {"default": "1"}),
        ("--s", {"default": "1"}),
        ("--n-max", {"type": int, "required": True}),
    ],
    "sequence.blocks": [
        ("--k", {"type": int, "required": True}),
        ("--i", {"type": int, "required": True}),
        ("--max-bits", {"type": int, "default": 64}),
    ],
    "construct.bezout": [
        ("--b1", {"type": int, "required": True}),
        ("--b2", {"type": int, "required": True}),
    ],
    "construct.n0": [
        ("--b1", {"type": int, "required": True}),
        ("--b2", {"type": int, "required": True}),
        ("--radius", {"type": int, "default": 0}),
        ("--trials", {"type": int, "default": 400}),
        ("--seed", {"type": int, "default": 0}),
        ("--confidence", {"type": float, "default": 0.95}),
        ("--horizon-start", {"type": int, "default": 16}),
        ("--horizon-cap", {"type": int, "default": 1 << 14}),
    ],
    "construct.build": [
        ("--good-set", {"default": None, "help": "elements, comma separated"}),
        ("--good-set-file", {"default": None}),
        ("--rounds", {"type": int, "required": True}),
        ("--trials", {"type": int, "default": 400}),
        ("--seed", {"type": int, "default": 0}),
        ("--confidence", {"type": float, "default": 0.95}),
        ("--horizon-cap", {"type": int, "default": 1 << 14}),
        ("--radius-mode", {"default": "coarse", "choices": ["coarse", "realized"]}),
        ("--evaluate-trials", {"type": int, "default": 0}),
    ],
    "construct.check-good": [
        ("--good-set", {"default": None}),
        ("--good-set-file", {"default": None}),
        ("--horizon", {"type": int, "default": None}),
    ],
    "verify.supermartingale": [("--radius", {"type": int, "required": True})],
    "verify.elo": [
        ("--d", {"required": True}),
        ("--half-width", {"required": True}),
    ],
    "verify.modlemma": [
        ("--d", {"required": True}),
        ("--m", {"type": int, "required": True}),
        ("--cap", {"type": float, "default": 10.0}),
    ],
    "verify.hitting": [
        ("--r", {"type": float, "required": True}),
        ("--step", {"type": int, "default": 1}),
        ("--trials", {"type": int, "default": 10_000}),
        ("--seed", {"type": int, "default": 0}),
        ("--floor", {"type": float, "default": 0.15}),
        ("--start-mode", {"default": "axis", "choices": ["axis", "ring"]}),
    ],
    "verify.suppmf": [
        ("--k-max", {"type": int, "required": True}),
        ("--k-floor", {"type": int, "default": 8}),
        ("--ratio-cap", {"type": float, "default": 2.0}),
        ("--slope-cap", {"type": float, "default": 0.1}),
    ],
}

_GLOBAL_FLAGS = [
    ("--out", {"default": None, "help": "output path base (writes <out>.json / <out>.csv)"}),
    ("--format", {"default": "structured", "choices": ["structured", "csv", "both"]}),
    ("--workers", {"type": int, "default": 1}),
    ("--config", {"default": None, "help": "JSON config file; flags override its args"}),
]


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


class _Parser(argparse.ArgumentParser):
    """argparse whose refusal is a :class:`ParameterError` naming the command,
    which :func:`main` reports like any other: one ``radwalk: error:`` line
    and :data:`EXIT_ERROR`.  ``--help`` still exits 0."""

    def error(self, message):
        command = self.prog.removeprefix("radwalk").strip()
        raise ParameterError(f"{command + ': ' if command else ''}{message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radwalk",
        description="Planar Rademacher-walk toolkit: simulation, exact oracles, checks.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    tree: dict[str, list[str]] = {}
    for cmd in _COMMANDS:
        g, _, sub = cmd.partition(".")
        tree.setdefault(g, []).append(sub)
    for g, subs in tree.items():
        gp = groups.add_parser(g, help=f"{g} operations")
        if subs == [""]:
            _add_flags(gp, _COMMANDS[g])
            gp.set_defaults(command=g)
        else:
            sp = gp.add_subparsers(dest="sub", required=True)
            for sub in subs:
                cmd = f"{g}.{sub}"
                p = sp.add_parser(sub, help=f"{cmd} operation")
                _add_flags(p, _COMMANDS[cmd])
                p.set_defaults(command=cmd)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: parsing leaves it as it was."""
    return build_parser()


def _add_flags(parser: argparse.ArgumentParser, flags: list[tuple[str, dict]]) -> None:
    for flag, kw in flags + _GLOBAL_FLAGS:
        # Defaults and required flags are applied after the config-file merge
        # (see parse_config), so that only explicitly passed flags override
        # file values and a file may supply a required one.
        kw = {k: v for k, v in kw.items() if k not in ("default", "required")}
        parser.add_argument(flag, **kw, default=argparse.SUPPRESS)


def _defaults_for(command: str) -> dict:
    out = {}
    for flag, kw in _COMMANDS[command] + _GLOBAL_FLAGS:
        if "default" in kw:
            out[_dest(flag)] = kw["default"]
        elif kw.get("action") == "store_true":
            out[_dest(flag)] = False
    return out


def _file_value(key: str, kw: dict, value):
    """A config-file value as its flag would give it: a string goes through the
    flag's ``type``, any other JSON value must already have that type, and
    ``null`` stands only for a flag whose default is None."""
    kind = bool if kw.get("action") == "store_true" else kw.get("type", str)
    wrong = ParameterError(f"config value {key!r}: expected {kind.__name__}, got {value!r}")
    if isinstance(value, str) and kind in (int, float):
        try:
            value = kind(value)
        except ValueError:
            raise wrong from None
    # master seeds are checked, and named, where the stream key is derived
    if key == "seed" or (value is None and kw.get("default", 0) is None):
        return value
    ok = {int: int, float: (int, float), bool: bool, str: (str, int, float)}[kind]
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, ok):
        raise wrong
    if value not in kw.get("choices", [value]):
        raise ParameterError(f"config value {key!r} must be one of {kw['choices']}")
    return value


def parse_config(argv: list[str]) -> RunConfig:
    """Parse flags (and an optional config file) into a validated RunConfig."""
    ns = vars(_parser().parse_args(argv))
    command = ns.pop("command")
    ns.pop("group", None)
    ns.pop("sub", None)
    args = _defaults_for(command)
    flags = {_dest(f): kw for f, kw in _COMMANDS[command] + _GLOBAL_FLAGS}
    config_path = ns.pop("config", None) or args.get("config")
    if config_path:
        file_cfg = _from_json_file(config_path, "--config", RunConfig.from_dict)
        if file_cfg.command != command:
            raise ParameterError(
                f"config file is for {file_cfg.command!r}, not {command!r}"
            )
        unknown = set(file_cfg.args) - set(flags)
        if unknown:
            raise ParameterError(f"unknown keys in config file: {sorted(unknown)}")
        args.update({k: _file_value(k, flags[k], v) for k, v in file_cfg.args.items()})
    args.update(ns)
    args.pop("config", None)
    missing = sorted(k for k, kw in flags.items() if kw.get("required") and args.get(k) is None)
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ParameterError(f"missing required arguments: {flags}")
    return RunConfig(command=command, args=args)


# ---------------------------------------------------------------------------
# Handlers: each returns (status, record, table), the table as CSV text
# ---------------------------------------------------------------------------


def _table(rows: list[dict], columns: list[str]) -> str:
    """CSV text of ``rows``: a header of ``columns``, then each row's values
    in that order as ``str``, every line ending in LF."""
    lines = [columns] + [[row[c] for c in columns] for row in rows]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)


def _handle_simulate(command: str, a: dict):
    seq = _sequence_from_args(a)
    width_bits = _int_param(a["width_bits"], "width_bits", 0)  # checked with --promote too
    # only the CSV report holds the trajectory: record it when --record has one to fill
    rec = _walk.TrajectoryRecorder()  # else it stays empty, its table a bare header
    to_csv = a["record"] and a.get("out") and a.get("format") in ("csv", "both")
    summary = _walk.simulate(
        seq, a["n"], a["seed"], rec if to_csv else None,
        trial=a["trial"], width_bits=None if a["promote"] else width_bits,
    )
    table = io.StringIO()
    rec.export_csv(table)
    record = summary.to_json_dict()
    record["sequence"] = seq.to_config()
    return EXIT_OK, record, table.getvalue().replace("\r\n", "\n")


def _handle_mc_return(command: str, a: dict):
    seq = _sequence_from_args(a)
    est = _walk.monte_carlo_return(
        seq,
        a["n"],
        a["trials"],
        a["seed"],
        _point(a["target"]),
        level=a["level"],
        workers=a["workers"],
    )
    rec = est.to_json_dict()
    row = {
        "trials": est.trials,
        "successes": est.successes,
        "estimate": est.estimate,
        "ci_low": est.ci.low,
        "ci_high": est.ci.high,
    }
    return EXIT_OK, rec, _table([row], list(row))


def _handle_exact(command: str, a: dict):
    if command == "exact.pmf1d":
        p = _exact.pmf_1d(_number_list(a["d"]))
        values, masses = [str(v) for v in p.values], p.masses
        rec = {"steps": [str(s) for s in p.steps], "support_size": len(p.values),
               "pmf": {v: str(m) for v, m in zip(values, masses)}}
        rows = [{"value": v, "mass": f"{m.numerator}/{m.denominator}"} for v, m in zip(values, masses)]
        return EXIT_OK, rec, _table(rows, ["value", "mass"])
    if command == "exact.pmf2d":
        p = _exact.pmf_2d(_number_list(a["a"]))
        points = [(str(x), str(y)) for x, y in p.points]
        masses = [str(Fraction(w, p.total)) for w in p.weights]
        rows = [{"x": x, "y": y, "mass": m} for (x, y), m in zip(points, masses)]
        rec = {"steps": [str(s) for s in p.steps], "support_size": len(p.points),
               "pmf": {f"{x},{y}": m for (x, y), m in zip(points, masses)}}
        return EXIT_OK, rec, _table(rows, ["x", "y", "mass"])
    if command == "exact.mod":
        prob = _exact.mod_probability(
            _number_list(a["d"]), a["m"], a["residue"], method=a["method"]
        )
        rec = {"m": a["m"], "residue": a["residue"], "probability": str(prob),
               "probability_float": float(prob), "method": a["method"]}
        return EXIT_OK, rec, _table([rec], list(rec))
    if command == "exact.interval":
        sup, x = _exact.max_interval_probability(
            _number_list(a["d"]), _sequences._fraction_param(a["half_width"], "half-width")
        )
        rec = {"sup": str(sup), "sup_float": float(sup), "argmax_x": str(x),
               "half_width": a["half_width"]}
        return EXIT_OK, rec, _table([rec], list(rec))
    if command == "exact.hit":
        prob = _exact.hit_probability_2d(
            _number_list(a["a"]), _point(a["target"]), a["horizon"]
        )
        rec = {"target": a["target"], "horizon": a["horizon"],
               "probability": str(prob), "probability_float": float(prob)}
        return EXIT_OK, rec, _table([rec], list(rec))
    raise AssertionError(command)


def _handle_sequence(command: str, a: dict):
    if command == "sequence.blocks":
        k, i, max_bits = a["k"], a["i"], a["max_bits"]
        # The report prints 2**e and, if 2**e <= max_bits, 2**(2**e).  A power 2**m
        # has over 0.3*m digits: refuse it unbuilt past the limit (near it, str() decides).
        e, limit = k * k + i - 1, getattr(sys, "get_int_max_str_digits", int)()
        if limit and 1 <= i <= k and 3 * (1 << e if e < max(max_bits, 0).bit_length() else e) > 10 * limit:
            raise _past_digit_limit("the output")
        rec = json_encode(_sequences.sub_block_length(k, i, max_bits=max_bits))
        return EXIT_OK, rec, _table([rec], list(rec))
    seq = _sequence_from_args(a)
    if command == "sequence.make":
        prefix = seq.prefix(a["n"])
        rec = {"config": seq.to_config(), "prefix": [str(v) for v in prefix]}
        rows = [{"n": i + 1, "a_n": str(v)} for i, v in enumerate(prefix)]
        return EXIT_OK, rec, _table(rows, ["n", "a_n"])
    if command == "sequence.decompose":
        d = _sequences.run_length_decompose(seq, a["n"])
        rows = [
            {"block": j + 1, "value": v, "multiplicity": m, "start": s}
            for j, (v, m, s) in enumerate(zip(d.values, d.multiplicities, d.starts))
        ]
        return EXIT_OK, json_encode(d), _table(rows, ["block", "value", "multiplicity", "start"])
    if command == "sequence.doubling":
        gap = a.get("gap_bound")
        cert = _sequences.extract_doubling_subsequence(
            seq, a["n"], None if gap in (None, "") else _sequences._fraction_param(gap, "gap bound")
        )
        rec = {
            "indices": list(cert.indices),
            "size": cert.size,
            "gap_bound": str(cert.gap_bound),
            "ratio": None if cert.ratio is None else str(cert.ratio),
        }
        rows = [{"position": i + 1, "index": idx} for i, idx in enumerate(cert.indices)]
        return EXIT_OK, rec, _table(rows, ["position", "index"])
    if command == "sequence.monotone":
        rep = _sequences.check_rs_monotone(seq, a["r"], a["s"], a["n_max"])
        rows = [{"n": n, "m": m} for n, m in rep.violations]
        return EXIT_OK, json_encode(rep), _table(rows, ["n", "m"])
    raise AssertionError(command)


def _good_set_from_args(a: dict) -> _construction.GoodSetPrefix:
    if a.get("good_set"):
        return _construction.GoodSetPrefix(_int_list(a["good_set"]))
    if a.get("good_set_file"):
        return _construction.GoodSetPrefix.from_file(a["good_set_file"])
    raise ParameterError("one of --good-set or --good-set-file is required")


def _handle_construct(command: str, a: dict):
    if command == "construct.bezout":
        pair = _construction.positive_bezout(a["b1"], a["b2"])
        rec = {"b1": pair.b1, "b2": pair.b2, "c1": pair.c1, "c2": pair.c2,
               "period": pair.period, "pattern": pair.pattern()}
        return EXIT_OK, rec, _table([rec], ["b1", "b2", "c1", "c2", "period"])
    if command == "construct.n0":
        pair = _construction.positive_bezout(a["b1"], a["b2"])
        est = _construction.estimate_N0(
            pair,
            a["radius"],
            confidence=a["confidence"],
            trials=a["trials"],
            master_seed=a["seed"],
            horizon_start=a["horizon_start"],
            horizon_cap=a["horizon_cap"],
            workers=a["workers"],
        )
        rec = est.to_json_dict()
        status = EXIT_OK if est.certified else EXIT_INCONCLUSIVE
        row = {"status": est.status, "n0": est.n0, "worst_lb": est.worst_lb,
               "targets": est.target_count}
        return status, rec, _table([row], list(row))
    if command == "construct.build":
        prefix = _good_set_from_args(a)
        _int_param(a["evaluate_trials"], "evaluate_trials", 0)
        plan, _seq = _construction.build_recurrent_sequence(
            prefix,
            a["rounds"],
            master_seed=a["seed"],
            trials=a["trials"],
            confidence=a["confidence"],
            horizon_cap=a["horizon_cap"],
            radius_mode=a["radius_mode"],
            workers=a["workers"],
        )
        rec = plan.to_json_dict()
        if a["evaluate_trials"]:
            ev = _construction.evaluate_plan(
                plan, a["evaluate_trials"], (a["seed"], 201), workers=a["workers"]
            )
            rec["evaluation"] = ev.to_json_dict()
        rows = [
            {"round": r.index, "b1": r.pair.b1, "b2": r.pair.b2, "n0": r.n0,
             "n_start": r.n_start, "n_end": r.n_end,
             "status": r.estimate.status if r.estimate else "none"}
            for r in plan.rounds
        ]
        status = EXIT_OK if plan.status == "certified" else EXIT_INCONCLUSIVE
        return status, rec, _table(rows, ["round", "b1", "b2", "n0", "n_start", "n_end", "status"])
    if command == "construct.check-good":
        prefix = _good_set_from_args(a)
        rep = _construction.check_good_set(prefix, a.get("horizon"))
        rows = [
            {"element": e, "partners": c, "flagged": e in rep.flagged}
            for e, c in zip(rep.elements, rep.partner_counts)
        ]
        rec = {"elements": list(rep.elements), "partner_counts": list(rep.partner_counts),
               "flagged": list(rep.flagged), "ok": rep.ok}
        status = EXIT_OK if rep.ok else EXIT_VERIFY_FAILED
        return status, rec, _table(rows, ["element", "partners", "flagged"])
    raise AssertionError(command)


def _handle_verify(command: str, a: dict):
    if command == "verify.supermartingale":
        rep = _verify.verify_supermartingale(a["radius"])
        rec = rep.to_json_dict()
        row = {"radius": rep.radius, "points": rep.points, "max_delta": rep.max_delta,
               "max_agreement_gap": rep.max_agreement_gap, "passed": rep.passed}
        return (EXIT_OK if rep.passed else EXIT_VERIFY_FAILED), rec, _table([row], list(row))
    if command == "verify.elo":
        cmp_ = _verify.verify_elo(
            _number_list(a["d"]), _sequences._fraction_param(a["half_width"], "half-width")
        )
        rec = cmp_.to_json_dict()
        row = {"exact": str(cmp_.exact), "bound": cmp_.bound, "passed": cmp_.passed}
        return (EXIT_OK if cmp_.passed else EXIT_VERIFY_FAILED), rec, _table([row], list(row))
    if command == "verify.modlemma":
        rep = _verify.verify_mod_lemma(_number_list(a["d"]), a["m"], cap=a["cap"])
        rec = rep.to_json_dict()
        row = {"k": rep.k, "m": rep.m, "sup": str(rep.sup), "ratio": rep.ratio,
               "passed": rep.passed}
        ok = rep.passed is None or rep.passed
        return (EXIT_OK if ok else EXIT_VERIFY_FAILED), rec, _table([row], list(row))
    if command == "verify.hitting":
        if not 0 <= a["floor"] <= 1:
            raise ParameterError(f"floor must lie in [0, 1], got {a['floor']}")
        res = _verify.hitting_time_experiment(
            a["r"], a["step"], a["trials"], a["seed"], workers=a["workers"],
            start_mode=a["start_mode"],
        )
        rec = res.to_json_dict()
        rec["floor"] = a["floor"]
        passed = res.ci.low > a["floor"]
        rec["passed"] = passed
        row = {"r": res.r, "horizon": res.horizon, "estimate": res.estimate,
               "ci_low": res.ci.low, "passed": passed}
        return (EXIT_OK if passed else EXIT_VERIFY_FAILED), rec, _table([row], list(row))
    if command == "verify.suppmf":
        rep = _verify.sup_pmf_trend(
            a["k_max"], k_floor=a["k_floor"], ratio_cap=a["ratio_cap"],
            slope_cap=a["slope_cap"],
        )
        rec = rep.to_json_dict()
        rows = [{"k": r.k, "sup": str(r.sup), "ratio": r.ratio} for r in rep.rows]
        return (EXIT_OK if rep.passed else EXIT_VERIFY_FAILED), rec, _table(rows, ["k", "sup", "ratio"])
    raise AssertionError(command)


#: The handler of each command, by its group (a command without one is its own group).
_HANDLERS = {
    "simulate": _handle_simulate,
    "mc-return": _handle_mc_return,
    "exact": _handle_exact,
    "sequence": _handle_sequence,
    "construct": _handle_construct,
    "verify": _handle_verify,
}


def _dispatch(config: RunConfig):
    if config.command not in _COMMANDS:
        raise ParameterError(f"unknown command {config.command!r}")
    return _HANDLERS[config.command.partition(".")[0]](config.command, config.args)


def emit_report(
    command: str,
    record: dict,
    table: str,
    out: str | None,
    fmt: str,
    status: int,
) -> dict:
    """Write the structured and/or CSV report; returns the full document.
    The CSV report is a comment line naming the command, then ``table``.

    The data sections are byte-stable for identical inputs and seeds; the
    metadata header carries the report version and static stream identifiers.
    """
    document = {
        "meta": {
            "format": "radwalk-report",
            "version": REPORT_VERSION,
            "command": command,
            "rng_id": RNG_ID,
            "seed_rule": SEED_RULE_ID,
        },
        "status": {0: "ok", 2: "verification-failed", 3: "inconclusive"}.get(status, "error"),
        "record": record,
    }
    if out:
        base = Path(out)
        base.parent.mkdir(parents=True, exist_ok=True)
        if fmt in ("structured", "both"):
            base.with_suffix(".json").write_text(
                json.dumps(document, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
        if fmt in ("csv", "both"):
            comment = f"# radwalk-report v{REPORT_VERSION} command={command}\n"
            base.with_suffix(".csv").write_text(comment + table, encoding="utf-8")
    return document


def run(config: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    args = dict(config.args)
    out = args.get("out")
    fmt = args.get("format", "structured")
    args.setdefault("workers", 1)
    status, record, table = _dispatch(RunConfig(config.command, args))
    document = emit_report(config.command, record, table, out, fmt, status)
    if not out:  # the whole text first: a number too long to print leaves no half report
        sys.stdout.write(json.dumps(document, sort_keys=True, indent=2) + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        return run(config)
    except RadwalkError as exc:
        print(f"radwalk: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"radwalk: i/o error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:  # str() of an int in the report
        if not (refusal := _digit_limit(exc, "the output")):
            raise
        print(f"radwalk: error: {refusal}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
