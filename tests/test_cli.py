"""Command-line front end: parsing, dispatch, exit codes, report stability."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radwalk import cli, construction, exact, sequences, verify, walk
from radwalk.errors import ParameterError

CONST1 = '{"family":"constant","params":{"value":1}}'

#: A one-round plan: two periods of the pattern 2, 2, 3 of the pair (2, 3).
PLAN_ROUND = {"index": 0, "pair": [2, 3, 2, 1], "n0": 2, "n_start": 0, "n_end": 6, "radius": 0,
              "alpha": 0, "estimate": None}
PLAN = {"rounds": [PLAN_ROUND], "status": "inconclusive", "master_seed": 0, "confidence": 0.95,
        "trials": 8, "radius_mode": "coarse"}


def run_cli(argv):
    return cli.main(argv)


def fresh_process(argv, module="radwalk.cli"):
    """Run the CLI in a new interpreter; returns the CompletedProcess."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )


class TestParseConfig:
    def test_minimal_simulate_flags(self):
        cfg = cli.parse_config(["simulate", "--seq", CONST1, "--n", "4"])
        assert cfg.command == "simulate"
        assert cfg.args["n"] == 4
        assert cfg.args["seed"] == 0  # default applied

    def test_runconfig_roundtrip(self):
        cfg = cli.parse_config(["exact", "mod", "--d", "1,2,3", "--m", "3"])
        again = cli.RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ParameterError):
            cli.RunConfig.from_dict({"command": "simulate", "args": {}, "extra": 1})

    def test_config_file_merge_and_override(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps(
                {"command": "mc-return", "args": {"seq": CONST1, "n": 2, "trials": 50}}
            ),
            encoding="utf-8",
        )
        cfg = cli.parse_config(
            ["mc-return", "--config", str(path), "--trials", "75"]
        )
        assert cfg.args["n"] == 2  # from file
        assert cfg.args["trials"] == 75  # flag overrides file

    def test_unknown_config_file_key_named(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps({"command": "mc-return", "args": {"bogus_key": 1}}),
            encoding="utf-8",
        )
        with pytest.raises(ParameterError) as exc:
            cli.parse_config(["mc-return", "--config", str(path)])
        assert "bogus_key" in str(exc.value)

    def test_config_file_command_mismatch(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"command": "simulate", "args": {}}), encoding="utf-8")
        with pytest.raises(ParameterError):
            cli.parse_config(["mc-return", "--config", str(path)])

    def test_missing_required(self):
        with pytest.raises(ParameterError):
            cli.parse_config(["exact", "mod", "--d", "1,2"])

    @pytest.mark.parametrize(
        "args,named",
        [
            ({"d": "1,2,3", "m": "x"}, "'m'"),  # a string where an int is expected
            ({"d": "1,2,3", "m": [4]}, "'m'"),
            ({"d": "1,2,3", "m": None}, "'m'"),
            ({"d": [1, 2, 3], "m": 4}, "'d'"),
            ({"d": "1,2,3", "m": 4, "residue": 1.5}, "'residue'"),
            ({"d": "1,2,3", "m": 4, "method": "fast"}, "'method'"),
            ({"d": "1,2,3", "m": True}, "'m'"),
        ],
    )
    def test_config_file_values_fail_by_name(self, tmp_path, capsys, args, named):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"command": "exact.mod", "args": args}), encoding="utf-8")
        assert run_cli(["exact", "mod", "--config", str(path)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("radwalk: error: config value " + named)

    def test_config_file_values_as_flags_give_them(self, tmp_path):
        path = tmp_path / "run.json"
        args = {"seq": CONST1, "n": "4", "trials": 50, "level": 1, "target": "0,0"}
        path.write_text(json.dumps({"command": "mc-return", "args": args}), encoding="utf-8")
        cfg = cli.parse_config(["mc-return", "--config", str(path)])
        assert cfg.args["n"] == 4 and cfg.args["level"] == 1
        path.write_text(
            json.dumps({"command": "sequence.doubling", "args": {"gap_bound": None}}),
            encoding="utf-8",
        )
        cfg = cli.parse_config(["sequence", "doubling", "--config", str(path), "--n", "3"])
        assert cfg.args["gap_bound"] is None


class TestExitCodes:
    def test_success(self, capsys):
        assert run_cli(["exact", "pmf1d", "--d", "1,2,3"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["record"]["pmf"]["0"] == "1/4"

    def test_execution_error_on_bad_params(self, capsys):
        assert run_cli(["mc-return", "--seq", CONST1, "--n", "2", "--trials", "0"]) == 1

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["exact", "mod", "--d", "1,2", "--bogus"], "unrecognized arguments: --bogus"),
            (["exact", "mod", "--d", "1,2", "--m"], "exact mod: argument --m: expected one argument"),
            (["mc-return", "--workers", "x"], "mc-return: argument --workers: invalid int value: 'x'"),
            ([], "the following arguments are required: group"),
        ],
    )
    def test_malformed_argv_is_an_execution_error(self, argv, line, capsys):
        # 2 stays EXIT_VERIFY_FAILED alone: argparse's refusal returns 1
        assert run_cli(argv) == cli.EXIT_ERROR
        assert capsys.readouterr().err == f"radwalk: error: {line}\n"

    def test_malformed_argv_exits_1_in_a_fresh_process(self):
        proc = fresh_process(["exact", "mod", "--bogus"])
        assert proc.returncode == cli.EXIT_ERROR
        assert proc.stderr.startswith("radwalk: error: ") and len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("seed_source", ["flag", "config"])
    def test_bad_seed_fails_by_name(self, tmp_path, seed_source):
        # a negative flag value, or a float from a config file
        argv = ["mc-return", "--seq", CONST1, "--n", "2", "--trials", "5"]
        if seed_source == "flag":
            argv += ["--seed", "-1"]
        else:
            path = tmp_path / "run.json"
            path.write_text(
                json.dumps({"command": "mc-return", "args": {"seed": 1.5}}), encoding="utf-8"
            )
            argv += ["--config", str(path)]
        proc = fresh_process(argv)
        assert proc.returncode == cli.EXIT_ERROR
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("radwalk: error: master seed must be")

    def test_unallocatable_horizon_fails_by_name(self, monkeypatch, capsys):
        # floor(1665**3) unit steps need 34 GiB: the allocation is refused, not made
        class NoOnes:
            def __getattr__(self, name):
                return getattr(np, name)

            def ones(self, *args, **kwargs):
                raise MemoryError

        monkeypatch.setattr(verify, "np", NoOnes())
        assert run_cli(["verify", "hitting", "--r", "1665", "--trials", "3"]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("radwalk: error: horizon 4615754625: the walk arrays do not fit")

    def test_unallocatable_step_array_fails_by_name(self, monkeypatch, capsys):
        # 10**12 int64 steps need 7.3 TiB: the allocation is refused, not made
        class NoFull:
            def __getattr__(self, name):
                return getattr(np, name)

            def full(self, *args, **kwargs):
                raise MemoryError

        monkeypatch.setattr(sequences, "np", NoFull())
        assert run_cli(["simulate", "--seq", CONST1, "--n", str(10**12)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "radwalk: error: horizon 1000000000000: the step array does not fit in memory\n"

    def test_unallocatable_prefix_fails_by_name(self, monkeypatch, capsys):
        # 10**12 prefix slots need 7.3 TiB: the allocation is refused, not made
        class NoRepeat:
            def __getattr__(self, name):
                return getattr(itertools, name)

            def repeat(self, *args):
                raise MemoryError

        monkeypatch.setattr(sequences, "itertools", NoRepeat())
        assert run_cli(["sequence", "make", "--seq", CONST1, "--n", str(10**12)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "radwalk: error: prefix length 1000000000000: the list does not fit in memory\n"

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"args": {}}', "missing keys ['command']"),
            ("5", "got 5"),
            ("not json", "Expecting value"),
            ('{"command": "exact.mod", "args": [1]}', "RunConfig.args"),
            ('{"command": 5, "args": {}}', "RunConfig.command"),
        ],
    )
    def test_malformed_config_file_fails_by_name(self, tmp_path, capsys, text, named):
        path = tmp_path / "run.json"
        path.write_text(text, encoding="utf-8")
        argv = ["exact", "mod", "--d", "1,2", "--m", "3", "--config", str(path)]
        assert run_cli(argv) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"radwalk: error: --config {path}: ") and named in err, err

    @pytest.mark.parametrize("text, named", [("not json", "Expecting value"), ("[1]", "a sequence config")])
    def test_malformed_seq_file_fails_by_name(self, tmp_path, capsys, text, named):
        path = tmp_path / "seq.json"
        path.write_text(text, encoding="utf-8")
        assert run_cli(["sequence", "make", "--seq-file", str(path)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"radwalk: error: --seq-file {path}: {named}"), err

    def test_unknown_command_fails_by_name(self):
        for command in ("bogus", "exact.bogus", "simulate.x"):
            with pytest.raises(ParameterError, match=f"unknown command '{command}'"):
                cli.run(cli.RunConfig(command))

    def test_runs_as_a_module(self):
        proc = fresh_process(["construct", "bezout", "--b1", "2", "--b2", "3"], module="radwalk")
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["record"]["pattern"] == [2, 2, 3]

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "pmf1d", "--d", "1,abc"],
            ["exact", "pmf2d", "--a", "1/0"],
            ["exact", "interval", "--d", "2,3", "--half-width", "x"],
            ["exact", "hit", "--a", "1,1", "--target", "1,y", "--horizon", "2"],
            ["verify", "elo", "--d", "2,3", "--half-width", "1/0"],
            ["verify", "modlemma", "--d", "3/2,2", "--m", "4"],
            ["sequence", "make", "--seq", '{"family":"floor-power","params":{"gamma":"1/0"}}'],
            ["sequence", "make", "--seq", '{"family":"constant","params":{"value":"abc"}}'],
            ["sequence", "monotone", "--seq", CONST1, "--n-max", "4", "--r", "r"],
            ["sequence", "doubling", "--seq", CONST1, "--n", "4", "--gap-bound", "1/0"],
            # past the interpreter's int/str digit limit: in the input, or in the output
            ["exact", "pmf1d", "--d", "1e99999"],
            ["sequence", "make", "--seq", '{"family":"constant","params":{"value":%s}}' % ("9" * 5000)],
            ["sequence", "make", "--n", "2", "--seq", '{"family":"floor-power","params":{"gamma":20000}}'],
            ["sequence", "blocks", "--k", "4", "--i", "1", "--max-bits", "100000"],
        ],
    )
    def test_bad_numbers_fail_by_name(self, argv, capsys):
        assert run_cli(argv) == cli.EXIT_ERROR
        assert capsys.readouterr().err.startswith("radwalk: error: ")

    @pytest.mark.parametrize("flag", ["--seq", "--seq-file", "--config"])
    def test_json_int_past_the_digit_limit_fails_by_name(self, flag, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        big = "9" * (limit + 1)
        argv = ["sequence", "make"]
        if flag == "--seq":
            argv += [flag, '{"family":"constant","params":{"value":%s}}' % big]
            where = flag
        else:
            path = tmp_path / "big.json"
            if flag == "--seq-file":
                path.write_text('{"family":"constant","params":{"value":%s}}' % big, encoding="utf-8")
            else:
                path.write_text('{"command":"sequence.make","args":{"n":%s}}' % big, encoding="utf-8")
                argv += ["--seq", CONST1]
            argv += [flag, str(path)]
            where = f"{flag} {path}"
        assert run_cli(argv) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"radwalk: error: {where} holds an integer of over {limit} digits\n"
        assert len(err) < 200

    @pytest.mark.parametrize(
        "command",
        [["construct", "check-good"], ["construct", "build", "--rounds", "1"]],
        ids=["check-good", "build"],
    )
    def test_good_set_file_int_past_the_digit_limit_fails_by_line(self, command, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "good.txt"
        path.write_text(f"2\n{'9' * (limit + 1)}\n3\n", encoding="utf-8")
        assert run_cli(command + ["--good-set-file", str(path)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"radwalk: error: {path}, line 2: element holds an integer of over {limit} digits\n"
        assert len(err) < 200

    def test_a_huge_support_is_counted_in_short(self, capsys):
        # 2 * 10**4299 + 1 points: a 4300-digit count, shown as a power of two
        assert run_cli(["exact", "pmf1d", "--d", "1e4299"]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        want = "exact support needs about 2**14282 points, exceeding the budget of 10000000"
        assert err == f"radwalk: error: {want}\n"
        assert len(err) < 200

    @pytest.mark.parametrize(
        "plan, argv",
        [
            ({}, ["sequence", "make", "--n", "4"]),
            ({"rounds": [{**PLAN_ROUND, "pair": [2, 3, 5, 5]}]}, ["sequence", "make", "--n", "6"]),
            ({"rounds": [{**PLAN_ROUND, "n_end": 9}]}, ["simulate", "--n", "9"]),
            ({"rounds": [{**PLAN_ROUND, "index": 1}]}, ["sequence", "make", "--n", "6"]),
            ({"trials": "8"}, ["sequence", "make", "--n", "6"]),
        ],
    )
    def test_bad_plans_fail_by_name(self, plan, argv, capsys):
        plan = {**PLAN, **plan} if plan else {}
        seq = {"family": "from-construction-plan", "params": {"plan": plan}}
        assert run_cli(argv + ["--seq", json.dumps(seq)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err.startswith("radwalk: error: ConstructionPlan")

    def test_good_plan_runs(self, capsys):
        seq = {"family": "from-construction-plan", "params": {"plan": PLAN}}
        assert run_cli(["sequence", "make", "--n", "6", "--seq", json.dumps(seq)]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["record"]["prefix"] == list("223223")

    def test_scaled_block_config_round_trips(self, capsys):
        seq = '{"family":"explicit-block","params":{"scale":"scaled","growth":"default-pow2"}}'
        assert run_cli(["sequence", "make", "--n", "3", "--seq", seq]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["record"]["prefix"] == ["1", "1", "2"]
        custom = seq.replace("default-pow2", "custom")
        assert run_cli(["sequence", "make", "--n", "3", "--seq", custom]) == cli.EXIT_ERROR
        assert capsys.readouterr().err.startswith("radwalk: error: growth must be")

    @pytest.mark.parametrize(
        "seq, key",
        [
            ('{"family":"constant","params":{"vlaue":5}}', "vlaue"),
            ('{"family":"floor-power","params":{"gamma":"1/2","gama":3}}', "gama"),
            ('{"family":"explicit-block","params":{"require_squared_growth":true}}',
             "require_squared_growth"),
        ],
    )
    def test_unknown_sequence_params_fail_by_name(self, seq, key, capsys):
        assert run_cli(["sequence", "make", "--n", "3", "--seq", seq]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("radwalk: error: ") and repr(key) in err

    @pytest.mark.parametrize(
        "seq, named",
        [
            ('{"family":"explicit-block","params":{"exponent_bit_budget":"x"}}',
             "exponent_bit_budget"),
            ('{"family":"constant","params":[1]}', "params"),
            ('{"family":"constant","params":{"value":[1]}}', "value"),
            ('{"family":"explicit-list","params":{"values":"12"}}', "values"),
            ('{"family":"explicit-list","params":{"values":[1,true]}}', "values[1]"),
            ("[1]", "a sequence config"),
        ],
    )
    @pytest.mark.parametrize("command", ["make", "decompose", "doubling"])
    def test_untyped_sequence_params_fail_by_name(self, command, seq, named, capsys):
        assert run_cli(["sequence", command, "--n", "3", "--seq", seq]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"radwalk: error: {named} must be"), err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["verify", "hitting", "--r", "nan", "--trials", "3"], "r must be finite"),
            (["verify", "hitting", "--r", "inf", "--trials", "3"], "r must be finite"),
            (["verify", "hitting", "--r=-inf", "--trials", "3"], "r must be finite"),
            (["verify", "hitting", "--r", "1e7", "--trials", "3"], "horizon floor(r^3)"),
            (["simulate", "--seq", CONST1, "--n", "5", "--width-bits", "-3"], "width_bits"),
            (["simulate", "--seq", CONST1, "--n", "5", "--width-bits=-3", "--promote"],
             "width_bits must be >= 0, got -3"),
            (["sequence", "make", "--seq", CONST1, "--n=-1"], "n must be >= 0, got -1"),
            (["construct", "build", "--good-set", "2,3", "--rounds", "0", "--horizon-cap=-1"],
             "horizon_cap must be >= 16, got -1"),
            # below the first horizon of a search, with or without a round to search
            (["construct", "build", "--good-set", "2,3", "--rounds", "0", "--horizon-cap", "8"],
             "horizon_cap must be >= 16, got 8"),
            (["construct", "build", "--good-set", "2,3", "--rounds", "1", "--horizon-cap", "15"],
             "horizon_cap must be >= 16, got 15"),
        ],
    )
    def test_out_of_range_values_fail_by_name(self, argv, named, capsys):
        assert run_cli(argv) == cli.EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"radwalk: error: {named}")

    def test_promote_lifts_the_width_check(self, capsys):
        argv = ["simulate", "--seq", '{"family":"constant","params":{"value":100}}',
                "--n", "40", "--width-bits", "8"]
        assert run_cli(argv) == cli.EXIT_ERROR
        assert capsys.readouterr().err == (
            "radwalk: error: position left the 8-bit range at step 27\n"
        )
        assert run_cli(argv + ["--promote"]) == cli.EXIT_OK
        promoted = capsys.readouterr().out
        assert run_cli(argv[:-2]) == cli.EXIT_OK  # the default 63 bits hold
        assert capsys.readouterr().out == promoted

    def test_negative_check_horizon_fails_by_name(self, capsys):
        argv = ["construct", "check-good", "--good-set", "2,3", "--horizon=-1"]
        assert run_cli(argv) == cli.EXIT_ERROR
        assert capsys.readouterr().err.startswith("radwalk: error: horizon must be >= 1")

    @pytest.mark.parametrize("floor", ["2", "-0.5", "nan"])
    def test_floor_outside_unit_interval_fails_by_name(self, floor, capsys):
        argv = ["verify", "hitting", "--r", "1", "--trials", "3", f"--floor={floor}"]
        assert run_cli(argv) == cli.EXIT_ERROR
        assert capsys.readouterr().err.startswith("radwalk: error: floor must lie in [0, 1]")

    def test_execution_error_on_horizon_mismatch(self):
        seq = '{"family":"explicit-list","params":{"values":[1,2]}}'
        assert run_cli(["simulate", "--seq", seq, "--n", "5"]) == cli.EXIT_ERROR

    def test_verification_failure_exit_two(self, capsys):
        code = run_cli(
            ["verify", "hitting", "--r", "1", "--trials", "300", "--seed", "3",
             "--floor", "0.99"]
        )
        assert code == cli.EXIT_VERIFY_FAILED

    def test_inconclusive_exit_three(self):
        code = run_cli(
            ["construct", "n0", "--b1", "2", "--b2", "3", "--trials", "40",
             "--horizon-cap", "64"]
        )
        assert code == cli.EXIT_INCONCLUSIVE

    def test_verify_pass_exit_zero(self):
        assert run_cli(["verify", "supermartingale", "--radius", "5"]) == cli.EXIT_OK
        assert run_cli(["verify", "elo", "--d", "1,1,1,1", "--half-width", "1"]) == cli.EXIT_OK


class TestReports:
    def test_writes_both_formats(self, tmp_path):
        out = tmp_path / "report"
        code = run_cli(
            ["exact", "pmf1d", "--d", "1,2", "--out", str(out), "--format", "both"]
        )
        assert code == cli.EXIT_OK
        doc = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
        assert doc["meta"]["format"] == "radwalk-report"
        assert doc["meta"]["version"] == cli.REPORT_VERSION
        csv_lines = out.with_suffix(".csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[0].startswith("# radwalk-report v1")
        assert csv_lines[1] == "value,mass"
        assert len(csv_lines) == 2 + 4  # header lines + four support points

    def test_byte_identical_reruns(self, tmp_path):
        args = ["mc-return", "--seq", CONST1, "--n", "2", "--trials", "400",
                "--seed", "11"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(args + ["--out", str(out1)])
        run_cli(args + ["--out", str(out2)])
        assert out1.with_suffix(".json").read_bytes() == out2.with_suffix(".json").read_bytes()

    def test_byte_identical_across_workers(self, tmp_path):
        base = ["mc-return", "--seq", CONST1, "--n", "3", "--trials", "600",
                "--seed", "19"]
        out1, out2 = tmp_path / "w1", tmp_path / "w4"
        run_cli(base + ["--workers", "1", "--out", str(out1)])
        run_cli(base + ["--workers", "4", "--out", str(out2)])
        assert out1.with_suffix(".json").read_bytes() == out2.with_suffix(".json").read_bytes()

    def test_structured_report_reparses(self, capsys):
        run_cli(["sequence", "doubling", "--seq",
                 '{"family":"floor-power","params":{"gamma":1}}', "--n", "16"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["record"]["indices"] == [1, 2, 4, 8, 16]
        assert doc["record"]["ratio"] == "5/4"

    def test_simulate_trajectory_export(self, tmp_path):
        out = tmp_path / "walk"
        code = run_cli(
            ["simulate", "--seq", CONST1, "--n", "5", "--seed", "2", "--record",
             "--out", str(out), "--format", "both"]
        )
        assert code == cli.EXIT_OK
        lines = out.with_suffix(".csv").read_text(encoding="utf-8").splitlines()
        assert lines[1] == "n,x,y,a_n,kappa,eps"
        assert len(lines) == 2 + 5

    #: ``(seq config, n, extra flags)`` of the trajectory byte test's walks
    WALKS = {
        "two-blocks": ({"family": "constant", "params": {"value": 1}}, walk.STREAM_CHUNK + 5, []),
        "fractions": ({"family": "constant", "params": {"value": "3/7"}}, 40, []),
        "real-power": ({"family": "real-power", "params": {"alpha": "1/2", "precision_bits": 8}}, 40, []),
        "promote": ({"family": "constant", "params": {"value": 1 << 61}}, 40, ["--promote"]),  # object walk
        "n-0": ({"family": "constant", "params": {"value": 1}}, 0, []),
    }

    @pytest.mark.parametrize("fmt", ["csv", "both"])
    @pytest.mark.parametrize("record", [True, False], ids=["record", "no-record"])
    @pytest.mark.parametrize("walk_id", sorted(WALKS))
    def test_simulate_csv_bytes(self, tmp_path, walk_id, record, fmt):
        config, n, flags = self.WALKS[walk_id]
        out = tmp_path / "walk"
        argv = ["simulate", "--seq", json.dumps(config), "--n", str(n), "--seed", "11", *flags]
        code = run_cli(argv + ["--record"] * record + ["--out", str(out), "--format", fmt])
        assert code == cli.EXIT_OK
        # the report as it was built from the recorder's row tuples, LF line ends
        lines = ["# radwalk-report v1 command=simulate", "n,x,y,a_n,kappa,eps"]
        if record:
            seq = sequences.sequence_from_config(config)
            width_bits = None if "--promote" in flags else 63
            _, rec = walk.simulate_recording(seq, n, 11, width_bits=width_bits)
            lines += [",".join(map(str, row)) for row in rec.rows]
        assert out.with_suffix(".csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        assert out.with_suffix(".json").exists() == (fmt == "both")

    def test_construct_build_report(self, tmp_path, capsys):
        out = tmp_path / "plan"
        code = run_cli(
            ["construct", "build", "--good-set", "2,3,5,7", "--rounds", "1",
             "--trials", "40", "--horizon-cap", "64", "--out", str(out)]
        )
        assert code == cli.EXIT_INCONCLUSIVE
        doc = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
        assert doc["record"]["rounds"][0]["pair"] == [2, 3, 2, 1]
        assert doc["status"] == "inconclusive"

    def test_sequence_blocks_report(self, capsys):
        assert run_cli(["sequence", "blocks", "--k", "3", "--i", "1"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["record"]["exponent"] == 512
        assert doc["record"]["materializable"] is False

    @pytest.mark.parametrize(
        "flags",
        [["--k", "60000", "--i", "1"], ["--k", "6", "--i", "4", "--max-bits", str(1 << 40)]],
        ids=["exponent", "length"],
    )
    def test_sequence_blocks_past_the_digit_limit_fails_unbuilt(self, flags, monkeypatch, capsys):
        # 2**e = 2**(3.6e9), or a 2**(2**39) of 64 GiB: the report could print
        # neither, so neither is built
        def unbuilt(*args, **kwargs):
            raise AssertionError("sub_block_length was called")

        monkeypatch.setattr(sequences, "sub_block_length", unbuilt)
        t0 = time.perf_counter()
        assert run_cli(["sequence", "blocks", *flags]) == cli.EXIT_ERROR
        assert time.perf_counter() - t0 < 0.5
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == (
            f"radwalk: error: the output holds an integer of over {limit} digits\n"
        )

    @pytest.mark.parametrize("flags", [[], ["--format", "structured"]], ids=["stdout", "structured"])
    def test_simulate_records_only_for_a_csv(self, flags, tmp_path, monkeypatch, capsys):
        visitors, simulate = [], walk.simulate

        def spy(seq, n, seed, visitor=None, **kwargs):
            visitors.append(visitor)
            return simulate(seq, n, seed, visitor, **kwargs)

        monkeypatch.setattr(walk, "simulate", spy)
        out = ["--out", str(tmp_path / "walk")] if flags else []
        argv = ["simulate", "--seq", CONST1, "--n", "5", "--record", *out, *flags]
        assert run_cli(argv) == cli.EXIT_OK
        assert visitors == [None]

    def test_check_good_flags_even_set(self, capsys):
        code = run_cli(["construct", "check-good", "--good-set", "2,4,6"])
        assert code == cli.EXIT_VERIFY_FAILED

    @pytest.mark.parametrize("bad", ["abc", "1.5"])
    def test_bad_good_set_file_line_fails_by_name(self, bad, tmp_path, capsys):
        path = tmp_path / "good.txt"
        path.write_text(f"# prefix\n2\n\n{bad}\n5\n", encoding="utf-8")
        code = run_cli(["construct", "check-good", "--good-set-file", str(path)])
        assert code == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"radwalk: error: {path}, line 4: expected an integer, got {bad!r}\n"

    @pytest.mark.parametrize("bad", ["0", "-4"])
    @pytest.mark.parametrize(
        "command",
        [["construct", "check-good"], ["construct", "build", "--rounds", "1"]],
        ids=["check-good", "build"],
    )
    def test_good_set_file_element_below_one_fails_by_line(self, command, bad, tmp_path, capsys):
        path = tmp_path / "good.txt"
        path.write_text(f"2\n{bad}\n3\n", encoding="utf-8")
        assert run_cli(command + ["--good-set-file", str(path)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"radwalk: error: {path}, line 2: element must be >= 1, got {bad}\n"

    @pytest.mark.parametrize("bad", ["abc", "1/0"])
    def test_bad_explicit_list_line_fails_by_name(self, bad, tmp_path, capsys):
        path = tmp_path / "steps.txt"
        path.write_text(f"1\n{bad}\n2\n", encoding="utf-8")
        code = run_cli(["simulate", "--seq-list", str(path), "--n", "1"])
        assert code == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"radwalk: error: {path}, line 2: value must be a rational number, got {bad!r}\n"

    def test_non_positive_explicit_list_line_fails_by_name(self, tmp_path, capsys):
        path = tmp_path / "steps.txt"
        path.write_text("1\n0\n2\n", encoding="utf-8")
        code = run_cli(["simulate", "--seq-list", str(path), "--n", "1"])
        assert code == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"radwalk: error: {path}, line 2: value must be > 0, got 0\n"

    def test_suppmf_budget_counts_limbs(self, capsys):
        # the last law would be 4501501 slots of 47 limbs, about 1.7 GB: refused before any shift
        t0 = time.perf_counter()
        code = run_cli(["verify", "suppmf", "--k-max", "3000"])
        assert time.perf_counter() - t0 < 1.0
        assert code == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert "needs 9003001 points x 47 64-bit limbs = 423141047, exceeding the budget" in err


#: A command whose report shows its defaults (residue 0, method auto).
PLAIN_MOD = ["exact", "mod", "--d", "1,2,3", "--m", "3"]


class TestParserReuse:
    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_import_builds_no_parser(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import radwalk.cli\n"
            "print(len(built), radwalk.cli._parser.cache_info().currsize)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert proc.stdout.split() == ["0", "0"], proc.stderr

    def test_two_calls_build_once(self, monkeypatch, capsys):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        assert cli.main(PLAIN_MOD) == cli.EXIT_OK
        assert cli.main(["construct", "bezout", "--b1", "2", "--b2", "3"]) == cli.EXIT_OK
        assert built == [1]

    @pytest.mark.parametrize("before", ["bad-flag", "help", "config"])
    def test_next_command_prints_as_in_a_fresh_process(self, before, tmp_path, capsys):
        if before == "config":
            path = tmp_path / "run.json"
            args = {"d": "5,7", "m": 4, "residue": 1, "method": "full"}
            path.write_text(json.dumps({"command": "exact.mod", "args": args}), encoding="utf-8")
            assert cli.main(["exact", "mod", "--config", str(path), "--residue", "2"]) == 0
        elif before == "bad-flag":
            assert cli.main(PLAIN_MOD + ["--bogus"]) == cli.EXIT_ERROR
        else:
            with pytest.raises(SystemExit) as exc:
                cli.main(PLAIN_MOD + ["--help"])
            assert exc.value.code == 0
        capsys.readouterr()
        assert cli.main(PLAIN_MOD) == cli.EXIT_OK
        fresh = fresh_process(PLAIN_MOD)
        assert fresh.returncode == cli.EXIT_OK
        assert capsys.readouterr().out == fresh.stdout


class TestHelpTree:
    def test_every_operation_has_a_subcommand(self, capsys):
        # every declared command parses its own --help (1:1 flag coverage)
        for command in cli._COMMANDS:
            argv = command.split(".") + ["--help"]
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            assert exc.value.code == 0
            assert "--out" in capsys.readouterr().out


NUMBER_FLAG_COMMANDS = [
    ["exact", "pmf1d", "--d=@"],
    ["exact", "pmf2d", "--a=@"],
    ["exact", "mod", "--d=@", "--m", "5"],
    ["exact", "interval", "--d=@", "--half-width", "1"],
    ["exact", "interval", "--d", "2,3", "--half-width=@"],
    ["exact", "hit", "--a=@", "--horizon", "1"],
    ["exact", "hit", "--a", "1,1", "--target=@", "--horizon", "2"],
    ["verify", "elo", "--d=@", "--half-width", "1"],
    ["verify", "elo", "--d", "2,3", "--half-width=@"],
    ["verify", "modlemma", "--d=@", "--m", "7"],
    ["sequence", "monotone", "--seq", CONST1, "--n-max", "8", "--r=@", "--s=@"],
    ["sequence", "doubling", "--seq", CONST1, "--n", "8", "--gap-bound=@"],
    ["sequence", "make", "--n", "1", "--seq", '{"family": "floor-power", "params": {"gamma": "@"}}'],
]


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(NUMBER_FLAG_COMMANDS),
    text=st.text(alphabet="0123456789/,.- xe", max_size=8),
)
@example(command=NUMBER_FLAG_COMMANDS[0], text="1,abc")
@example(command=NUMBER_FLAG_COMMANDS[-1], text="1/0")
@example(command=NUMBER_FLAG_COMMANDS[0], text="1e5000")
def test_number_flags_never_raise(command, text):
    """Any string in a number flag (at each @) ends in an exit code, never a traceback."""
    argv = [part.replace("@", text) for part in command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_VERIFY_FAILED, cli.EXIT_INCONCLUSIVE)
    if code == cli.EXIT_ERROR:
        assert err.getvalue().startswith("radwalk: error: ")


#: Tiny runs of every command with a float flag, by command: the flags to
#: make hostile, and the other arguments.
FLOAT_FLAG_RUNS = {
    "mc-return": (["--level"], ["--seq", CONST1, "--n", "2", "--trials", "3"]),
    "construct.n0": (["--confidence"], ["--b1", "2", "--b2", "3", "--trials", "4",
                                        "--horizon-cap", "16"]),
    "construct.build": (["--confidence"], ["--good-set", "2,3", "--rounds", "1", "--trials", "4",
                                           "--horizon-cap", "16"]),
    "verify.modlemma": (["--cap"], ["--d", "1,2,3", "--m", "4"]),
    "verify.hitting": (["--r", "--floor"], ["--r", "1", "--trials", "3"]),
    "verify.suppmf": (["--ratio-cap", "--slope-cap"], ["--k-max", "3"]),
}


def test_float_flag_table_covers_every_float_flag():
    declared = {
        (c, f) for c, flags in cli._COMMANDS.items() for f, kw in flags if kw.get("type") is float
    }
    assert declared == {(c, f) for c, (flags, _) in FLOAT_FLAG_RUNS.items() for f in flags}


def _refuse_constant(name):
    raise ValueError(f"report holds {name}")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, (flags, _) in FLOAT_FLAG_RUNS.items() for f in flags]
)
def test_hostile_floats_fail_by_name(command, flag, value, tmp_path):
    """A non-finite float flag ends in an exit code, a named error and no NaN
    or Infinity in any report."""
    _, rest = FLOAT_FLAG_RUNS[command]
    if flag in rest:  # the hostile value replaces the flag's tiny one
        i = rest.index(flag)
        rest = rest[:i] + rest[i + 2:]
    out = tmp_path / "report"
    argv = command.split(".") + rest + [f"{flag}={value}"]
    for extra in ([], ["--out", str(out), "--format", "both"]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv + extra)
        assert code in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_VERIFY_FAILED, cli.EXIT_INCONCLUSIVE)
        assert all(line.startswith("radwalk: error:") for line in stderr.getvalue().splitlines())
        reports = [stdout.getvalue()] if stdout.getvalue() else []
        if out.with_suffix(".json").exists():
            reports.append(out.with_suffix(".json").read_text(encoding="utf-8"))
        for report in reports:
            json.loads(report, parse_constant=_refuse_constant)


#: Tiny runs of every command with an int flag, by command: the int flags (and
#: ``--workers`` where the command runs trials), and the other arguments.
INT_FLAG_RUNS = {
    "simulate": (["--n", "--seed", "--trial", "--width-bits"], ["--seq", CONST1, "--n", "3"]),
    "mc-return": (["--n", "--trials", "--seed", "--workers"],
                  ["--seq", CONST1, "--n", "2", "--trials", "3"]),
    "exact.mod": (["--m", "--residue"], ["--d", "1,2,3", "--m", "4"]),
    "exact.hit": (["--horizon"], ["--a", "1,1", "--horizon", "2"]),
    "sequence.make": (["--n"], ["--seq", CONST1, "--n", "3"]),
    "sequence.decompose": (["--n"], ["--seq", CONST1, "--n", "3"]),
    "sequence.doubling": (["--n"], ["--seq", CONST1, "--n", "3"]),
    "sequence.monotone": (["--n-max"], ["--seq", CONST1, "--n-max", "3"]),
    "sequence.blocks": (["--k", "--i", "--max-bits"], ["--k", "1", "--i", "1"]),
    "construct.bezout": (["--b1", "--b2"], ["--b1", "2", "--b2", "3"]),
    "construct.n0": (
        ["--b1", "--b2", "--radius", "--trials", "--seed", "--horizon-start", "--horizon-cap",
         "--workers"],
        ["--b1", "2", "--b2", "3", "--trials", "4", "--horizon-start", "4", "--horizon-cap", "16"],
    ),
    "construct.build": (
        ["--rounds", "--trials", "--seed", "--horizon-cap", "--evaluate-trials", "--workers"],
        ["--good-set", "2,3", "--rounds", "1", "--trials", "4", "--horizon-cap", "16"],
    ),
    "construct.check-good": (["--horizon"], ["--good-set", "2,3"]),
    "verify.supermartingale": (["--radius"], ["--radius", "2"]),
    "verify.modlemma": (["--m"], ["--d", "1,2,3", "--m", "4"]),
    "verify.hitting": (["--step", "--trials", "--seed", "--workers"], ["--r", "1", "--trials", "3"]),
    "verify.suppmf": (["--k-max", "--k-floor"], ["--k-max", "3"]),
}


def test_int_flag_table_covers_every_int_flag():
    declared = {
        (c, f) for c, flags in cli._COMMANDS.items() for f, kw in flags if kw.get("type") is int
    }
    table = {(c, f) for c, (flags, _) in INT_FLAG_RUNS.items() for f in flags if f != "--workers"}
    assert declared == table


@pytest.mark.parametrize("value", [-1, 0, 2.5, True, "x"])
@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, (flags, _) in INT_FLAG_RUNS.items() for f in flags]
)
def test_hostile_ints_fail_by_name(command, flag, value, tmp_path):
    """-1 and 0 as flags, and 2.5, true and "x" from a config file, in every
    int flag: an exit code, a named error, and a report that is plain JSON."""
    _, rest = INT_FLAG_RUNS[command]
    if flag in rest:  # the hostile value replaces the flag's tiny one
        i = rest.index(flag)
        rest = rest[:i] + rest[i + 2:]
    argv = command.split(".") + rest
    from_file = isinstance(value, bool) or not isinstance(value, int)  # a value of the wrong type
    if not from_file:
        argv.append(f"{flag}={value}")
    else:
        path = tmp_path / "run.json"
        args = {flag.lstrip("-").replace("-", "_"): value}
        path.write_text(json.dumps({"command": command, "args": args}), encoding="utf-8")
        argv += ["--config", str(path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_VERIFY_FAILED, cli.EXIT_INCONCLUSIVE)
    assert all(line.startswith("radwalk: error:") for line in stderr.getvalue().splitlines())
    if stdout.getvalue():
        json.loads(stdout.getvalue(), parse_constant=_refuse_constant)
    if from_file:
        assert code == cli.EXIT_ERROR and stderr.getvalue()
    if value == -1 and code == cli.EXIT_ERROR:  # a refused -1 names its flag's dest
        assert flag.lstrip("-").replace("-", "_") in stderr.getvalue(), stderr.getvalue()


#: Tiny valid runs of every command: the start of each argv in the fuzz below.
FUZZ_BASE = {
    **{c: rest for c, (_, rest) in INT_FLAG_RUNS.items()},
    "exact.pmf1d": ["--d", "1,2"],
    "exact.pmf2d": ["--a", "1,2"],
    "exact.interval": ["--d", "2,3", "--half-width", "1"],
    "verify.elo": ["--d", "2,3", "--half-width", "1"],
}

#: Every flag name of the CLI but --out, whose value the fuzz always chooses,
#: and two no command has.
FUZZ_FLAGS = sorted(
    {f for flags in cli._COMMANDS.values() for f, _ in flags + cli._GLOBAL_FLAGS} - {"--out"}
    | {"--bogus", "-q"}
)

#: Flag values: numbers of at most 64, text that is no number, lists, JSON.
FUZZ_TOKENS = st.one_of(
    st.integers(-64, 64).map(str),
    st.fractions(min_value=-64, max_value=64, max_denominator=64).map(str),
    st.sampled_from(["", " ", "x", "nan", "-inf", "1e1", "2.5", "1,2", "1,,2", "0,0", "1/0",
                     "-", "--", "{}", "[1, 2]", "true", "null", CONST1]),
)


@st.composite
def malformed_argv(draw, out: str) -> list[str]:
    """A command's words, often cut short or misspelled, its tiny run or
    nothing, then flags of any command with values, missing values, ``=``
    forms, repeats and strays, and maybe ``--out`` (with or without a value)."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    words = command.split(".")
    words = draw(st.sampled_from([words, words[:-1], words[:-1] + ["bogus"]]))
    argv = words + draw(st.sampled_from([FUZZ_BASE[command], []]))
    item = st.one_of(
        st.tuples(st.sampled_from(FUZZ_FLAGS), FUZZ_TOKENS).map(list),
        st.tuples(st.sampled_from(FUZZ_FLAGS)).map(list),
        st.tuples(st.sampled_from(FUZZ_FLAGS), FUZZ_TOKENS).map(lambda ft: ["=".join(ft)]),
        st.tuples(FUZZ_TOKENS).map(list),
    )
    for part in draw(st.lists(item, max_size=5)):
        argv += part
    return argv + draw(st.sampled_from([[], ["--out", out], ["--out"]]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_malformed_argv_never_raises(data, tmp_path_factory):
    """Malformed argv ends in a returned exit code 0-3 (argparse's refusal
    returns 1, like any other refused input) and ``radwalk:`` error lines on
    stderr, never a traceback or a ``SystemExit``."""
    out = str(tmp_path_factory.mktemp("fuzz") / "report")
    argv = data.draw(malformed_argv(out))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_VERIFY_FAILED, cli.EXIT_INCONCLUSIVE)
    lines = stderr.getvalue().splitlines()
    assert all(line.startswith(("radwalk: error: ", "radwalk: i/o error: ")) for line in lines), lines
    assert lines or code != cli.EXIT_ERROR

#: A command reading each line file flag, with the file's path at @.
LINE_FILE_COMMANDS = {
    "--seq-list": ["sequence", "make", "--n", "1", "--seq-list", "@"],
    "--good-set-file": ["construct", "check-good", "--good-set-file", "@"],
}


@settings(max_examples=100, deadline=None)
@given(flag=st.sampled_from(sorted(LINE_FILE_COMMANDS)), data=st.binary(max_size=24))
@example(flag="--seq-list", data=b"\xff\xfe1\n")
@example(flag="--good-set-file", data=b"\xff\xfe2\n3\n")
@example(flag="--seq-list", data=b"2\n1e5000\n")
def test_line_files_never_raise(flag, data, tmp_path_factory):
    """Any bytes in a one-value-per-line file end in an exit code, and stderr
    holds only named errors."""
    path = tmp_path_factory.mktemp("lines") / "values.txt"
    path.write_bytes(data)
    argv = [str(path) if part == "@" else part for part in LINE_FILE_COMMANDS[flag]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_VERIFY_FAILED, cli.EXIT_INCONCLUSIVE)
    assert all(line.startswith("radwalk: error:") for line in stderr.getvalue().splitlines())
    if data.startswith(b"\xff\xfe"):
        assert stderr.getvalue() == f"radwalk: error: {path}: the file is not UTF-8 text\n"


#: Tiny runs of every command with a choice flag, by command; the global
#: flags' choices run with the first of them.
CHOICE_RUNS = {
    "exact.mod": ["--d", "1,2,3", "--m", "4"],
    "construct.build": ["--good-set", "2,3,5,7", "--rounds", "2", "--trials", "8",
                        "--horizon-cap", "16", "--seed", "3"],
    "verify.hitting": ["--r", "2", "--trials", "20", "--seed", "3"],
}

#: A tiny config of each sequence family, run as ``sequence make --seq``.
FAMILY_RUNS = {
    "constant": {"value": 3},
    "floor-power": {"gamma": "3/2"},
    "real-power": {"alpha": "1/2", "precision_bits": 8},
    "explicit-block": {},
    "from-construction-plan": {"plan": PLAN},
    "explicit-list": {"values": [1, "1/2", 2]},
}

#: Every choice of every flag, every sequence family, and ``--evaluate-trials``,
#: which adds the plan's evaluation to the build record.
CHOICE_CASES = (
    [(c, f, v) for c, flags in cli._COMMANDS.items() for f, kw in flags for v in kw.get("choices", ())]
    + [(next(iter(CHOICE_RUNS)), f, v) for f, kw in cli._GLOBAL_FLAGS for v in kw.get("choices", ())]
    + [("sequence.make", "--seq", family) for family in sequences.FAMILIES]
    + [("construct.build", "--evaluate-trials", "12")]
)


def _library_record(command: str, flag: str, value: str):
    """The JSON of the library call that ``command`` with ``flag value`` makes."""
    if command == "verify.hitting":
        res = verify.hitting_time_experiment(2.0, 1, 20, 3, start_mode=value)
        return res.to_json_dict()
    if command == "construct.build":
        mode = value if flag == "--radius-mode" else "coarse"
        plan, _ = construction.build_recurrent_sequence(
            construction.GoodSetPrefix([2, 3, 5, 7]), 2, master_seed=3, trials=8, horizon_cap=16,
            radius_mode=mode,
        )
        rec = plan.to_json_dict()
        if flag == "--evaluate-trials":
            rec["evaluation"] = construction.evaluate_plan(plan, int(value), (3, 201)).to_json_dict()
        return rec
    if command == "exact.mod":
        method = value if flag == "--method" else "auto"
        prob = exact.mod_probability([1, 2, 3], 4, 0, method=method)
        return {"m": 4, "residue": 0, "probability": str(prob), "probability_float": float(prob),
                "method": method}
    seq = sequences.sequence_from_config({"family": value, "params": FAMILY_RUNS[value]})
    return {"config": seq.to_config(), "prefix": [str(v) for v in seq.prefix(3)]}


@pytest.mark.parametrize(
    "command, flag, value", CHOICE_CASES, ids=[f"{c}{f}={v}" for c, f, v in CHOICE_CASES]
)
def test_every_choice_runs(command, flag, value, tmp_path, capsys):
    """Each value runs through the CLI, and its record is the library call's
    own JSON (a hitting check adds its floor and verdict)."""
    if flag == "--seq":
        config = {"family": value, "params": FAMILY_RUNS[value]}
        argv = ["sequence", "make", "--n", "3", "--seq", json.dumps(config)]
    else:
        argv = command.split(".") + CHOICE_RUNS[command] + [flag, value]
    code = run_cli(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED, cli.EXIT_INCONCLUSIVE)
    record = json.loads(capsys.readouterr().out)["record"]
    want = json.loads(json.dumps(_library_record(command, flag, value)))
    if command == "verify.hitting":
        assert record.pop("floor") == 0.15
        assert record.pop("passed") == (want["ci"]["low"] > 0.15)
    assert record == want
    if flag == "--format":
        out = tmp_path / "report"
        assert run_cli(argv + ["--out", str(out)]) == code
        written = {p.suffix for p in tmp_path.iterdir()}
        assert written == {"structured": {".json"}, "csv": {".csv"}, "both": {".json", ".csv"}}[value]
