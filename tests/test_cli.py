"""CLI tests: subcommand round trips and exit codes."""

import importlib
import json
import math
import os
import subprocess
import sys

import extraction_corpus as corpus
import pytest

import scorebands
from scorebands import ExperimentConfig
from scorebands.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    build_parser,
    main,
    parse_methods,
    parse_seeds,
)


def test_parse_seeds():
    assert parse_seeds("0-3") == (0, 1, 2, 3)
    assert parse_seeds("0,2,4") == (0, 2, 4)
    assert parse_seeds("7") == (7,)
    with pytest.raises(UsageError):
        parse_seeds(",")
    with pytest.raises(UsageError, match="'5-3'"):
        parse_seeds("0,5-3")


def test_parse_methods():
    assert parse_methods("all")[0] == "naive_split"
    assert parse_methods("r2ccp,chr") == ("r2ccp", "chr")


@pytest.mark.parametrize("name", sorted(scorebands._EXPORTS))
def test_export_resolves_to_its_module(name):
    module_name = f"scorebands.{scorebands._EXPORTS[name]}"
    value = getattr(scorebands, name)
    assert value is getattr(importlib.import_module(module_name), name)
    defined_in = getattr(value, "__module__", module_name)
    assert defined_in == module_name or defined_in.startswith(module_name + ".")


def _without(row: dict, key: str) -> dict:
    return {k: v for k, v in row.items() if k != key}


def _synth(tmp_path, name="samples.jsonl", n=320, extra=()):
    path = tmp_path / name
    code = main(
        ["synth", "--n", str(n), "--seed", "0", "--out", str(path),
         "--label-noise", "0.35", *extra]
    )
    assert code == EXIT_OK
    return path


class TestSynthCommand:
    def test_writes_samples(self, tmp_path, capsys):
        path = _synth(tmp_path)
        out = capsys.readouterr().out
        assert "320" in out
        lines = path.read_text().splitlines()
        assert len(lines) == 320
        row = json.loads(lines[0])
        assert set(row) >= {"sample_id", "judge", "dataset", "gt_score",
                            "logprobs"}

    def test_bad_scale_is_usage_error(self, tmp_path, capsys):
        for command in (["synth", "--n", "10"], ["extract", "--input", "x.jsonl"]):
            code = main([*command, "--out", str(tmp_path / "s.jsonl"), "--k-max", "1"])
            assert code == EXIT_USAGE
            assert "--k-max: k_max must be >= 2, got 1" in capsys.readouterr().err

    def test_unknown_generator_is_usage_error(self, tmp_path, capsys):
        code = main(["synth", "--generator", "bogus", "--n", "10",
                     "--out", str(tmp_path / "s.jsonl")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --generator: invalid choice")
        assert not (tmp_path / "s.jsonl").exists()

    @pytest.mark.parametrize("flags, name", [
        (("--feature-dim", "-5"), "feature_dim"),
        (("--feature-dim", "0"), "feature_dim"),
        (("--generator", "homoscedastic", "--sigma", "-0.5"), "sigma"),
        (("--sigma", "inf"), "sigma"),
        (("--sigma-ratio", "0"), "sigma_ratio"),
        (("--sigma-ratio", "nan"), "sigma_ratio"),
        (("--logit-noise", "nan"), "logit_noise"),
        (("--logit-noise", "-1"), "logit_noise"),
        (("--temperature", "nan"), "temperature"),
        (("--temperature", "-1"), "temperature"),
    ])
    def test_bad_generator_value_is_data_error(self, tmp_path, capsys, flags, name):
        out = tmp_path / "s.jsonl"
        code = main(["synth", "--n", "10", "--out", str(out), *flags])
        assert code == EXIT_DATA
        assert f"data error: {name} must be " in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_out(self, tmp_path):
        oracle_path = tmp_path / "oracle.json"
        _synth(tmp_path, extra=("--oracle-out", str(oracle_path)))
        data = json.loads(oracle_path.read_text())
        assert len(data["lower"]) == 320


class TestRunCommand:
    def test_end_to_end(self, tmp_path, capsys):
        samples = _synth(tmp_path)
        out_dir = tmp_path / "report"
        code = main(
            [
                "run", "--input", str(samples), "--out", str(out_dir),
                "--seeds", "0-1", "--methods", "naive_split,r2ccp",
                "--epochs", "40", "--batch-size", "256",
                "--learning-rate", "0.1",
            ]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "naive_split" in stdout
        assert (out_dir / "report.json").exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["schema_version"] == "1"
        assert len(report["per_seed"]) == 4

    def test_config_file_with_flag_override(self, tmp_path):
        samples = _synth(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "alpha": 0.2,
                    "seeds": [0],
                    "methods": ["naive_split"],
                    "epochs": 30,
                    "batch_size": 256,
                    "learning_rate": 0.1,
                    "input": str(samples),
                }
            )
        )
        out_dir = tmp_path / "rep"
        code = main(
            ["run", "--config", str(cfg_path), "--out", str(out_dir),
             "--alpha", "0.1"]
        )
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["alpha"] == 0.1  # flag wins over file
        assert report["config"]["epochs"] == 30

    def test_seven_point_scale_runs_every_method(self, tmp_path, capsys):
        # r2ccp's grid follows --k-max, so no method lands in the ledger.
        samples = _synth(tmp_path, "k7.jsonl", n=240, extra=("--k-max", "7"))
        row = json.loads(samples.read_text().splitlines()[0])
        assert sorted(row["logprobs"], key=int) == [str(k) for k in range(1, 8)]
        out_dir = tmp_path / "k7"
        code = main(
            ["run", "--input", str(samples), "--out", str(out_dir), "--k-max", "7",
             "--seeds", "0", "--methods", "all", "--epochs", "5",
             "--batch-size", "256", "--boost-rounds", "5"]
        )
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        assert report["errors"] == []
        assert sorted(row["method"] for row in report["per_seed"]) == sorted(
            scorebands.METHOD_NAMES
        )
        assert not any(key.startswith("grid") for key in report["config"])

    def test_grid_fields_are_unknown_config_fields(self, tmp_path, capsys):
        samples = _synth(tmp_path, n=100)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid_points": 41, "input": str(samples)}))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert code == EXIT_DATA
        assert "unknown config fields: ['grid_points']" in capsys.readouterr().err

    def test_emit_intervals_flag(self, tmp_path):
        samples = _synth(tmp_path, n=200)
        out_dir = tmp_path / "with_ivs"
        code = main(
            ["run", "--input", str(samples), "--out", str(out_dir),
             "--seeds", "0", "--methods", "naive_split", "--epochs", "30",
             "--batch-size", "256", "--learning-rate", "0.1",
             "--emit-intervals"]
        )
        assert code == EXIT_OK
        lines = (out_dir / "intervals.jsonl").read_text().splitlines()
        assert len(lines) == 100
        row = json.loads(lines[0])
        assert {"sample_id", "method", "lower", "upper", "adj_lower",
                "adj_upper", "y_hat", "covered_raw", "covered_adj"} <= set(row)

    def test_invariant_error_exits_internal(self, tmp_path, monkeypatch, capsys):
        from scorebands.core import InvariantError
        from scorebands.harness import runner

        def broken(*args, **kwargs):
            raise InvariantError("interval has no adjusted endpoints")

        monkeypatch.setattr(runner, "run_method", broken)
        samples = _synth(tmp_path)
        code = main(
            ["run", "--input", str(samples), "--out", str(tmp_path / "o"),
             "--seeds", "0", "--methods", "naive_split"]
        )
        assert code == EXIT_INTERNAL
        assert "no adjusted endpoints" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_duplicate_sample_id_is_data_error(self, tmp_path, capsys):
        samples = _synth(tmp_path)
        lines = samples.read_text().splitlines()
        samples.write_text("\n".join(lines + [lines[3]]) + "\n")
        code = main(
            ["run", "--input", str(samples), "--out", str(tmp_path / "o"),
             "--seeds", "0", "--methods", "naive_split"]
        )
        assert code == EXIT_DATA
        assert "duplicate sample_id" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_repeated_method_is_data_error(self, tmp_path, capsys):
        samples = _synth(tmp_path)
        out_dir = tmp_path / "o"
        code = main(
            ["run", "--input", str(samples), "--out", str(out_dir),
             "--seeds", "0", "--methods", "naive_split,naive_split"]
        )
        assert code == EXIT_DATA
        assert "methods named more than once: ['naive_split']" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_repeated_seed_is_data_error(self, tmp_path, capsys):
        # Counted twice, seed 0 would weigh double in every mean, with std 0.
        samples = _synth(tmp_path)
        out_dir = tmp_path / "o"
        code = main(
            ["run", "--input", str(samples), "--out", str(out_dir),
             "--seeds", "0,0", "--methods", "naive_split"]
        )
        assert code == EXIT_DATA
        assert "seeds named more than once: [0]" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_negative_seed_is_data_error(self, tmp_path, capsys):
        samples = _synth(tmp_path, n=50)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seeds": [2, -1], "input": str(samples)}))
        out_dir = tmp_path / "o"
        code = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == EXIT_DATA
        assert "seeds must be non-negative, got [2, -1]" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_point_predictor_is_data_error(self, tmp_path, capsys):
        samples = _synth(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"point_predictor": "bogus", "seeds": [0],
                        "input": str(samples)})
        )
        out_dir = tmp_path / "o"
        code = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == EXIT_DATA
        assert "point_predictor" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_input_is_usage_error(self, tmp_path):
        assert main(["run", "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(
            ["run", "--input", str(tmp_path / "nope.jsonl"),
             "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_DATA

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["run", "--frobnicate"]) == EXIT_USAGE

    def test_every_run_flag_is_a_config_key(self):
        from scorebands.harness import ExperimentConfig

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        dests = {a.dest for a in sub.choices["run"]._actions} - {"help", "config"}
        assert dests <= set(ExperimentConfig().to_dict())

    def test_scale_flag_below_two_is_data_error(self, tmp_path, capsys):
        samples = _synth(tmp_path, n=50)
        out_dir = tmp_path / "o"
        code = main(["run", "--input", str(samples), "--out", str(out_dir),
                     "--k-max", "1"])
        assert code == EXIT_DATA
        assert "config field 'k_max': k_max must be >= 2" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("fields, name", [
        ({"epochs": "x"}, "epochs"),
        ({"seeds": 3}, "seeds"),
        ({"seeds": "012"}, "seeds"),
        ({"hidden": [8, "y"]}, "hidden"),
        ({"k_max": 1}, "k_max"),
        ({"emit_intervals": "false"}, "emit_intervals"),
        ({"methods": {"naive_split": 0}}, "methods"),
        ({"methods": "cqr"}, "methods"),
        ({"methods": ["naive_split", 3]}, "methods"),
        ({"methods": []}, "methods"),
        ({"seeds": []}, "seeds"),
        ({"epochs": -1}, "epochs"),
        ({"batch_size": 0}, "batch_size"),
        ({"learning_rate": 0.0}, "learning_rate"),
        ({"learning_rate": -0.05}, "learning_rate"),
        ({"learning_rate": math.inf}, "learning_rate"),
        ({"train_seed": -1}, "train_seed"),
        ({"hidden": [0]}, "hidden"),
        ({"hidden": [8, -2]}, "hidden"),
        ({"boost_rounds": -1}, "boost_rounds"),
        ({"boost_depth": -1}, "boost_depth"),
        ({"boost_depth": 4}, "boost_depth"),
        ({"boost_rate": 0}, "boost_rate"),
        ({"boost_rate": math.nan}, "boost_rate"),
        ({"sigma_floor": 0.0}, "sigma_floor"),
        ({"sigma_floor": -math.inf}, "sigma_floor"),
    ])
    def test_bad_config_field_is_data_error(self, tmp_path, capsys, fields, name):
        samples = _synth(tmp_path, n=50)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(fields, input=str(samples))))
        out_dir = tmp_path / "o"
        code = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == EXIT_DATA
        assert f"data error: config field {name!r}: " in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, value, name", [
        ("--epochs", "-1", "epochs"),
        ("--batch-size", "0", "batch_size"),
        ("--learning-rate", "0", "learning_rate"),
        ("--boost-rounds", "-1", "boost_rounds"),
    ])
    def test_out_of_range_flag_is_data_error(self, tmp_path, capsys, flag, value, name):
        samples = _synth(tmp_path, n=50)
        out_dir = tmp_path / "o"
        code = main(["run", "--input", str(samples), "--out", str(out_dir),
                     "--methods", "naive_split", "--seeds", "0", f"{flag}={value}"])
        assert code == EXIT_DATA
        assert f"data error: config field {name!r}: expected " in capsys.readouterr().err
        assert not out_dir.exists()

    def test_settings_at_their_bounds_are_valid(self):
        config = ExperimentConfig.from_dict({
            "seeds": [0], "epochs": 0, "batch_size": 1, "learning_rate": 1e150,
            "train_seed": 0, "hidden": [], "boost_rounds": 0, "boost_depth": 3,
            "boost_rate": 1e-9, "sigma_floor": 1e-12,
        })
        assert config.method_config.train.hidden == ()
        assert ExperimentConfig.from_dict({"boost_depth": 0}).method_config.boost_depth == 0

    @pytest.mark.parametrize("fields, name", [
        ({"epochs": 1.9}, "epochs"),
        ({"boost_rounds": True}, "boost_rounds"),
        ({"seeds": [0.5]}, "seeds"),
        ({"hidden": [8, False]}, "hidden"),
        ({"learning_rate": True}, "learning_rate"),
        ({"input": 3}, "input"),
        ({"out": ["o"]}, "out"),
        ({"mondrian": 1}, "mondrian"),
    ])
    def test_config_value_of_another_json_type_is_data_error(self, tmp_path, capsys,
                                                            fields, name):
        samples = _synth(tmp_path, n=50)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict({"input": str(samples)}, **fields)))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--methods", "naive_split", "--seeds", "0"])
        assert code == EXIT_DATA
        assert f"data error: config field {name!r}: expected " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_chr_bins_is_an_unknown_config_field(self, tmp_path, capsys):
        """chr's histogram has one bin per label, so a saved config that
        still sets its bin count is refused rather than silently ignored."""
        samples = _synth(tmp_path, n=50)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"chr_bins": 9, "input": str(samples)}))
        out_dir = tmp_path / "o"
        code = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == EXIT_DATA
        assert "data error: unknown config fields: ['chr_bins']" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_chr_bins_flag_is_usage_error(self, tmp_path, capsys):
        samples = _synth(tmp_path, n=50)
        out_dir = tmp_path / "o"
        code = main(["run", "--input", str(samples), "--out", str(out_dir),
                     "--seeds", "0", "--methods", "chr", "--chr-bins", "9"])
        assert code == EXIT_USAGE
        assert "--chr-bins" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_integral_float_config_value_is_an_integer(self, tmp_path):
        samples = _synth(tmp_path, n=50)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"input": str(samples), "epochs": 2.0,
                                        "seeds": [0.0], "methods": ["naive_split"]}))
        out_dir = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == EXIT_OK
        config = json.loads((out_dir / "report.json").read_text())["config"]
        assert config["epochs"] == 2 and config["seeds"] == [0]
        assert type(config["epochs"]) is int and type(config["seeds"][0]) is int

    @pytest.mark.parametrize("text, message", [
        ("not json", "is not a JSON file"),
        ("3", "needs a 'groups' object"),
        ("[1, 2]", "needs a 'groups' object"),
        ('{"groups": 3}', "needs a 'groups' object"),
        ('{"groups": {"synthetic_peaked_logprob": ["x"]}}',
         "dataset 'synthetic_peaked_logprob' maps to ['x'], not a group name string"),
        ('{"groups": {"synthetic_peaked_logprob": null}}',
         "dataset 'synthetic_peaked_logprob' maps to None, not a group name string"),
    ])
    def test_bad_mondrian_file_is_data_error(self, tmp_path, capsys, text, message):
        samples = _synth(tmp_path, n=50)
        part = tmp_path / "part.json"
        part.write_text(text)
        out_dir = tmp_path / "o"
        code = main(["run", "--input", str(samples), "--out", str(out_dir),
                     "--methods", "naive_split", "--seeds", "0", "--mondrian", str(part)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(part) in err and message in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("text, message", [
        ("{\"epochs\": ", "is not a JSON file"),
        ("3", "config is not a JSON object"),
        ("null", "config is not a JSON object"),
    ])
    def test_config_file_not_a_json_object_is_data_error(self, tmp_path, capsys,
                                                         text, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--seeds", "a-b"),
        ("--seeds", "-1"),
        ("--seeds", ""),
        ("--seeds", ","),
        ("--methods", ""),
    ])
    def test_bad_seed_or_method_list_is_usage_error(self, tmp_path, capsys, flag,
                                                    value):
        samples = _synth(tmp_path, n=50)
        out_dir = tmp_path / "o"
        code = main(["run", "--input", str(samples), "--out", str(out_dir),
                     "--methods", "naive_split", "--seeds", "0", "--epochs", "1",
                     flag, value])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out_dir.exists()


class TestReportCommand:
    def test_rerender_byte_identical(self, tmp_path):
        samples = _synth(tmp_path)
        out_dir = tmp_path / "one"
        main(
            ["run", "--input", str(samples), "--out", str(out_dir),
             "--seeds", "0", "--methods", "naive_split", "--epochs", "30",
             "--batch-size", "256", "--learning-rate", "0.1"]
        )
        two = tmp_path / "two"
        code = main(
            ["report", "--report", str(out_dir / "report.json"),
             "--out", str(two)]
        )
        assert code == EXIT_OK
        for name in os.listdir(out_dir):
            with open(out_dir / name, "rb") as f1, open(two / name, "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_report_whose_config_holds_chr_bins_renders(self, tmp_path):
        """A report saved while chr's bin count was a setting still renders:
        a report's config is shown as it was saved, not read as a config."""
        samples = _synth(tmp_path)
        out_dir = tmp_path / "one"
        assert main(
            ["run", "--input", str(samples), "--out", str(out_dir),
             "--seeds", "0", "--methods", "chr", "--epochs", "2"]
        ) == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        report["config"]["chr_bins"] = 9
        old = self._write(tmp_path, json.dumps(report))
        two = tmp_path / "two"
        assert main(["report", "--report", old, "--out", str(two)]) == EXIT_OK
        for name in os.listdir(out_dir):
            if name != "report.json":
                assert (out_dir / name).read_bytes() == (two / name).read_bytes(), name
        assert json.loads((two / "report.json").read_text()) == report

    @pytest.mark.parametrize("change, message", [
        (lambda report: [report], "report is not a JSON object"),
        (lambda report: {k: v for k, v in report.items() if k != "per_seed"},
         "report lacks 'per_seed'"),
        (lambda report: dict(report, aggregates=3), "report 'aggregates' is not a list"),
        (lambda report: dict(report, config=[]), "report 'config' is not an object"),
        (lambda report: dict(report, per_seed=[3]), "report 'per_seed' row 0 is not an object"),
        (lambda report: dict(report, stratified=[{}, None]),
         "report 'stratified' row 1 is not an object"),
        (lambda report: dict(report, aggregates=[{}]), "report 'aggregates' row 0 lacks "),
        (lambda report: dict(report, aggregates=[_without(report["aggregates"][0], "method")]),
         "report 'aggregates' row 0 lacks 'method'"),
        (lambda report: dict(report, aggregates=[_without(report["aggregates"][0],
                                                          "width_adj_std")]),
         "report 'aggregates' row 0 lacks 'width_adj_std'"),
        (lambda report: dict(report, aggregates=[dict(report["aggregates"][0],
                                                      coverage_raw_mean="0.9")]),
         "report 'aggregates' row 0: 'coverage_raw_mean' is not a number or null"),
        (lambda report: dict(report, aggregates=[dict(report["aggregates"][0], method=None)]),
         "report 'aggregates' row 0: 'method' is not a string"),
        (lambda report: dict(report, per_dataset_agg=[{"method": "cqr"}]),
         "report 'per_dataset_agg' row 0 lacks 'dataset'"),
        (lambda report: dict(report, errors=[{"seed": 0}]), "report 'errors' row 0 lacks "),
        (lambda report: dict(report, config={"seeds": 3}), "report config 'seeds' is not a list"),
    ])
    def test_bad_report_is_data_error(self, tmp_path, capsys, change, message):
        spreads = ("coverage_raw", "width_raw", "coverage_adj", "width_adj")
        aggregate = {"method": "cqr", "frac_decisive_mean": None,
                     **{f"{m}_{s}": 0.5 for m in spreads for s in ("mean", "std")}}
        report = {"schema_version": "1", "config": {}, "per_seed": [],
                  "aggregates": [aggregate], "per_dataset": [], "per_dataset_agg": [],
                  "stratified": [], "errors": []}
        assert main(["report", "-r", self._write(tmp_path, json.dumps(report)),
                     "-o", str(tmp_path / "ok")]) == EXIT_OK
        path = self._write(tmp_path, json.dumps(change(report)))
        out_dir = tmp_path / "o"
        assert main(["report", "-r", path, "-o", str(out_dir)]) == EXIT_DATA
        assert f"data error: {message}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_report_file_not_json_is_data_error(self, tmp_path, capsys):
        path = self._write(tmp_path, '{"schema_version": "1",')
        assert main(["report", "-r", path, "-o", str(tmp_path / "o")]) == EXIT_DATA
        assert f"data error: {path} is not a JSON file" in capsys.readouterr().err

    @staticmethod
    def _write(tmp_path, text) -> str:
        path = tmp_path / "report.json"
        path.write_text(text)
        return str(path)


class TestExtractCommand:
    def test_extract_transcripts(self, tmp_path, capsys):
        inp = tmp_path / "t.jsonl"
        top = [["1", -6.0], ["2", -4.5], ["3", -2.2], ["4", -0.2], ["5", -5.0]]
        rows = [
            {
                "sample_id": "t1",
                "tokens": [
                    {"text": "Score", "logprob": -0.1, "top_k": []},
                    {"text": ":", "logprob": -0.1, "top_k": []},
                    {"text": " 4", "logprob": -0.2, "top_k": top},
                ],
                "declared_score": 4,
            },
            {
                "sample_id": "t2",
                "tokens": [{"text": "nothing", "logprob": -0.1, "top_k": []}],
            },
        ]
        with open(inp, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        out = tmp_path / "f.jsonl"
        code = main(["extract", "--input", str(inp), "--out", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "1/2" in stdout or "extracted 1" in stdout
        parsed = json.loads(out.read_text().splitlines()[0])
        assert parsed["extracted_score"] == 4


    def test_out_of_range_numbers_listed_not_fatal(self, tmp_path, capsys):
        inp, out = tmp_path / "t.jsonl", tmp_path / "f.jsonl"
        corpus.write_out_of_range(inp)
        code = main(["extract", "--input", str(inp), "--out", str(out)])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert f"extracted 1/{len(corpus.OUT_OF_RANGE_LINES)}" in captured.out
        listed = captured.err.splitlines()
        for n, (_, fragment) in enumerate(corpus.OUT_OF_RANGE_LINES, start=1):
            if fragment:
                assert any(
                    line.startswith(f"  line {n}: ") and fragment in line for line in listed
                ), n

    def test_minus_inf_top_k_logprob_gets_the_floor(self, tmp_path, capsys):
        inp, out = tmp_path / "t.jsonl", tmp_path / "f.jsonl"
        corpus.write_minus_inf(inp)
        code = main(["extract", "--input", str(inp), "--out", str(out)])
        assert code == EXIT_OK
        assert "extracted 2/2" in capsys.readouterr().out
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["features"] for row in rows] == [corpus.MINUS_INF_FEATURES] * 2

    def test_line_not_utf8_listed_not_fatal(self, tmp_path, capsys):
        inp, out = tmp_path / "t.jsonl", tmp_path / "f.jsonl"
        corpus.write_not_utf8(inp)
        code = main(["extract", "--input", str(inp), "--out", str(out)])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "extracted 3/4" in captured.out
        assert f"  line 2: {corpus.NOT_UTF8_ERROR}" in captured.err.splitlines()

    @pytest.mark.parametrize("flags,features", [
        (["--floor", "-1e308"], [-1e308, -1e308, -1e308, -0.2, -1e308]),
        (["--nan-fill", "-1e2"], corpus.MINUS_INF_FEATURES),
    ])
    def test_fill_in_exponent_form_after_a_space(self, tmp_path, capsys, flags,
                                                 features):
        inp, out = tmp_path / "t.jsonl", tmp_path / "f.jsonl"
        corpus.write_minus_inf(inp)
        code = main(["extract", "--input", str(inp), "--out", str(out), *flags])
        assert code == EXIT_OK, capsys.readouterr().err
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["features"] for row in rows] == [features] * 2

    @pytest.mark.parametrize("name,flag,value,shown", [
        ("floor", "--floor", "1.0", "1.0"),
        ("floor", "--floor", "nan", "nan"),
        ("floor", "--floor", "inf", "inf"),
        ("floor", "--floor", "-inf", "-inf"),
        ("nan_fill", "--nan-fill", "2", "2.0"),
        ("nan_fill", "--nan-fill", "-nan", "nan"),
    ])
    def test_fill_that_is_no_logprob_is_usage_error(self, tmp_path, capsys, name, flag,
                                                    value, shown):
        inp, out = tmp_path / "t.jsonl", tmp_path / "f.jsonl"
        corpus.write_minus_inf(inp)
        code = main(["extract", "--input", str(inp), "--out", str(out), flag, value])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: {name} ({flag}) must be a finite log-probability <= 0, "
            f"got {shown}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_window_below_one_is_usage_error(self, tmp_path, capsys, value):
        """A window below 1 would silently switch off the keyword stage."""
        inp, out = tmp_path / "t.jsonl", tmp_path / "f.jsonl"
        corpus.write_minus_inf(inp)
        code = main(["extract", "--input", str(inp), "--out", str(out),
                     f"--window={value}"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: window (--window) must be at least 1, got {value}\n"
        )
        assert not out.exists()

    def test_module_entry_point_loads_no_numpy(self, tmp_path):
        inp, out = tmp_path / "t.jsonl", tmp_path / "f.jsonl"
        inp.write_text(corpus.MINUS_INF_LINES[0] + "\n", encoding="utf-8")
        src = os.path.dirname(os.path.dirname(os.path.abspath(scorebands.__file__)))
        # -X importtime lists every module the process imports on stderr.
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "scorebands.cli", "extract",
             "--input", str(inp), "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        assert run.returncode == EXIT_OK, run.stderr
        assert "extracted 1/1" in run.stdout
        imported = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "scorebands.extract" in imported
        for heavy in ("numpy", "scorebands.core", "dataclasses", "inspect"):
            assert heavy not in imported, heavy


class TestFuseCommand:
    def test_fuse_two_judges(self, tmp_path, capsys):
        paths = []
        for judge in ("j1", "j2"):
            p = tmp_path / f"{judge}.jsonl"
            with open(p, "w") as fh:
                for i in range(4):
                    fh.write(
                        json.dumps(
                            {
                                "sample_id": f"s{i}",
                                "judge": judge,
                                "dataset": "d",
                                "gt_score": 3,
                                "logprobs": {
                                    "1": -5.0, "2": -4.0, "3": -0.5,
                                    "4": -2.0, "5": -6.0,
                                },
                            }
                        )
                        + "\n"
                    )
            paths.append(str(p))
        out = tmp_path / "fused.jsonl"
        code = main(
            ["fuse", "--inputs", *paths, "--out", str(out),
             "--order", "j2,j1"]
        )
        assert code == EXIT_OK
        row = json.loads(out.read_text().splitlines()[0])
        assert len(row["features"]) == 10
        assert row["judge"] == "j2+j1"
        code = main(["fuse", "--inputs", *paths, "--out", str(tmp_path / "twice.jsonl"),
                     "--order", "j1,j1,j2"])
        assert code == EXIT_DATA
        assert "judge 'j1' is named more than once" in capsys.readouterr().err
        assert not (tmp_path / "twice.jsonl").exists()

    def test_fuse_splits_files_by_judge(self, tmp_path):
        # One file holds both judges; a second file adds more rows of j1.
        def line(i, judge, value):
            return json.dumps({
                "sample_id": f"s{i}", "judge": judge, "dataset": "d",
                "gt_score": 1 + i % 5,
                "logprobs": {str(k): value for k in range(1, 6)},
            }) + "\n"

        both = tmp_path / "both.jsonl"
        both.write_text("".join(line(i, j, v) for i in range(3)
                                for j, v in (("j1", -1.0), ("j2", -2.0))))
        more = tmp_path / "more.jsonl"
        more.write_text(line(3, "j1", -1.0) + line(4, "j1", -1.0))
        out = tmp_path / "fused.jsonl"
        code = main(["fuse", "--inputs", str(both), str(more), "--out", str(out)])
        assert code == EXIT_OK
        rows = [json.loads(r) for r in out.read_text().splitlines()]
        assert [r["sample_id"] for r in rows] == ["s0", "s1", "s2"]
        assert all(r["features"] == [-1.0] * 5 + [-2.0] * 5 for r in rows)
        assert [r["gt_score"] for r in rows] == [1, 2, 3]
