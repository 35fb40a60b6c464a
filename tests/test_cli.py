"""CLI tests: subcommand round trips and exit codes."""

import json
import os

import pytest

from scorebands.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
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


def test_parse_methods():
    assert parse_methods("all")[0] == "naive_split"
    assert parse_methods("r2ccp,chr") == ("r2ccp", "chr")


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
