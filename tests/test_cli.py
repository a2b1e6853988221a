"""Command-line interface tests: every subcommand end to end through main(),
plus exit codes and typed error messages on bad input."""

import json

import pytest

from actkit.cli import main


@pytest.fixture
def phase_csv(tmp_path):
    path = tmp_path / "seq.csv"
    rc = main(
        [
            "gen-phases",
            "--phases", "6",
            "--segment", "25",
            "--frames", "300",
            "--noise", "0.2",
            "--seed", "3",
            "--out", str(path),
        ]
    )
    assert rc == 0
    return path


@pytest.fixture
def config_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "preset": "mini-resnet",
                "label": "cli-test",
                "surgery": [],
                "dataset": {
                    "source": "synthetic-images",
                    "train_size": 100,
                    "test_size": 50,
                    "subset_seed": 0,
                },
                "hyperparams": {"lr": 0.01, "momentum": 0.9, "batch_size": 32, "epochs": 1},
                "seeds": [1],
            }
        )
    )
    return path


class TestSites:
    def test_lists_nine_default_sites(self, capsys):
        assert main(["sites", "--preset", "mini-x3d"]) == 0
        out = capsys.readouterr().out
        assert "stem.act" in out
        assert "stage4.block1.act_b" in out
        assert "9 sites" in out

    def test_blocks_override(self, capsys):
        assert main(["sites", "--preset", "mini-resnet", "--blocks", "3,5,11,7"]) == 0
        assert "53 sites" in capsys.readouterr().out

    def test_unknown_preset_fails_typed(self, capsys):
        assert main(["sites", "--preset", "resnet101"]) != 0
        assert "ConfigError" in capsys.readouterr().err


class TestApprox:
    def test_reports_peak_gap(self, capsys):
        rc = main(
            ["approx", "--a", "swish", "--b", "hardswish", "--lo", "-10", "--hi", "10", "--step", "1e-4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.1422776" in out

    def test_unknown_kind_fails_typed(self, capsys):
        assert main(["approx", "--a", "gelu", "--b", "relu"]) != 0
        assert "DomainError" in capsys.readouterr().err


class TestPhasesAndSmooth:
    def test_gen_then_smooth(self, phase_csv, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        rc = main(["smooth", "--in", str(phase_csv), "--windows", "1,4,16", "--out", str(sweep)])
        assert rc == 0
        lines = sweep.read_text().splitlines()
        assert lines[0] == "w,accuracy"
        assert len(lines) == 4
        assert "best" in capsys.readouterr().out

    def test_missing_input_fails(self, tmp_path, capsys):
        rc = main(["smooth", "--in", str(tmp_path / "nope.csv"), "--windows", "1", "--out", str(tmp_path / "o.csv")])
        assert rc != 0
        assert capsys.readouterr().err.strip() != ""

    def test_invalid_noise_fails_typed(self, tmp_path, capsys):
        rc = main(
            ["gen-phases", "--phases", "5", "--noise", "1.5", "--out", str(tmp_path / "s.csv")]
        )
        assert rc != 0
        assert "DomainError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, why",
        [("1,1.2,-0.2", "has a negative probability -0.2"), ("7,0.5,0.5", "has truth 7, outside [0, 2)")],
        ids=["negative-probability", "truth-out-of-range"],
    )
    def test_bad_phase_row_names_file_and_row(self, row, why, tmp_path, capsys):
        path = tmp_path / "seq.csv"
        path.write_text(f"frame,truth,p0,p1\n0,0,0.5,0.5\n1,{row}\n")
        rc = main(["smooth", "--in", str(path), "--windows", "1", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"FormatError: {path}: row 1 {why}\n"


class TestBench:
    def test_bench_table_and_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        rc = main(
            ["bench", "--kinds", "relu,hardswish", "--n", "1000000", "--repeats", "3", "--out", str(out_csv)]
        )
        assert rc == 0
        assert "hardswish" in capsys.readouterr().out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "kind,n,repeats,median_ns_per_elem,ratio_vs_relu"
        assert len(lines) == 3

    def test_too_small_n_fails_typed(self, capsys):
        assert main(["bench", "--kinds", "relu", "--n", "1000", "--repeats", "3"]) != 0
        assert "DomainError" in capsys.readouterr().err


class TestTrainAndGrid:
    def test_train_writes_report(self, config_json, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["train", "--config", str(config_json), "--out", str(out)]) == 0
        docs = json.loads(out.read_text())
        assert docs[0]["label"] == "cli-test"
        assert len(docs[0]["runs"]) == 1
        assert "mean_accuracy" in capsys.readouterr().out

    def test_grid_writes_combined_csv(self, config_json, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = main(
            [
                "grid",
                "--config", str(config_json),
                "--placements", "initial,last",
                "--to", "hardswish",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        # header + 3 reports (baseline, initial, last) x 1 seed
        assert len(lines) == 4
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels == {"baseline", "initial->hardswish", "last->hardswish"}

    def test_missing_config_fails(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.json")])
        assert rc != 0
        assert capsys.readouterr().err.strip() != ""

    def test_malformed_config_fails_typed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"preset": "mini-resnet"}))
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc != 0
        assert "ConfigError" in capsys.readouterr().err

    TRAIN = ["train", "--config", "{cfg}", "--out", "{out}"]
    DATA = {"source": "synthetic-images", "train_size": 4, "test_size": 3}
    FORM = {"selector": "all", "form": "relu", "to": "hardswish"}

    @pytest.mark.parametrize(
        "argv, config, error",
        [
            (["smooth", "--in", "{csv}", "--windows", "1,x", "--out", "{out}"], None, "ConfigError"),
            (["sites", "--preset", "mini-x3d", "--blocks", "1,a"], None, "ConfigError"),
            (TRAIN, b"{not json", "FormatError"),
            (TRAIN, b"\xff\xfe{}", "FormatError"),
            (TRAIN, {"seeds": ["a"]}, "ConfigError"),
            (TRAIN, {"surgery": [{"selector": "all", "to": 5}]}, "ConfigError"),
            (TRAIN, [], "ConfigError"),
            (TRAIN, {"seeds": "12"}, "ConfigError"),
            (TRAIN, {"seeds": [1.7]}, "ConfigError"),
            (TRAIN, {"hyperparams": {"lr": "x"}}, "ConfigError"),
            (TRAIN, {"hyperparams": {"epochs": True}}, "ConfigError"),
            (TRAIN, {"seed": [7]}, "ConfigError"),
            (TRAIN, {"hyperparameters": {"lr": 0.5}}, "ConfigError"),
            (TRAIN, {"surgery": [FORM]}, "ConfigError"),
            (TRAIN, {"dataset": {**DATA, "train_size": 2.5}}, "ConfigError"),
            (TRAIN, {"dataset": {**DATA, "subset_seed": True}}, "ConfigError"),
            (TRAIN, {"label": 7}, "ConfigError"),
            (TRAIN, {"dataset": {**DATA, "source": "cifar10-binary", "data_dir": 5}}, "ConfigError"),
            (["bench", "--kinds", "relu,bogus"], None, "DomainError"),
            (["grid", "--config", "{cfg}", "--placements", "all,bogus", "--out", "{out}"], None, "ConfigError"),
        ],
        ids=[
            "windows",
            "blocks",
            "not-json",
            "not-utf8",
            "seed-not-int",
            "kind-not-str",
            "top-level-list",
            "seeds-string",
            "seed-float",
            "lr-string",
            "epochs-bool",
            "unknown-key-seed",
            "unknown-key-hyperparameters",
            "step-key-form",
            "train-size-float",
            "subset-seed-bool",
            "label-int",
            "data-dir-int",
            "kinds-bogus",
            "placements-bogus",
        ],
    )
    def test_bad_input_fails_typed(self, argv, config, error, config_json, phase_csv, tmp_path, capsys):
        if isinstance(config, dict):
            config = json.dumps({**json.loads(config_json.read_text()), **config}).encode()
        elif isinstance(config, list):
            config = json.dumps(config).encode()
        if config is not None:
            config_json.write_bytes(config)
        paths = {"csv": phase_csv, "cfg": config_json, "out": tmp_path / "out.json"}
        rc = main([arg.format(**paths) for arg in argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{error}: ") and err.count("\n") == 1, err
