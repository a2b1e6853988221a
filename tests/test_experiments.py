"""Experiment orchestration tests: aggregation arithmetic, reproducibility,
the placement grid, and config/report serialization. Training runs here are
kept tiny; the desk-scale learning check lives in the acceptance suite."""

import json

import numpy as np
import pytest

from actkit import (
    INITIAL,
    LAST,
    MIDDLE,
    ActivationKind,
    ConfigError,
    DataConfig,
    DomainError,
    ExperimentConfig,
    Hyperparams,
    Rng,
    SurgeryStep,
    apply_surgery,
    build_model,
    config_from_json,
    config_to_json,
    emit_report,
    evaluate,
    gen_synthetic_images,
    load_datasets,
    param_hash,
    preset,
    run_experiment,
    run_grid,
    site_selector,
)
from actkit.experiments import ExperimentReport, SeedRun, report_from_json, report_to_json

HS = ActivationKind.HARDSWISH


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        preset="mini-resnet",
        dataset=DataConfig(source="synthetic-images", train_size=120, test_size=60),
        label="tiny",
        hyperparams=Hyperparams(epochs=1),
        seeds=(1,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_seeds_must_be_nonempty(self):
        with pytest.raises(ConfigError):
            tiny_config(seeds=())

    @pytest.mark.parametrize("seeds", [[True], [1, "2"], 3])
    def test_seeds_must_be_a_list_of_ints(self, seeds):
        with pytest.raises(ConfigError):
            tiny_config(seeds=seeds)

    def test_epochs_must_be_positive(self):
        with pytest.raises(ConfigError):
            Hyperparams(epochs=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr", "x"),
            ("lr", float("nan")),
            ("momentum", True),
            ("momentum", float("inf")),
            ("epochs", True),
            ("epochs", 1.0),
            ("batch_size", "32"),
            ("batch_size", False),
        ],
    )
    def test_hyperparam_types_checked(self, field, value):
        with pytest.raises(ConfigError):
            Hyperparams(**{field: value})

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigError):
            DataConfig(source="imagenet", train_size=10, test_size=10)

    def test_cifar_requires_data_dir(self):
        with pytest.raises(ConfigError):
            DataConfig(source="cifar10-binary", train_size=10, test_size=10)


class TestRunExperiment:
    def test_mean_is_arithmetic_mean(self):
        report = run_experiment(
            tiny_config(
                dataset=DataConfig(source="synthetic-images", train_size=500, test_size=100),
                hyperparams=Hyperparams(epochs=2),
                seeds=(1, 2),
            )
        )
        assert len(report.runs) == 2
        accs = [r.test_accuracy for r in report.runs]
        times = [r.train_seconds for r in report.runs]
        assert report.mean_accuracy == sum(accs) / 2
        assert report.mean_train_seconds == sum(times) / 2

    def test_bit_identical_across_invocations(self):
        cfg = tiny_config(seeds=(5,))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.mean_accuracy == b.mean_accuracy
        assert a.runs[0].init_param_hash == b.runs[0].init_param_hash
        assert a.spec_fingerprint == b.spec_fingerprint

    def test_surgery_reflected_in_fingerprint(self):
        plain = run_experiment(tiny_config())
        step = SurgeryStep(selector=INITIAL, from_kind=None, to_kind=HS)
        surgered = run_experiment(tiny_config(surgery=(step,)))
        assert plain.spec_fingerprint != surgered.spec_fingerprint

    def test_unknown_site_surgery_rejected(self):
        step = SurgeryStep(selector=site_selector("stage7.block1.act_a"), from_kind=None, to_kind=HS)
        with pytest.raises(ConfigError):
            run_experiment(tiny_config(surgery=(step,)))

    def test_report_echoes_config(self):
        cfg = tiny_config()
        report = run_experiment(cfg)
        assert report.label == "tiny"
        assert report.preset == "mini-resnet"
        assert report.hyperparams == cfg.hyperparams
        assert report.dataset == cfg.dataset

    def test_missing_cifar_dir_is_typed_error(self, tmp_path):
        cfg = tiny_config(
            dataset=DataConfig(
                source="cifar10-binary", train_size=10, test_size=10, data_dir=str(tmp_path)
            )
        )
        with pytest.raises(DomainError):
            run_experiment(cfg)


class TestLearning:
    """Default hyperparameters learn the synthetic quadrant task far above
    the 0.10 chance rate. This is the in-sandbox stand-in for the CIFAR
    desk-scale check, which needs the real batch files."""

    def test_model_learns_synthetic_images(self):
        report = run_experiment(
            ExperimentConfig(
                preset="mini-resnet",
                dataset=DataConfig(source="synthetic-images", train_size=1000, test_size=400),
                label="learn",
                hyperparams=Hyperparams(),  # lr 0.01, momentum 0.9, batch 32, 5 epochs
                seeds=(1,),
            )
        )
        assert report.mean_accuracy >= 0.5


class TestApplySurgeryAndHash:
    def test_apply_surgery_sequences(self):
        spec = preset("mini-x3d")
        steps = (
            SurgeryStep(MIDDLE, ActivationKind.RELU, HS),
            SurgeryStep(LAST, None, HS),
        )
        out = apply_surgery(spec, steps)
        kinds = {b.act_a for b in (out.stages[1][0], out.stages[2][0])}
        assert kinds == {HS}
        assert out.stages[3][0].act_a is HS and out.stages[3][0].act_b is HS

    def test_param_hash_tracks_seed_not_kinds(self):
        a = param_hash(build_model(preset("mini-resnet"), Rng(1)))
        b = param_hash(build_model(preset("mini-x3d"), Rng(1)))
        c = param_hash(build_model(preset("mini-resnet"), Rng(2)))
        assert a == b
        assert a != c


class TestLoadDatasets:
    def test_synthetic_sizes_and_determinism(self):
        cfg = DataConfig(source="synthetic-images", train_size=40, test_size=20)
        train, test = load_datasets(cfg)
        assert len(train) == 40 and len(test) == 20
        train2, _ = load_datasets(cfg)
        assert np.array_equal(train.images, train2.images)

    def test_train_and_test_differ(self):
        train, test = load_datasets(DataConfig(source="synthetic-images", train_size=30, test_size=30))
        assert not np.array_equal(train.images, test.images)


class TestEvaluate:
    def test_accuracy_of_untrained_model_is_valid_fraction(self):
        model = build_model(preset("mini-resnet"), Rng(0))
        ds = gen_synthetic_images(30, seed=1)
        acc = evaluate(model, ds)
        assert 0.0 <= acc <= 1.0

    def test_batching_does_not_change_result(self):
        model = build_model(preset("mini-resnet"), Rng(0))
        ds = gen_synthetic_images(50, seed=2)
        assert evaluate(model, ds, batch_size=7) == evaluate(model, ds, batch_size=50)


class TestGrid:
    def test_five_reports_shared_protocol(self):
        cfg = tiny_config(seeds=(1, 2))
        reports = run_grid(cfg, [INITIAL, MIDDLE, LAST], HS)
        assert len(reports) == 4  # baseline + 3 placements
        assert reports[0].label == "baseline"
        fingerprints = {r.spec_fingerprint for r in reports}
        assert len(fingerprints) == 4  # baseline differs from every cell
        for rep in reports:
            assert rep.hyperparams == cfg.hyperparams
            assert tuple(r.seed for r in rep.runs) == (1, 2)

    def test_init_hashes_identical_across_cells(self):
        """Surgery never perturbs initialization: same seed, same weights."""
        reports = run_grid(tiny_config(seeds=(3,)), [INITIAL, LAST], HS)
        hashes = {rep.runs[0].init_param_hash for rep in reports}
        assert len(hashes) == 1

    def test_grid_reruns_bit_identical(self):
        cfg = tiny_config(seeds=(4,))
        a = run_grid(cfg, [INITIAL], HS)
        b = run_grid(cfg, [INITIAL], HS)
        assert [r.mean_accuracy for r in a] == [r.mean_accuracy for r in b]


class TestSerialization:
    def test_config_json_round_trip(self):
        cfg = tiny_config(
            surgery=(SurgeryStep(MIDDLE, ActivationKind.RELU, HS),),
            seeds=(1, 2, 3),
        )
        doc = config_to_json(cfg)
        back = config_from_json(doc)
        assert back == cfg
        assert config_to_json(back) == doc

    def test_config_json_is_plain_data(self):
        doc = config_to_json(tiny_config())
        json.dumps(doc)  # must be serializable as-is
        assert doc["surgery"] == []
        assert doc["hyperparams"]["lr"] == 0.01

    def test_malformed_config_rejected(self):
        with pytest.raises(ConfigError):
            config_from_json({"preset": "mini-resnet"})  # no dataset

    def test_report_json_round_trip(self):
        report = run_experiment(tiny_config())
        doc = report_to_json(report)
        assert report_from_json(doc) == report

    def test_emit_json_round_trip(self, tmp_path):
        report = run_experiment(tiny_config())
        path = tmp_path / "report.json"
        emit_report([report], path, format="json")
        docs = json.loads(path.read_text())
        assert len(docs) == 1
        assert report_from_json(docs[0]) == report

    def test_emitted_json_key_order(self, tmp_path):
        cfg = tiny_config()
        report = ExperimentReport(
            label="tiny",
            preset="mini-resnet",
            runs=(SeedRun(1, 0.5, 1.25, "ab"),),
            mean_accuracy=0.5,
            mean_train_seconds=1.25,
            hyperparams=cfg.hyperparams,
            dataset=cfg.dataset,
            spec_fingerprint="cd",
        )
        path = tmp_path / "report.json"
        emit_report([report], path, format="json")
        doc = json.loads(path.read_text())[0]
        assert list(doc) == [
            "label",
            "preset",
            "spec_fingerprint",
            "hyperparams",
            "dataset",
            "runs",
            "mean_accuracy",
            "mean_train_seconds",
        ]
        assert list(doc["hyperparams"]) == ["lr", "momentum", "batch_size", "epochs"]
        assert list(doc["dataset"]) == ["source", "train_size", "test_size", "data_dir", "subset_seed"]
        assert list(doc["runs"][0]) == ["seed", "test_accuracy", "train_seconds", "init_param_hash"]
        cfg_doc = config_to_json(cfg)
        assert list(cfg_doc) == ["preset", "label", "surgery", "dataset", "hyperparams", "seeds"]
        assert list(cfg_doc["dataset"]) == list(doc["dataset"])
        assert list(cfg_doc["hyperparams"]) == list(doc["hyperparams"])

    def test_emit_csv_one_row_per_seed(self, tmp_path):
        report = run_experiment(tiny_config(seeds=(1, 2)))
        path = tmp_path / "report.csv"
        emit_report([report], path, format="csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header + 2 seeds
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["label"] == "tiny"
        assert float(row["test_accuracy"]) == report.runs[0].test_accuracy
        assert float(row["mean_accuracy"]) == report.mean_accuracy
        assert row["init_param_hash"] == report.runs[0].init_param_hash

    def test_emit_empty_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            emit_report([], tmp_path / "r.json", format="json")

    def test_emit_unknown_format_rejected(self, tmp_path):
        report = run_experiment(tiny_config())
        with pytest.raises(ConfigError):
            emit_report([report], tmp_path / "r.xml", format="xml")
