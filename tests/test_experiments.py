"""Experiment orchestration tests: aggregation arithmetic, reproducibility,
the placement grid, and config/report serialization. Training runs here are
kept tiny; the desk-scale learning check lives in the acceptance suite."""

import json
import os
import re
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from actkit import (
    FULL_SCALE_BLOCKS,
    MIDDLE,
    ActivationKind,
    BlockSpec,
    ConfigError,
    DataConfig,
    DomainError,
    ExperimentConfig,
    GroupSelector,
    Hyperparams,
    Rng,
    SurgeryStep,
    apply_surgery,
    build_model,
    emit_report,
    evaluate,
    forward,
    gen_synthetic_images,
    load_cifar10_binary,
    load_datasets,
    param_hash,
    preset,
    replace_activations,
    run_experiment,
    run_grid,
    train,
)
from actkit import ModelSpec, chunks, experiments, modelspec, record_from_json, record_to_json
from actkit.experiments import ExperimentReport, SeedRun

HS = ActivationKind.HARDSWISH
KINDS = "(expected one of: relu, relu6, sigmoid, swish, hardswish)"
# SGD steps with float32 lr and momentum, so Hyperparams checks its rules on those values.
LR_RULE = "malformed 'lr' in Hyperparams: expected a number whose float32 is > 0 and finite"
MOMENTUM_RULE = "malformed 'momentum' in Hyperparams: expected a number whose float32 is in [0, 1)"


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


def hand_built_report() -> ExperimentReport:
    """Two runs; a comma in the label, an integer lr, and floats whose repr is long or tiny."""
    return ExperimentReport(
        label="band:a,middle->hardswish",
        preset="mini-x3d",
        spec_fingerprint="f00d",
        hyperparams=Hyperparams(lr=1, momentum=0.1 + 0.2, batch_size=16, epochs=3),
        dataset=DataConfig(source="synthetic-images", train_size=40, test_size=20),
        runs=(
            SeedRun(seed=3, test_accuracy=1 / 3, train_seconds=1e-20, init_param_hash="aa11"),
            SeedRun(seed=4, test_accuracy=0.1 + 0.2, train_seconds=2.5, init_param_hash="bb22"),
        ),
        mean_accuracy=(1 / 3 + (0.1 + 0.2)) / 2,
        mean_train_seconds=1.25,
    )


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
            ("lr", -0.5),
            ("lr", 0),
            ("lr", 1e39),
            ("lr", 1e-46),
            ("momentum", True),
            ("momentum", float("inf")),
            ("momentum", 1.5),
            ("momentum", 1.0),
            ("momentum", -0.1),
            ("momentum", 0.99999999),
            ("epochs", True),
            ("epochs", 1.0),
            ("batch_size", "32"),
            ("batch_size", False),
        ],
    )
    def test_hyperparam_types_checked(self, field, value):
        """The constructor and the JSON reader reject the value with the same message."""
        with pytest.raises(ConfigError, match=f"^malformed '{field}' in Hyperparams: ") as built:
            Hyperparams(**{field: value})
        with pytest.raises(ConfigError) as read:
            record_from_json(Hyperparams, {field: value})
        assert str(built.value) == str(read.value)

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigError):
            DataConfig(source="imagenet", train_size=10, test_size=10)

    def test_cifar_requires_data_dir(self):
        with pytest.raises(ConfigError):
            DataConfig(source="cifar10-binary", train_size=10, test_size=10)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("train_size", 2.5),
            ("train_size", True),
            ("train_size", 0),
            ("test_size", "3"),
            ("subset_seed", 1.5),
            ("subset_seed", True),
        ],
    )
    def test_data_config_integers_checked(self, field, value):
        doc = {"source": "synthetic-images", "train_size": 4, "test_size": 3, field: value}
        with pytest.raises(ConfigError, match=field) as built:
            DataConfig(**doc)
        with pytest.raises(ConfigError) as read:
            record_from_json(DataConfig, doc)
        assert str(built.value) == str(read.value)

    @pytest.mark.parametrize(
        "cls, doc, message",
        [
            (
                DataConfig,
                {"source": "cifar10-binary", "train_size": 10, "test_size": 10, "data_dir": 5},
                "malformed 'data_dir' in DataConfig: expected a string, got 5",
            ),
            (
                SeedRun,
                {"seed": 1.5, "test_accuracy": 0.5, "train_seconds": 1.0, "init_param_hash": "ab"},
                "malformed 'seed' in SeedRun: expected an integer, got 1.5",
            ),
            (
                ExperimentReport,
                {**record_to_json(hand_built_report()), "mean_accuracy": [1]},
                "malformed 'mean_accuracy' in ExperimentReport: expected a finite number, got [1]",
            ),
            (GroupSelector, {"text": 5}, "malformed 'text' in GroupSelector: expected a string, got 5"),
            (
                SurgeryStep,
                {"selector": "all", "to": "hardswsh"},
                f"malformed 'to' in SurgeryStep: unknown activation kind 'hardswsh' {KINDS}",
            ),
            (
                SurgeryStep,
                {"selector": "bogus", "to": "relu"},
                "malformed 'selector' in SurgeryStep: cannot parse selector 'bogus' "
                "(expected initial, middle, last, all, band:a, band:b or site:<id>)",
            ),
            (
                BlockSpec,
                {"channels": 8, "stride": 1, "act_a": "rel", "act_b": "relu"},
                f"malformed 'act_a' in BlockSpec: unknown activation kind 'rel' {KINDS}",
            ),
            (
                Hyperparams,
                json.loads('{"lr": 1' + "0" * 400 + "}"),
                f"malformed 'lr' in Hyperparams: expected a finite number, got {10**400!r}",
            ),
            (Hyperparams, {"lr": -0.5}, f"{LR_RULE}, got -0.5"),
            (Hyperparams, {"lr": 1e39}, f"{LR_RULE}, got 1e+39"),
            (Hyperparams, {"lr": 1e-46}, f"{LR_RULE}, got 1e-46"),
            (Hyperparams, {"momentum": 1}, f"{MOMENTUM_RULE}, got 1"),
            (Hyperparams, {"momentum": 0.99999999}, f"{MOMENTUM_RULE}, got 0.99999999"),
        ],
        ids=[
            "data-dir-int",
            "seed-float",
            "mean-list",
            "selector-int",
            "kind-typo",
            "selector-typo",
            "block-kind-typo",
            "lr-past-float-range",
            "lr-negative",
            "lr-inf-in-float32",
            "lr-zero-in-float32",
            "momentum-one",
            "momentum-one-in-float32",
        ],
    )
    def test_constructor_checks_fields_as_the_reader_does(self, cls, doc, message):
        """A text its parser rejects, or an int no float can hold, is a field error like any other."""
        names = {f.metadata.get("json", f.name): f.name for f in fields(cls)}
        with pytest.raises(ConfigError) as built:
            cls(**{names[key]: value for key, value in doc.items()})
        with pytest.raises(ConfigError) as read:
            record_from_json(cls, doc)
        assert str(built.value) == str(read.value) == message

    def test_parsers_called_directly_keep_their_errors(self):
        with pytest.raises(DomainError, match=r"^unknown activation kind 'hardswsh' \(expected"):
            ActivationKind.from_name("hardswsh")
        with pytest.raises(ConfigError, match=r"^cannot parse selector 'bogus' \(expected"):
            GroupSelector("bogus")

    def test_constructor_takes_json_forms(self):
        """A field also takes its JSON form: a selector's or a kind's text, a list, a dict."""
        step = SurgeryStep(selector=" All", to_kind="hardswish")
        assert step == SurgeryStep(selector=GroupSelector("all"), to_kind=HS)
        dataset = {"source": "synthetic-images", "train_size": 4, "test_size": 3}
        cfg = ExperimentConfig(preset="mini-resnet", dataset=dataset, surgery=[step], seeds=[3])
        assert cfg.dataset == DataConfig(**dataset) and cfg.surgery == (step,) and cfg.seeds == (3,)


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
        step = SurgeryStep(selector=GroupSelector("initial"), from_kind=None, to_kind=HS)
        surgered = run_experiment(tiny_config(surgery=(step,)))
        assert plain.spec_fingerprint != surgered.spec_fingerprint

    def test_unknown_site_surgery_rejected(self):
        step = SurgeryStep(selector=GroupSelector("site:stage7.block1.act_a"), from_kind=None, to_kind=HS)
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

    def test_divergence_names_seed_epoch_step_and_last_loss(self):
        """lr 10 on mini-x3d diverges within two epochs, with numpy's overflow warnings raising
        as the suite sets them; the error puts the seed, epoch, step and last loss in front of
        the forward pass's site message."""
        cfg = tiny_config(
            preset="mini-x3d",
            dataset=DataConfig(source="synthetic-images", train_size=64, test_size=16),
            hyperparams=Hyperparams(lr=10.0, batch_size=16, epochs=2),
            seeds=(1,),
        )
        with pytest.raises(DomainError) as caught:
            run_experiment(cfg)
        msg, site_err = str(caught.value), caught.value.__cause__
        head = re.match(r"seed 1 epoch ([12]) step ([1-4]) \(last loss (\S+)\): ", msg)
        assert head, msg
        assert isinstance(site_err, DomainError) and msg[head.end() :] == str(site_err)
        assert re.match(r"(stem|stage\d\.block1)\.act(_a|_b)?: (relu|swish) batch \(16, ", str(site_err))
        assert head.group(3) == "None" or np.isfinite(float(head.group(3)))

    def test_full_depth_divergence_names_the_pool(self):
        """Full-depth He-init mini-x3d at lr 3e-3 (seed 2, 640 training images) overflows the
        pool's float32 sum at step 3, with every site's input finite. train raises a DomainError
        naming the epoch, step and the pool, not a numpy warning or a NaN loss."""
        rng = Rng(2)
        model = build_model(preset("mini-x3d", FULL_SCALE_BLOCKS), rng)
        with pytest.raises(DomainError) as caught:
            train(model, gen_synthetic_images(640, seed=0), Hyperparams(lr=3e-3, batch_size=32, epochs=1), rng)
        assert re.match(
            r"epoch 1 step 3 \(last loss [0-9.e+]+\): images 0-15 of 32: pool: features \(16, 32\) "
            r"has 16 non-finite elements, first inf at flat index \d+$",
            str(caught.value),
        ), str(caught.value)

    def test_non_finite_update_names_seed_step_and_parameter(self, monkeypatch):
        """Finite gradients whose SGD update leaves float32 stop the run at that step, with the
        first such parameter named."""
        def huge(model, batch, labels):
            return 2.5, {name: np.full_like(p, 3e38) for name, p in model.params.items()}

        monkeypatch.setattr(experiments, "loss_and_gradients", huge)
        cfg = tiny_config(preset="mini-x3d", hyperparams=Hyperparams(lr=10.0, batch_size=32, epochs=1), seeds=(3,))
        with pytest.raises(DomainError) as caught:
            run_experiment(cfg)
        assert str(caught.value) == (
            "seed 3 epoch 1 step 1 (last loss None): update of stem.w (8, 3, 3, 3) has 216 non-finite elements, "
            "first -inf at flat index 0"
        )


class TestTrain:
    """train(model, data, hp, rng) returns a new trained Model and leaves its input as it is,
    so one model can start any number of runs: the fork that fine-tuning after a swap needs."""

    HP = Hyperparams(batch_size=32, epochs=1)

    def test_input_model_keeps_its_dict_and_arrays(self):
        model = build_model(preset("mini-x3d"), Rng(1))
        params, arrays = model.params, dict(model.params)
        before = {name: p.tobytes() for name, p in params.items()}
        trained = train(model, gen_synthetic_images(64, seed=2), self.HP, Rng(7))
        assert model.params is params and list(params) == list(arrays)
        assert all(params[name] is arrays[name] and params[name].tobytes() == b for name, b in before.items())
        assert trained.spec is model.spec and trained.params is not params
        assert param_hash(trained) != param_hash(model)

    def test_same_start_and_seed_give_the_same_bits(self):
        """Also from an already trained model."""
        data = gen_synthetic_images(64, seed=2)
        model = build_model(preset("mini-x3d"), Rng(1))
        first, again = (train(model, data, self.HP, Rng(7)) for _ in range(2))
        assert param_hash(first) == param_hash(again)
        fork, fork_again = (train(first, data, self.HP, Rng(8)) for _ in range(2))
        assert param_hash(fork) == param_hash(fork_again) != param_hash(first)

    def test_run_experiment_is_build_hash_train_evaluate(self):
        train_set, test_set = gen_synthetic_images(64, seed=5), gen_synthetic_images(32, seed=6)
        cfg = tiny_config(preset="mini-x3d", hyperparams=self.HP, seeds=(1, 3))
        report = run_experiment(cfg, data=(train_set, test_set))
        assert [run.seed for run in report.runs] == [1, 3]
        for run in report.runs:
            rng = Rng(run.seed)
            model = build_model(preset("mini-x3d"), rng)
            assert run.init_param_hash == param_hash(model)
            assert run.test_accuracy == evaluate(train(model, train_set, self.HP, rng), test_set)

    def test_model_is_frozen(self):
        model = build_model(preset("mini-x3d"), Rng(1))
        with pytest.raises(FrozenInstanceError):
            model.params = {}


class TestChunkedStep:
    """loss_and_gradients runs a batch of n >= 32 images as n // 16 chunks on every core,
    combined as the size-weighted sum in chunk order: the same bits on every executor path.
    Every step and evaluation of every run uses the one pool that the process keeps."""

    @staticmethod
    def step_bytes(model, data):
        loss, grads = modelspec.loss_and_gradients(model, data.images, data.labels)
        return repr(loss).encode() + b"".join(name.encode() + g.tobytes() for name, g in grads.items())

    @pytest.mark.parametrize("n", [32, 40])
    def test_same_bits_on_every_path(self, n, monkeypatch):
        model = build_model(preset("mini-x3d"), Rng(3))
        data = gen_synthetic_images(n, seed=4)
        want = self.step_bytes(model, data)
        for cores in ({0}, {0, 1}):
            with monkeypatch.context() as m:
                m.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
                assert self.step_bytes(model, data) == want
        monkeypatch.setattr(chunks, "_openblas_threads", lambda: None)
        assert self.step_bytes(model, data) == want

    @pytest.mark.parametrize("n", [8, 31, 32, 33, 40, 48])
    def test_close_to_one_pass(self, n):
        """The weighted chunk sum is the whole-batch mean, up to float32 rounding; under 32
        images the step is the one pass itself, which the executor runs at one OpenBLAS thread."""
        model = build_model(preset("mini-x3d"), Rng(3))
        data = gen_synthetic_images(n, seed=4)
        loss, grads = modelspec.loss_and_gradients(model, data.images, data.labels)
        [(want_loss, want)] = chunks._run_chunks(
            lambda lo, hi: modelspec._loss_and_gradients_pass(model, data.images, data.labels), [(0, n)]
        )
        assert list(grads) == list(want)
        if n < 32:
            assert loss == want_loss and all(np.array_equal(grads[k], want[k]) for k in want)
        assert loss == pytest.approx(want_loss, rel=1e-6)
        for name, g in want.items():
            assert np.allclose(grads[name], g, rtol=1e-4, atol=1e-6 * np.abs(g).max()), name

    def test_one_pool_for_all_steps_of_a_run(self, pool_spy):
        """A pool per step would start a thread per step; one could start before the last had
        handed back its malloc arena, and each extra arena holds a chunk's memory. Both seeds'
        steps and 96-image evaluations (6 forward chunks) run on the one kept pool."""
        cfg = tiny_config(
            preset="mini-x3d",
            dataset=DataConfig(source="synthetic-images", train_size=96, test_size=96),
            hyperparams=Hyperparams(batch_size=32, epochs=2),
            seeds=(1, 2),
        )
        run_experiment(cfg)  # 2 seeds x (2 epochs x 3 steps + 1 evaluation)
        assert len(pool_spy.pools) == 1 and len(pool_spy.submits) == 2 * (2 * 3 + 1)

    def test_error_names_seed_step_and_chunk(self):
        """An inf pixel in the first batch's image 20 fails the 16-31 chunk's stem activation."""
        seed = 1
        spec = preset("mini-x3d")
        rng = Rng(seed)
        build_model(spec, rng)  # run_experiment draws the init, then train draws the epoch's order
        order = np.argsort(rng.uniforms(64), kind="stable")
        train, test = gen_synthetic_images(64, seed=5), gen_synthetic_images(8, seed=6)
        train.images[order[20], 0, 1, 2] = np.inf
        cfg = tiny_config(preset="mini-x3d", hyperparams=Hyperparams(batch_size=32, epochs=1), seeds=(seed,))
        with np.errstate(invalid="ignore"):  # inf * 0 in the stem conv
            with pytest.raises(DomainError) as caught:
                run_experiment(cfg, data=(train, test))
            chunk = order[16:32]
            with pytest.raises(DomainError) as one:
                modelspec.loss_and_gradients(build_model(spec, Rng(seed)), train.images[chunk], train.labels[chunk])
        head = "seed 1 epoch 1 step 1 (last loss None): images 16-31 of 32: "
        assert str(caught.value) == head + str(one.value)
        assert str(one.value).startswith("stem.act: relu batch (16, 8, 32, 32) has ")
        assert int(re.search(r"flat index (\d+)$", str(one.value)).group(1)) // (8 * 32 * 32) == 20 - 16


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
            SurgeryStep(selector=MIDDLE, from_kind=ActivationKind.RELU, to_kind=HS),
            SurgeryStep(selector=GroupSelector("last"), to_kind=HS),
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

    def test_cifar_size_beyond_files_rejected(self, tmp_path):
        """Six fake batch files of 20 records hold 100 train and 20 test images. A size above
        that count raises before any training, naming both numbers; a size equal to it loads
        the files as they are, in their order, with no subset."""
        rs = np.random.RandomState(3)
        for name in experiments.CIFAR_TRAIN_FILES + experiments.CIFAR_TEST_FILES:
            records = rs.randint(0, 256, (20, 3073)).astype(np.uint8)
            records[:, 0] = np.arange(20) % 10
            (tmp_path / name).write_bytes(records.tobytes())

        def load(train_size, test_size):
            cfg = DataConfig("cifar10-binary", train_size, test_size, data_dir=str(tmp_path))
            return load_datasets(cfg)

        for sizes, message in (
            ((101, 20), "train_size 101 exceeds the 100 images in its batch files"),
            ((100, 21), "test_size 21 exceeds the 20 images in its batch files"),
        ):
            with pytest.raises(DomainError) as err:
                load(*sizes)
            assert str(err.value) == message
        train, test = load(100, 20)
        for got, files in ((train, experiments.CIFAR_TRAIN_FILES), (test, experiments.CIFAR_TEST_FILES)):
            want = load_cifar10_binary([tmp_path / name for name in files])
            assert np.array_equal(got.images, want.images) and np.array_equal(got.labels, want.labels)


class TestEvaluate:
    def test_accuracy_of_untrained_model_is_valid_fraction(self):
        model = build_model(preset("mini-resnet"), Rng(0))
        ds = gen_synthetic_images(30, seed=1)
        acc = evaluate(model, ds)
        assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("n", [257, 258, 513])
    def test_one_forward_call_over_the_whole_set(self, n, monkeypatch):
        """forward cuts a large set into chunks itself, so evaluate hands it every image in
        one call, and scores the logits of one whole-set pass."""
        model = build_model(preset("mini-x3d"), Rng(4))
        ds = gen_synthetic_images(n, seed=3)
        seen = []

        def spy(model, batch):
            seen.append(batch)
            return forward(model, batch)

        monkeypatch.setattr(experiments, "forward", spy)
        acc = evaluate(model, ds)
        assert len(seen) == 1 and np.array_equal(seen[0], ds.images)
        logits = modelspec._forward_internal(model, ds.images, record=False)[0]
        assert acc == int((logits.argmax(axis=1) == ds.labels).sum()) / n


class TestGrid:
    def test_five_reports_shared_protocol(self):
        cfg = tiny_config(seeds=(1, 2))
        reports = run_grid(cfg, [GroupSelector("initial"), MIDDLE, GroupSelector("last")], HS)
        assert len(reports) == 4  # baseline + 3 placements
        assert reports[0].label == "baseline"
        fingerprints = {r.spec_fingerprint for r in reports}
        assert len(fingerprints) == 4  # baseline differs from every cell
        for rep in reports:
            assert rep.hyperparams == cfg.hyperparams
            assert tuple(r.seed for r in rep.runs) == (1, 2)

    def test_init_hashes_identical_across_cells(self):
        """Surgery never perturbs initialization: same seed, same weights."""
        reports = run_grid(tiny_config(seeds=(3,)), [GroupSelector("initial"), GroupSelector("last")], HS)
        hashes = {rep.runs[0].init_param_hash for rep in reports}
        assert len(hashes) == 1

    def test_grid_reruns_bit_identical(self):
        cfg = tiny_config(seeds=(4,))
        a = run_grid(cfg, [GroupSelector("initial")], HS)
        b = run_grid(cfg, [GroupSelector("initial")], HS)
        assert [r.mean_accuracy for r in a] == [r.mean_accuracy for r in b]

    @pytest.mark.parametrize(
        "preset_name, message",
        [
            ("mini-x3d", "selector 'site:stage9.block1.act_a' matches no activation site"),
            ("resnet101", "unknown preset 'resnet101' (expected 'mini-resnet' or 'mini-x3d')"),
        ],
        ids=["unknown-site", "unknown-preset"],
    )
    def test_checked_before_data_is_loaded(self, monkeypatch, preset_name, message):
        """A bad placement or preset fails before any data is loaded or any cell trains."""

        def no_data(cfg):
            raise AssertionError("load_datasets was called")

        monkeypatch.setattr(experiments, "load_datasets", no_data)
        with pytest.raises(ConfigError) as info:
            run_grid(tiny_config(preset=preset_name), [GroupSelector("all"), GroupSelector("site:stage9.block1.act_a")], HS)
        assert str(info.value) == message

    def test_config_surgery_rejected_before_data_is_loaded(self, monkeypatch):
        """The grid's cells are the plain preset and one placement each, so a config with
        surgery of its own fails before any data is loaded, naming the key."""

        def no_data(cfg):
            raise AssertionError("load_datasets was called")

        monkeypatch.setattr(experiments, "load_datasets", no_data)
        cfg = tiny_config(preset="mini-x3d", surgery=(SurgeryStep(selector=GroupSelector("all"), to_kind=ActivationKind.SWISH),))
        with pytest.raises(ConfigError) as info:
            run_grid(cfg, [GroupSelector("initial")], HS)
        assert str(info.value) == (
            "a grid config must have an empty 'surgery' list, got 1 step(s): "
            "the grid's cells are the plain preset and one per placement"
        )


class TestSerialization:
    def test_config_json_round_trip(self):
        cfg = tiny_config(
            surgery=(SurgeryStep(selector=MIDDLE, from_kind=ActivationKind.RELU, to_kind=HS),),
            seeds=(1, 2, 3),
        )
        doc = record_to_json(cfg)
        back = record_from_json(ExperimentConfig, doc)
        assert back == cfg
        assert record_to_json(back) == doc

    def test_config_json_is_plain_data(self):
        doc = record_to_json(tiny_config())
        json.dumps(doc)  # must be serializable as-is
        assert doc["surgery"] == []
        assert doc["hyperparams"]["lr"] == 0.01

    def test_malformed_config_rejected(self):
        with pytest.raises(ConfigError):
            record_from_json(ExperimentConfig, {"preset": "mini-resnet"})  # no dataset

    def test_config_defaults_come_from_the_dataclasses(self):
        dataset = {"source": "synthetic-images", "train_size": 4, "test_size": 3}
        cfg = record_from_json(ExperimentConfig, {"preset": "mini-resnet", "dataset": dataset})
        assert cfg == ExperimentConfig(preset="mini-resnet", dataset=DataConfig(**dataset))
        assert cfg.label == "experiment" and cfg.surgery == () and cfg.seeds == (1, 2)
        assert cfg.hyperparams == Hyperparams(lr=0.01, momentum=0.9, batch_size=32, epochs=5)
        step = {"selector": "all", "to": "hardswish"}
        assert record_from_json(ExperimentConfig, {**record_to_json(cfg), "surgery": [step]}).surgery[0].from_kind is None

    @pytest.mark.parametrize(
        "edit, named",
        [
            ({"seed": [7]}, "unknown key 'seed' in ExperimentConfig"),
            ({"hyperparameters": {"lr": 0.5}}, "unknown key 'hyperparameters' in ExperimentConfig"),
            ({"hyperparams": {"learning_rate": 0.5}}, "unknown key 'learning_rate' in Hyperparams"),
            ({"dataset": {"source": "synthetic-images"}}, "missing key 'train_size' in DataConfig"),
            ({"surgery": [{"selector": "all", "form": "relu", "to": "hardswish"}]}, "unknown key 'form'"),
            ({"surgery": [{"selector": "all", "from": "relu"}]}, "missing key 'to' in SurgeryStep"),
            ({"surgery": [{"selector": ["all"], "to": "hardswish"}]}, "malformed 'selector' in SurgeryStep"),
            ({"surgery": 5}, "malformed 'surgery' in ExperimentConfig"),
            ({"surgery": {"selector": "all"}}, "SurgeryStep must be a JSON object"),
            ({"hyperparams": [0.5]}, "Hyperparams must be a JSON object"),
        ],
    )
    def test_config_from_json_names_the_bad_key(self, edit, named):
        with pytest.raises(ConfigError, match=named):
            record_from_json(ExperimentConfig, {**record_to_json(tiny_config()), **edit})

    def test_every_record_round_trips_through_json_text(self):
        spec, _ = replace_activations(preset("mini-x3d"), MIDDLE, None, HS)
        steps = (
            SurgeryStep(selector=GroupSelector("site:stage1.block1.act_b"), from_kind=None, to_kind=HS),
            SurgeryStep(selector=GroupSelector("last"), from_kind=ActivationKind.RELU, to_kind=HS),
        )
        for value in [spec, tiny_config(surgery=steps), hand_built_report()]:
            assert record_from_json(type(value), json.loads(json.dumps(record_to_json(value)))) == value

    def test_report_json_round_trip(self):
        report = run_experiment(tiny_config())
        doc = record_to_json(report)
        assert record_from_json(ExperimentReport, doc) == report

    def test_emit_json_round_trip(self, tmp_path):
        report = run_experiment(tiny_config())
        path = tmp_path / "report.json"
        emit_report([report], path)
        docs = json.loads(path.read_text())
        assert len(docs) == 1
        assert record_from_json(ExperimentReport, docs[0]) == report

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
        emit_report([report], path)
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
        cfg_doc = record_to_json(cfg)
        assert list(cfg_doc) == ["preset", "label", "surgery", "dataset", "hyperparams", "seeds"]
        assert list(cfg_doc["dataset"]) == list(doc["dataset"])
        assert list(cfg_doc["hyperparams"]) == list(doc["hyperparams"])

    def test_emit_csv_one_row_per_seed(self, tmp_path):
        report = run_experiment(tiny_config(seeds=(1, 2)))
        path = tmp_path / "report.csv"
        emit_report([report], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header + 2 seeds
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["label"] == "tiny"
        assert float(row["test_accuracy"]) == report.runs[0].test_accuracy
        assert float(row["mean_accuracy"]) == report.mean_accuracy
        assert row["init_param_hash"] == report.runs[0].init_param_hash

    def test_emit_report_golden_bytes(self, tmp_path):
        """Exact JSON and CSV bytes: a quoted comma, an integer lr, and floats written as repr."""
        report = hand_built_report()
        emit_report([report], tmp_path / "r.json")
        emit_report([report], tmp_path / "r.csv")
        assert (tmp_path / "r.json").read_bytes() == (
            b'[\n  {\n    "label": "band:a,middle->hardswish",\n    "preset": "mini-x3d",\n'
            b'    "spec_fingerprint": "f00d",\n    "hyperparams": {\n      "lr": 1,\n'
            b'      "momentum": 0.30000000000000004,\n      "batch_size": 16,\n      "epochs": 3\n'
            b'    },\n    "dataset": {\n      "source": "synthetic-images",\n      "train_size": 40,\n'
            b'      "test_size": 20,\n      "data_dir": null,\n      "subset_seed": 0\n    },\n'
            b'    "runs": [\n      {\n        "seed": 3,\n        "test_accuracy": 0.3333333333333333,\n'
            b'        "train_seconds": 1e-20,\n        "init_param_hash": "aa11"\n      },\n      {\n'
            b'        "seed": 4,\n        "test_accuracy": 0.30000000000000004,\n'
            b'        "train_seconds": 2.5,\n        "init_param_hash": "bb22"\n      }\n    ],\n'
            b'    "mean_accuracy": 0.31666666666666665,\n    "mean_train_seconds": 1.25\n  }\n]\n'
        )
        assert (tmp_path / "r.csv").read_bytes() == (
            b"label,preset,lr,momentum,batch_size,epochs,seed,test_accuracy,train_seconds,"
            b"mean_accuracy,mean_train_seconds,spec_fingerprint,init_param_hash\n"
            b'"band:a,middle->hardswish",mini-x3d,1,0.30000000000000004,16,3,3,0.3333333333333333,'
            b"1e-20,0.31666666666666665,1.25,f00d,aa11\n"
            b'"band:a,middle->hardswish",mini-x3d,1,0.30000000000000004,16,3,4,0.30000000000000004,'
            b"2.5,0.31666666666666665,1.25,f00d,bb22\n"
        )

    def test_report_from_json_rejects_unknown_keys(self):
        doc = record_to_json(hand_built_report())
        assert record_from_json(ExperimentReport, doc) == hand_built_report()
        with pytest.raises(ConfigError, match="extra"):
            record_from_json(ExperimentReport, {**doc, "extra": 1})
        doc["runs"][0]["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            record_from_json(ExperimentReport, doc)

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda d: d["runs"][0].update(seed=1.5), "malformed 'seed' in SeedRun: expected an integer, got 1.5"),
            (
                lambda d: d["runs"][1].update(test_accuracy="x"),
                "malformed 'test_accuracy' in SeedRun: expected a finite number, got 'x'",
            ),
            (
                lambda d: d.update(mean_accuracy=[1]),
                "malformed 'mean_accuracy' in ExperimentReport: expected a finite number, got [1]",
            ),
        ],
        ids=["seed-float", "accuracy-string", "mean-list"],
    )
    def test_report_numbers_checked(self, edit, named):
        doc = record_to_json(hand_built_report())
        edit(doc)
        with pytest.raises(ConfigError, match=re.escape(named)):
            record_from_json(ExperimentReport, doc)

    def test_emit_empty_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            emit_report([], tmp_path / "r.json")

    def test_emit_format_follows_suffix(self, tmp_path):
        """A .csv suffix in any case writes CSV rows; any other suffix writes JSON."""
        report = hand_built_report()
        for name in ("r.csv", "r.CSV", "r.xml"):
            emit_report([report], tmp_path / name)
        assert (tmp_path / "r.CSV").read_bytes() == (tmp_path / "r.csv").read_bytes()
        assert (tmp_path / "r.CSV").read_text().startswith("label,preset,lr,")
        assert [record_from_json(ExperimentReport, d) for d in json.loads((tmp_path / "r.xml").read_text())] == [report]
