"""Model specification tests: presets, site listing, selector algebra,
activation surgery, JSON round-trips, and model construction/execution."""

import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import actkit
from actkit import modelspec

from actkit import (
    ALL,
    BAND_A,
    BAND_B,
    INITIAL,
    LAST,
    MIDDLE,
    ActivationKind,
    ConfigError,
    GroupSelector,
    ModelSpec,
    Rng,
    activate_batch,
    build_model,
    conv2d_forward,
    dense_forward,
    fingerprint,
    forward,
    gen_synthetic_images,
    global_avg_pool,
    list_sites,
    loss_and_gradients,
    preset,
    record_from_json,
    record_to_json,
    replace_activations,
    softmax_cross_entropy,
)

RELU = ActivationKind.RELU
SWISH = ActivationKind.SWISH
HS = ActivationKind.HARDSWISH


class TestPresets:
    """Topology and default kinds of the two presets."""

    def test_mini_resnet_sites(self):
        sites = list_sites(preset("mini-resnet"))
        assert len(sites) == 9  # 1 stem + 4 stages x 1 block x 2 bands
        assert all(s.kind is RELU for s in sites)

    def test_mini_x3d_bands(self):
        sites = list_sites(preset("mini-x3d"))
        act_b = [s for s in sites if s.band == BAND_B]
        act_a = [s for s in sites if s.band == BAND_A]
        assert len(act_b) == 4 and all(s.kind is SWISH for s in act_b)
        assert len(act_a) == 4 and all(s.kind is RELU for s in act_a)

    def test_mini_x3d_stem_is_relu(self):
        sites = list_sites(preset("mini-x3d"))
        stem = [s for s in sites if s.site_id == "stem.act"]
        assert len(stem) == 1
        assert stem[0].kind is RELU
        assert stem[0].band is None and stem[0].stage is None

    def test_site_id_forms(self):
        ids = [s.site_id for s in list_sites(preset("mini-resnet"))]
        assert ids[0] == "stem.act"
        assert "stage1.block1.act_a" in ids
        assert "stage4.block1.act_b" in ids

    def test_channels_and_strides(self):
        spec = preset("mini-resnet")
        blocks = [stage[0] for stage in spec.stages]
        assert [b.channels for b in blocks] == [8, 16, 32, 32]
        assert [b.stride for b in blocks] == [1, 2, 2, 2]

    def test_full_scale_block_counts(self):
        spec = preset("mini-x3d", blocks_per_stage=(3, 5, 11, 7))
        sites = list_sites(spec)
        assert len(sites) == 1 + 2 * (3 + 5 + 11 + 7)
        assert [s.stage for s in sites[1:]] == [k for k, n in enumerate((3, 5, 11, 7), 1) for _ in range(2 * n)]
        # stride lives on the first block of each stage only
        for stage in spec.stages[1:]:
            assert stage[0].stride == 2
            assert all(b.stride == 1 for b in stage[1:])

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            preset("resnet50")

    @pytest.mark.parametrize("blocks", [(1.5, 1, 1, 1), (True, 1, 1, 1)])
    def test_block_counts_must_be_positive_integers(self, blocks):
        with pytest.raises(ConfigError, match="blocks_per_stage must be 4 positive integers"):
            preset("mini-x3d", blocks)

    def test_site_order_stable(self):
        spec = preset("mini-x3d", blocks_per_stage=(2, 1, 1, 1))
        ids_a = [s.site_id for s in list_sites(spec)]
        ids_b = [s.site_id for s in list_sites(spec)]
        assert ids_a == ids_b
        assert ids_a[:5] == [
            "stem.act",
            "stage1.block1.act_a",
            "stage1.block1.act_b",
            "stage1.block2.act_a",
            "stage1.block2.act_b",
        ]


class TestSelectors:
    """String forms, matching scope, and the partition property."""

    def test_string_round_trip(self):
        for sel in (INITIAL, MIDDLE, LAST, ALL, GroupSelector("band:a"), GroupSelector("site:stem.act")):
            assert GroupSelector(sel.text) == sel

    @pytest.mark.parametrize(
        "text, canonical, selector",
        [
            ("initial", "initial", INITIAL),
            ("Initial", "initial", INITIAL),
            ("  MIDDLE\t", "middle", MIDDLE),
            ("last ", "last", LAST),
            ("ALL", "all", ALL),
            ("band:a", "band:a", GroupSelector("band:a")),
            ("band: a", "band:a", GroupSelector("band:a")),
            (" Band:A ", "band:a", GroupSelector("band:a")),
            ("BAND:B", "band:b", GroupSelector("band:b")),
            ("band:b", "band:b", GroupSelector("band:B")),
            ("site:stem.act", "site:stem.act", GroupSelector("site:stem.act")),
            ("Site:stage1.block1.act_a", "site:stage1.block1.act_a", GroupSelector("site:stage1.block1.act_a")),
            (" SITE: Stage1.Block1.ACT_A ", "site:Stage1.Block1.ACT_A", GroupSelector("site:Stage1.Block1.ACT_A")),
        ],
    )
    def test_from_string_canonical_form(self, text, canonical, selector):
        """Every accepted spelling parses to one selector, whose text is the canonical form."""
        sel = GroupSelector.from_string(text)
        assert sel.text == canonical
        assert sel == selector == GroupSelector.from_string(canonical)

    def test_unknown_string_rejected(self):
        for text in ("everything", "band", "band:c", "site:", "band :a", "initial:", "", "middle,last"):
            with pytest.raises(ConfigError):
                GroupSelector.from_string(text)

    def _changed_ids(self, spec, selector):
        new, _ = replace_activations(spec, selector, None, HS)
        before = {s.site_id: s.kind for s in list_sites(spec)}
        return {s.site_id for s in list_sites(new) if s.kind is not before[s.site_id]}

    def test_partition_of_sites(self):
        """Initial/Middle/Last are pairwise disjoint; adding stage-1 sites gives All."""
        spec = preset("mini-resnet", blocks_per_stage=(2, 2, 2, 2))
        initial = self._changed_ids(spec, INITIAL)
        middle = self._changed_ids(spec, MIDDLE)
        last = self._changed_ids(spec, LAST)
        assert initial == {"stem.act"}
        assert initial.isdisjoint(middle) and initial.isdisjoint(last) and middle.isdisjoint(last)
        stage1 = {s.site_id for s in list_sites(spec) if s.site_id.startswith("stage1.")}
        assert initial | middle | last | stage1 == self._changed_ids(spec, ALL)

    def test_middle_spans_stages_two_and_three(self):
        spec = preset("mini-resnet")
        changed = self._changed_ids(spec, MIDDLE)
        assert changed == {
            "stage2.block1.act_a",
            "stage2.block1.act_b",
            "stage3.block1.act_a",
            "stage3.block1.act_b",
        }

    def test_band_selector_scope(self):
        spec = preset("mini-resnet")
        changed = self._changed_ids(spec, GroupSelector("band:a"))
        assert changed == {f"stage{k}.block1.act_a" for k in (1, 2, 3, 4)}

    def test_site_selector_scope(self):
        spec = preset("mini-resnet")
        assert self._changed_ids(spec, GroupSelector("site:stage3.block1.act_b")) == {
            "stage3.block1.act_b"
        }


class TestSurgery:
    """replace_activations: counts, locality, idempotence, filtering."""

    def test_initial_changes_one_site(self):
        new, count = replace_activations(preset("mini-resnet"), INITIAL, RELU, HS)
        assert count == 1
        assert list_sites(new)[0].kind is HS

    def test_middle_band_a_via_from_kind(self):
        """On mini-x3d, Middle + from_kind=relu touches exactly the act_a sites of
        stages 2-3 because every act_b there is swish."""
        new, count = replace_activations(preset("mini-x3d"), MIDDLE, RELU, HS)
        assert count == 2
        kinds = {s.site_id: s.kind for s in list_sites(new)}
        assert kinds["stage2.block1.act_a"] is HS
        assert kinds["stage3.block1.act_a"] is HS
        assert kinds["stage2.block1.act_b"] is SWISH
        assert kinds["stage3.block1.act_b"] is SWISH

    def test_identity_surgery_counts_matches(self):
        spec = preset("mini-x3d")
        new, count = replace_activations(spec, ALL, SWISH, SWISH)
        assert new == spec
        assert count == 4  # the four act_b swish sites

    def test_from_kind_none_matches_any(self):
        _, count = replace_activations(preset("mini-x3d"), ALL, None, HS)
        assert count == 9

    def test_locality(self):
        """Only matched sites change; channels, strides, and other kinds survive."""
        spec = preset("mini-x3d")
        new, _ = replace_activations(spec, LAST, None, HS)
        assert new.preset_name == spec.preset_name
        assert new.stem_act is spec.stem_act
        for k, (old_stage, new_stage) in enumerate(zip(spec.stages, new.stages)):
            for old_blk, new_blk in zip(old_stage, new_stage):
                assert new_blk.channels == old_blk.channels
                assert new_blk.stride == old_blk.stride
                if k == 3:
                    assert new_blk.act_a is HS and new_blk.act_b is HS
                else:
                    assert new_blk.act_a is old_blk.act_a
                    assert new_blk.act_b is old_blk.act_b

    def test_original_spec_unchanged(self):
        spec = preset("mini-resnet")
        before = record_to_json(spec)
        replace_activations(spec, ALL, None, HS)
        assert record_to_json(spec) == before

    def test_idempotence(self):
        spec = preset("mini-resnet")
        once, _ = replace_activations(spec, MIDDLE, None, HS)
        twice, _ = replace_activations(once, MIDDLE, None, HS)
        assert once == twice

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError):
            replace_activations(preset("mini-resnet"), GroupSelector("site:stage9.block1.act_a"), None, HS)


class TestSerialization:
    """JSON documents round-trip bit-exactly; fingerprints track spec identity."""

    def test_round_trip_exact(self):
        for name in ("mini-resnet", "mini-x3d"):
            spec = preset(name, blocks_per_stage=(2, 1, 3, 1))
            doc = record_to_json(spec)
            assert record_from_json(ModelSpec, doc) == spec
            assert record_to_json(record_from_json(ModelSpec, doc)) == doc

    def test_round_trip_after_surgery(self):
        spec, _ = replace_activations(preset("mini-x3d"), MIDDLE, RELU, HS)
        assert record_from_json(ModelSpec, record_to_json(spec)) == spec

    def test_kinds_serialize_as_lowercase_strings(self):
        doc = record_to_json(preset("mini-x3d"))
        assert doc["stem_act"] == "relu"
        assert doc["stages"][0][0]["act_b"] == "swish"

    def test_document_golden_bytes(self):
        """The spec document's exact text and its fingerprint: a format change is deliberate."""
        spec = preset("mini-x3d")
        assert json.dumps(record_to_json(spec)) == (
            '{"preset": "mini-x3d", "stem_act": "relu", "stages": ['
            '[{"channels": 8, "stride": 1, "act_a": "relu", "act_b": "swish"}], '
            '[{"channels": 16, "stride": 2, "act_a": "relu", "act_b": "swish"}], '
            '[{"channels": 32, "stride": 2, "act_a": "relu", "act_b": "swish"}], '
            '[{"channels": 32, "stride": 2, "act_a": "relu", "act_b": "swish"}]], '
            '"num_classes": 10}'
        )
        assert fingerprint(spec) == "bbef56c107cbbf5bed8d48400e307fce98c597b8655566a07a4e550415c73fdb"

    def test_fingerprint_stable_and_sensitive(self):
        a = fingerprint(preset("mini-resnet"))
        assert a == fingerprint(preset("mini-resnet"))
        surgered, _ = replace_activations(preset("mini-resnet"), INITIAL, None, HS)
        assert fingerprint(surgered) != a
        assert fingerprint(preset("mini-x3d")) != a

    def test_malformed_document_rejected(self):
        with pytest.raises(ConfigError):
            record_from_json(ModelSpec, {"preset": "x"})
        doc = record_to_json(preset("mini-resnet"))
        del doc["stages"][0][0]["act_a"]
        with pytest.raises(ConfigError):
            record_from_json(ModelSpec, doc)
        # numbers are checked, not coerced (8.9 channels used to load as 8); text is text;
        # a misspelt key is named, never skipped
        for edit, named in [
            (lambda d: d["stages"][0][0].update(channels=8.9), "malformed 'channels' in BlockSpec: expected an integer, got 8.9"),
            (lambda d: d["stages"][1][0].update(stride="2"), "malformed 'stride' in BlockSpec: expected an integer, got '2'"),
            (lambda d: d.update(num_classes=10.7), "got 10.7"),
            (lambda d: d.update(preset=5), "malformed 'preset' in ModelSpec: expected a string, got 5"),
            (lambda d: d.update(clases=10), "unknown key 'clases' in ModelSpec"),
            (lambda d: d["stages"][2][0].update(chanels=32), "unknown key 'chanels' in BlockSpec"),
        ]:
            doc = record_to_json(preset("mini-resnet"))
            edit(doc)
            with pytest.raises(ConfigError, match=re.escape(named)):
                record_from_json(ModelSpec, doc)

    def test_wrong_stage_count_rejected(self):
        doc = record_to_json(preset("mini-resnet"))
        doc["stages"] = doc["stages"][:3]
        with pytest.raises(ConfigError):
            record_from_json(ModelSpec, doc)


class TestBuildModel:
    """Parameter allocation: shapes, determinism, kind independence."""

    def test_same_seed_same_weights(self):
        a = build_model(preset("mini-resnet"), Rng(3))
        b = build_model(preset("mini-resnet"), Rng(3))
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_weights_independent_of_activation_kinds(self):
        base = build_model(preset("mini-resnet"), Rng(3))
        surgered_spec, _ = replace_activations(preset("mini-resnet"), ALL, None, HS)
        surgered = build_model(surgered_spec, Rng(3))
        assert list(base.params.keys()) == list(surgered.params.keys())
        for k in base.params:
            assert np.array_equal(base.params[k], surgered.params[k])
        x3d = build_model(preset("mini-x3d"), Rng(3))
        for k in base.params:
            assert np.array_equal(base.params[k], x3d.params[k])

    def test_projection_present_only_on_shape_change(self):
        model = build_model(preset("mini-resnet"), Rng(0))
        names = set(model.params)
        assert "stage1.block1.proj.w" not in names  # 8 -> 8, stride 1
        for k in (2, 3, 4):  # channel and/or stride changes
            assert f"stage{k}.block1.proj.w" in names

    def test_parameter_shapes(self):
        model = build_model(preset("mini-resnet"), Rng(0))
        p = model.params
        assert p["stem.w"].shape == (8, 3, 3, 3)
        assert p["stage2.block1.conv1.w"].shape == (16, 8, 3, 3)
        assert p["stage2.block1.proj.w"].shape == (16, 8, 1, 1)
        assert p["head.w"].shape == (32, 10)
        assert p["head.b"].shape == (10,)

    def test_biases_start_at_zero(self):
        model = build_model(preset("mini-x3d"), Rng(5))
        for name, value in model.params.items():
            if name.endswith(".b"):
                assert np.all(value == 0.0)


class TestForward:
    """Execution semantics: shapes, purity, and a hand-composed oracle."""

    def test_logit_shape_and_finiteness(self):
        model = build_model(preset("mini-resnet"), Rng(1))
        batch = np.zeros((2, 3, 32, 32), dtype=np.float32)
        logits = forward(model, batch)
        assert logits.shape == (2, 10)
        assert np.all(np.isfinite(logits))

    def test_purity(self):
        model = build_model(preset("mini-x3d"), Rng(2))
        rs = np.random.RandomState(71)
        batch = rs.uniform(0, 1, (3, 3, 32, 32)).astype(np.float32)
        before = {k: v.copy() for k, v in model.params.items()}
        first = forward(model, batch)
        second = forward(model, batch)
        assert np.array_equal(first, second)
        for k in before:
            assert np.array_equal(model.params[k], before[k])

    def test_all_relu_surgery_is_identity_on_mini_resnet(self):
        spec = preset("mini-resnet")
        same, _ = replace_activations(spec, ALL, None, RELU)
        rs = np.random.RandomState(73)
        batch = rs.uniform(0, 1, (2, 3, 32, 32)).astype(np.float32)
        assert np.array_equal(
            forward(build_model(spec, Rng(4)), batch), forward(build_model(same, Rng(4)), batch)
        )

    def test_shapes_invariant_under_surgery(self):
        rs = np.random.RandomState(79)
        batch = rs.uniform(0, 1, (2, 3, 32, 32)).astype(np.float32)
        for sel in (INITIAL, MIDDLE, LAST, ALL):
            spec, _ = replace_activations(preset("mini-x3d"), sel, None, HS)
            assert forward(build_model(spec, Rng(6)), batch).shape == (2, 10)

    def test_matches_hand_composed_pipeline(self):
        """Independently chain the layer ops for the default mini-resnet."""
        spec = preset("mini-resnet")
        model = build_model(spec, Rng(9))
        p = model.params
        rs = np.random.RandomState(83)
        batch = rs.uniform(0, 1, (2, 3, 32, 32)).astype(np.float32)

        cur = activate_batch(RELU, conv2d_forward(batch, p["stem.w"], p["stem.b"], stride=1))
        for k, stride in ((1, 1), (2, 2), (3, 2), (4, 2)):
            prefix = f"stage{k}.block1"
            z1 = conv2d_forward(cur, p[f"{prefix}.conv1.w"], p[f"{prefix}.conv1.b"], stride)
            a1 = activate_batch(RELU, z1)
            z2 = conv2d_forward(a1, p[f"{prefix}.conv2.w"], p[f"{prefix}.conv2.b"], 1)
            if f"{prefix}.proj.w" in p:
                skip = conv2d_forward(cur, p[f"{prefix}.proj.w"], p[f"{prefix}.proj.b"], stride)
            else:
                skip = cur
            cur = activate_batch(RELU, z2 + skip)
        want = dense_forward(global_avg_pool(cur), p["head.w"], p["head.b"])

        got = forward(model, batch)
        assert np.max(np.abs(got.astype(np.float64) - want.astype(np.float64))) < 1e-5


    @pytest.mark.parametrize(
        "param, site, kind",
        [
            ("stem.w", "stem.act", "relu"),
            ("stage2.block1.conv1.w", "stage2.block1.act_a", "relu"),
            ("stage3.block1.conv2.w", "stage3.block1.act_b", "swish"),
        ],
    )
    def test_non_finite_pre_activation_names_its_site(self, param, site, kind):
        model = build_model(preset("mini-x3d"), Rng(2))
        model.params[param][0, 0, 0, 0] = np.inf
        batch = np.random.RandomState(89).uniform(0, 1, (2, 3, 32, 32)).astype(np.float32)
        pattern = re.escape(f"{site}: {kind} batch (2, ") + r"\d+, \d+, \d+\) has \d+ non-finite elements, first \S+ at flat index \d+$"
        with np.errstate(invalid="ignore"):  # inf * 0 in the convs is the point
            with pytest.raises(actkit.DomainError, match="^" + pattern):
                forward(model, batch)
            with pytest.raises(actkit.DomainError, match="^" + pattern):
                loss_and_gradients(model, batch, np.array([0, 1]))


def _one_pass(model, batch):
    """Logits of the whole batch in one pass on the calling thread, with no chunks."""
    return modelspec._forward_internal(model, batch, record=False)[0]


class TestChunkedForward:
    """forward runs n >= 64 images as n // 32 chunks on a thread pool: the same bits as
    one whole-batch pass for any worker count, the caller's numpy error state in every
    chunk, the whole batch's error message, and OpenBLAS's thread count restored."""

    @pytest.fixture(scope="class")
    def model(self):
        return build_model(preset("mini-x3d"), Rng(11))

    @pytest.fixture(scope="class")
    def images(self):
        return gen_synthetic_images(257, seed=12).images

    @pytest.mark.parametrize("n", [31, 32, 63, 64, 65, 256, 257])
    def test_bit_equal_for_any_worker_count(self, model, images, n, monkeypatch):
        batch = images[:n]
        want = _one_pass(model, batch).tobytes()
        assert forward(model, batch).tobytes() == want  # one worker per core
        for cores in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: set(range(cores)))
            assert forward(model, batch).tobytes() == want

    def test_pool_threads_end_with_the_call(self, model, images):
        forward(model, images[:96])
        assert not [t.name for t in threading.enumerate() if t.name.startswith("actkit-forward")]

    def test_chunks_get_the_callers_error_state(self, model, images, monkeypatch):
        seen = []

        def spy(kind, z):
            seen.append(np.geterr()["over"])
            return activate_batch(kind, z)

        monkeypatch.setattr(modelspec, "activate_batch", spy)
        with np.errstate(over="raise"):
            forward(model, images[:96])
        assert len(seen) == 3 * 9 and set(seen) == {"raise"}

    @pytest.mark.parametrize("bad", [(40,), (10, 70)], ids=["later-chunk", "two-chunks"])
    def test_error_names_the_whole_batch(self, model, images, bad):
        batch = images[:96].copy()
        for i in bad:
            batch[i, 0, 1, 2] = np.inf
        with np.errstate(invalid="ignore"):  # inf * 0 in the stem conv
            with pytest.raises(actkit.DomainError) as whole:
                _one_pass(model, batch)
            with pytest.raises(actkit.DomainError) as chunked:
                forward(model, batch)
        assert str(chunked.value) == str(whole.value)
        index = int(re.search(r"flat index (\d+)$", str(whole.value)).group(1))
        assert str(whole.value).startswith("stem.act: relu batch (96, 8, 32, 32) has ")
        assert index // (8 * 32 * 32) == bad[0]

    def test_openblas_thread_count_restored(self, model, images, monkeypatch):
        blas = modelspec._openblas_threads()
        if blas is None:
            pytest.skip("numpy's OpenBLAS exports no known thread-count functions here")
        get, put = blas
        before = get()
        during = []

        def spy(kind, z):
            during.append(get())
            return activate_batch(kind, z)

        monkeypatch.setattr(modelspec, "activate_batch", spy)
        try:
            put(2)
            forward(model, images[:96])
            assert get() == 2 and set(during) == {1}
            bad = images[:96].copy()
            bad[50, 0, 0, 0] = np.nan
            with pytest.raises(actkit.DomainError):
                forward(model, bad)
            assert get() == 2
        finally:
            put(before)

    def test_concurrent_and_nested_callers_run_serially(self, model, images):
        batch = images[:96]
        want = _one_pass(model, batch).tobytes()
        with modelspec._pool_lock:  # as if another forward held the pool
            assert forward(model, batch).tobytes() == want
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as callers:
                got = list(callers.map(lambda _: forward(model, batch).tobytes(), range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 8

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_starts_its_own_pool(self, model, images):
        batch = images[:96]
        want = forward(model, batch).tobytes()  # the parent's pool now exists
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: send.send_bytes(forward(model, batch).tobytes()))
        child.start()
        try:
            assert recv.poll(60), "the forked child's forward did not finish"
            assert recv.recv_bytes() == want
        finally:
            child.join(30)
            if child.is_alive():
                child.kill()
        assert not child.is_alive() and child.exitcode == 0


class TestLossAndGradients:
    """End-to-end gradients cover every parameter and drive the loss down."""

    def test_gradient_keys_match_parameters(self):
        model = build_model(preset("mini-x3d"), Rng(8))
        rs = np.random.RandomState(89)
        batch = rs.uniform(0, 1, (4, 3, 32, 32)).astype(np.float32)
        labels = rs.randint(0, 10, 4).astype(np.int64)
        loss, grads = loss_and_gradients(model, batch, labels)
        assert np.isfinite(loss)
        assert list(grads.keys()) == list(model.params.keys())
        for k, g in grads.items():
            assert g.shape == model.params[k].shape
            assert np.all(np.isfinite(g))

    def test_loss_matches_forward_composition(self):
        model = build_model(preset("mini-resnet"), Rng(10))
        rs = np.random.RandomState(97)
        batch = rs.uniform(0, 1, (4, 3, 32, 32)).astype(np.float32)
        labels = rs.randint(0, 10, 4).astype(np.int64)
        loss, _ = loss_and_gradients(model, batch, labels)
        want, _ = softmax_cross_entropy(forward(model, batch), labels)
        assert loss == want

    def test_gradient_step_reduces_loss(self):
        model = build_model(preset("mini-resnet"), Rng(12))
        rs = np.random.RandomState(101)
        batch = rs.uniform(0, 1, (8, 3, 32, 32)).astype(np.float32)
        labels = rs.randint(0, 10, 8).astype(np.int64)
        loss0, grads = loss_and_gradients(model, batch, labels)
        for name, g in grads.items():
            model.params[name] = model.params[name] - np.float32(0.05) * g
        loss1, _ = loss_and_gradients(model, batch, labels)
        assert loss1 < loss0


_DIGEST_SCRIPT = """
import hashlib
from actkit import Rng, build_model, forward, gen_synthetic_images, loss_and_gradients, preset
model = build_model(preset("mini-x3d"), Rng(7))
data = gen_synthetic_images(32, seed=5)
digest = hashlib.sha256(forward(model, data.images).tobytes())
digest.update(forward(model, gen_synthetic_images(96, seed=6).images).tobytes())  # three chunks
loss, grads = loss_and_gradients(model, data.images, data.labels)
digest.update(repr(loss).encode())
for name, g in grads.items():
    digest.update(name.encode() + g.tobytes())
print(digest.hexdigest())
"""


def test_results_identical_across_blas_thread_counts():
    """Batch 32 makes the stage-1 GEMMs large enough for OpenBLAS to split them
    across threads; logits, loss and every gradient must not change bitwise."""
    src = str(Path(actkit.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": pythonpath}
        run = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT], env=env, capture_output=True, text=True, timeout=300
        )
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
