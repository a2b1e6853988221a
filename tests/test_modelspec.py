"""Model specification tests: presets, site listing, selector algebra,
activation surgery, JSON round-trips, and model construction/execution."""

import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

import actkit
from actkit import chunks, kernels, modelspec

from actkit import (
    BAND_A,
    BAND_B,
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
        for sel in (GroupSelector("initial"), MIDDLE, GroupSelector("last"), GroupSelector("all"), GroupSelector("band:a"), GroupSelector("site:stem.act")):
            assert GroupSelector(sel.text) == sel

    @pytest.mark.parametrize(
        "text, canonical, selector",
        [
            ("initial", "initial", GroupSelector("initial")),
            ("Initial", "initial", GroupSelector("initial")),
            ("  MIDDLE\t", "middle", MIDDLE),
            ("last ", "last", GroupSelector("last")),
            ("ALL", "all", GroupSelector("all")),
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
        initial = self._changed_ids(spec, GroupSelector("initial"))
        middle = self._changed_ids(spec, MIDDLE)
        last = self._changed_ids(spec, GroupSelector("last"))
        assert initial == {"stem.act"}
        assert initial.isdisjoint(middle) and initial.isdisjoint(last) and middle.isdisjoint(last)
        stage1 = {s.site_id for s in list_sites(spec) if s.site_id.startswith("stage1.")}
        assert initial | middle | last | stage1 == self._changed_ids(spec, GroupSelector("all"))

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
        new, count = replace_activations(preset("mini-resnet"), GroupSelector("initial"), RELU, HS)
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
        new, count = replace_activations(spec, GroupSelector("all"), SWISH, SWISH)
        assert new == spec
        assert count == 4  # the four act_b swish sites

    def test_from_kind_none_matches_any(self):
        _, count = replace_activations(preset("mini-x3d"), GroupSelector("all"), None, HS)
        assert count == 9

    def test_locality(self):
        """Only matched sites change; channels, strides, and other kinds survive."""
        spec = preset("mini-x3d")
        new, _ = replace_activations(spec, GroupSelector("last"), None, HS)
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
        replace_activations(spec, GroupSelector("all"), None, HS)
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
        surgered, _ = replace_activations(preset("mini-resnet"), GroupSelector("initial"), None, HS)
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
            (lambda d: d["stages"][0][0].update(channels=0), "malformed 'channels' in BlockSpec: expected an integer >= 1, got 0"),
            (lambda d: d.update(num_classes=1), "malformed 'num_classes' in ModelSpec: expected an integer >= 2, got 1"),
            (lambda d: d["stages"][1].clear(), "stage 2 has no blocks"),
            (lambda d: d["stages"][3][0].update(channels=16), "channel counts must be non-decreasing across blocks"),
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
        surgered_spec, _ = replace_activations(preset("mini-resnet"), GroupSelector("all"), None, HS)
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
        same, _ = replace_activations(spec, GroupSelector("all"), None, RELU)
        rs = np.random.RandomState(73)
        batch = rs.uniform(0, 1, (2, 3, 32, 32)).astype(np.float32)
        assert np.array_equal(
            forward(build_model(spec, Rng(4)), batch), forward(build_model(same, Rng(4)), batch)
        )

    def test_shapes_invariant_under_surgery(self):
        rs = np.random.RandomState(79)
        batch = rs.uniform(0, 1, (2, 3, 32, 32)).astype(np.float32)
        for sel in (GroupSelector("initial"), MIDDLE, GroupSelector("last"), GroupSelector("all")):
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


    def test_pool_overflow_names_the_pool(self):
        """A bias of 3e37 before the last ReLU leaves every site's input finite, but the pool's
        float32 sum overflows. Both passes raise a DomainError naming the pool, under the suite's
        warning filter, rather than numpy's RuntimeWarning or NaN results."""
        model = build_model(preset("mini-x3d"), Rng(1))
        model.params["stage4.block1.conv2.b"][:] = 3e37
        data = gen_synthetic_images(4, seed=2)
        message = r"^pool: features \(4, 32\) has 128 non-finite elements, first inf at flat index 0$"
        with pytest.raises(actkit.DomainError, match=message):
            forward(model, data.images)
        with pytest.raises(actkit.DomainError, match=message):
            loss_and_gradients(model, data.images, data.labels)

    def test_non_finite_gradient_names_its_parameter(self):
        """Inputs of 1e36 through a stem scaled by 1e-36 give finite activations and logits, but
        a head scaled by 1e4 makes the stem's weight gradient, a sum over those inputs, overflow."""
        model = build_model(preset("mini-x3d"), Rng(1))
        model.params["stem.w"] *= np.float32(1e-36)
        model.params["head.w"] *= np.float32(1e4)
        data = gen_synthetic_images(4, seed=2)
        batch = data.images * np.float32(1e36)
        assert np.isfinite(forward(model, batch)).all()
        with pytest.raises(actkit.DomainError, match=r"^gradient of stem\.w \(8, 3, 3, 3\) has \d+ non-finite elements"):
            loss_and_gradients(model, batch, data.labels)


def _one_pass(model, batch):
    """Logits of the whole batch in one pass on the calling thread, with no chunks."""
    return modelspec._forward_internal(model, batch, record=False)[0]


class TestChunkedForward:
    """forward runs n >= 32 images as n // 16 chunks, on the caller's thread and the kept
    helper threads, one per other core, or on the caller's thread alone: the same bits as one
    whole-batch pass for any worker count, forward's numpy error state in every chunk, the
    failing chunk's images in front of its error, no chunk started after a failure, memory
    bounded by a few chunks, and OpenBLAS held at one thread in every call and then restored."""

    @pytest.fixture(scope="class")
    def model(self):
        return build_model(preset("mini-x3d"), Rng(11))

    @pytest.fixture(scope="class")
    def images(self):
        return gen_synthetic_images(257, seed=12).images

    @pytest.mark.parametrize("n", [15, 16, 31, 32, 33, 256, 257])
    def test_bit_equal_for_any_worker_count(self, model, images, n, monkeypatch):
        batch = images[:n]
        want = _one_pass(model, batch).tobytes()
        assert forward(model, batch).tobytes() == want  # one worker per core
        for cores in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: set(range(cores)))
            assert forward(model, batch).tobytes() == want

    def test_a_second_call_reuses_the_pool_and_its_thread(self, model, images, pool_spy, monkeypatch):
        """The caller's first chunk of each call waits until a helper has run a chunk, so both
        calls run chunks on a helper: the same one, of the one pool the first call made."""
        caller, helpers = threading.current_thread(), []
        helped = threading.Event()

        def spy(kind, z):
            if threading.current_thread() is caller:
                assert helped.wait(60), "no helper thread ran a chunk"
            else:
                helpers.append(threading.current_thread())
                helped.set()
            return activate_batch(kind, z)

        want = _one_pass(model, images[:96]).tobytes()
        monkeypatch.setattr(modelspec, "activate_batch", spy)
        for _ in range(2):
            helped.clear()
            assert forward(model, images[:96]).tobytes() == want
        assert len(pool_spy.pools) == 1 and len(pool_spy.submits) == 2
        assert len(set(helpers)) == 1 and set(helpers) == set(pool_spy.pools[0]._threads)

    def test_chunks_get_the_callers_error_state(self, model, images, monkeypatch):
        """forward turns numpy's overflow and invalid warnings off for its chunks, which name a
        value that leaves float32 themselves; the rest of the caller's error state holds in
        every chunk, on every thread."""
        seen = []

        def spy(kind, z):
            seen.append((np.geterr()["over"], np.geterr()["invalid"], np.geterr()["divide"]))
            return activate_batch(kind, z)

        monkeypatch.setattr(modelspec, "activate_batch", spy)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            forward(model, images[:96])
        assert len(seen) == 6 * 9 and set(seen) == {("ignore", "ignore", "raise")}

    @pytest.mark.parametrize("bad, lo", [((40,), 32), ((10, 70), 0)], ids=["later-chunk", "two-chunks"])
    def test_error_names_its_chunk(self, model, images, bad, lo):
        batch = images[:96].copy()
        for i in bad:
            batch[i, 0, 1, 2] = np.inf
        with np.errstate(invalid="ignore"):  # inf * 0 in the stem conv
            with pytest.raises(actkit.DomainError) as one:
                _one_pass(model, batch[lo : lo + 16])
        with pytest.raises(actkit.DomainError) as chunked:
            forward(model, batch)
        assert str(chunked.value) == f"images {lo}-{lo + 15} of 96: {one.value}"
        index = int(re.search(r"flat index (\d+)$", str(one.value)).group(1))
        assert str(one.value).startswith("stem.act: relu batch (16, 8, 32, 32) has ")
        assert lo + index // (8 * 32 * 32) == bad[0]

    def test_stops_after_the_first_failing_chunk(self, model, monkeypatch):
        """An inf in image 0 of 512 fails chunk 0 at its first activation. No chunk starts after
        that, so each of the two threads finishes at most the one chunk (9 sites) it holds. The
        other thread's sites wait for that failure, so a kept helper that is quicker off the
        mark than the caller cannot finish chunks before chunk 0 has begun."""
        batch = gen_synthetic_images(512, seed=13).images
        batch[0, 0, 1, 2] = np.inf
        calls, failing = [], threading.Event()

        def spy(kind, z):
            calls.append(kind)
            if np.isfinite(z).all():
                assert failing.wait(60), "chunk 0 did not reach its first site"
            else:
                failing.set()
            return activate_batch(kind, z)

        with np.errstate(invalid="ignore"):  # inf * 0 in the stem conv
            with pytest.raises(actkit.DomainError) as one:
                _one_pass(model, batch[:16])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(modelspec, "activate_batch", spy)
        with pytest.raises(actkit.DomainError) as chunked:
            forward(model, batch)
        assert str(chunked.value) == f"images 0-15 of 512: {one.value}"
        assert 1 <= len(calls) <= 9 * 2

    def test_lowest_failing_chunk_wins_when_a_later_one_fails_first(self, monkeypatch):
        if chunks._openblas_threads() is None:
            pytest.skip("without OpenBLAS thread controls the caller runs the chunks in order")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        later_failed = threading.Event()
        first = actkit.DomainError("first")

        def fn(lo, hi):
            if lo == 0:  # runs on one thread until the other thread's chunk has raised
                assert later_failed.wait(60)
                raise first
            later_failed.set()
            raise actkit.DomainError("second")

        with pytest.raises(actkit.DomainError) as got:
            chunks._run_chunks(fn, [(0, 16), (16, 32)])
        assert got.value is first  # as it is: forward and loss_and_gradients name the images

    def test_a_forked_child_or_a_new_core_count_gets_a_fresh_pool(self, pool_spy, monkeypatch):
        """The kept pool is rebuilt when the pid or the core count changes, and only then: a
        forked child has none of its parent's threads, and a new affinity needs another count."""
        def run(n):
            return chunks._run_chunks(lambda lo, hi: threading.current_thread(), [(j, j + 1) for j in range(n)])

        run(4)
        run(4)
        assert [p._max_workers for p in pool_spy.pools] == [1]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        run(4)
        run(4)
        assert [p._max_workers for p in pool_spy.pools] == [1, 2]
        pid = os.getpid()
        monkeypatch.setattr(os, "getpid", lambda: pid + 1)  # as in a forked child
        run(4)
        assert [p._max_workers for p in pool_spy.pools] == [1, 2, 2]
        assert pool_spy.pools[0]._shutdown and not pool_spy.pools[1]._shutdown  # the child cannot end it

    def test_no_pool_for_a_kernel_call_inside_a_chunk(self, model, images, pool_spy, monkeypatch):
        """With one-block spans every activation in a 16-image chunk is a large kernel call.
        Inside a chunk it runs its spans on the chunk's thread: the forward hands the one pool
        its one helper's work loop, and nothing else. On the busy pool, the caller's spans
        would wait behind the other chunks."""
        batch = images[:96]
        want = _one_pass(model, batch).tobytes()
        monkeypatch.setattr(kernels, "_SPAN_BLOCKS", 1)
        assert forward(model, batch).tobytes() == want
        assert len(pool_spy.pools) == 1 and len(pool_spy.submits) == 1

    def test_one_chunk_runs_inline(self, model, images, pool_spy, monkeypatch):
        """forward and loss_and_gradients under 32 images are one chunk each: run on the
        caller's thread, with no pool and no submit, though two cores are free."""
        threads = []

        def spy(kind, z):
            threads.append(threading.current_thread())
            return activate_batch(kind, z)

        monkeypatch.setattr(modelspec, "activate_batch", spy)
        forward(model, images[:31])
        loss_and_gradients(model, images[:31], np.arange(31) % 10)
        assert pool_spy.pools == [] and pool_spy.submits == []
        assert len(threads) == 2 * 9 and set(threads) == {threading.current_thread()}

    def test_nested_run_chunks_runs_on_its_chunks_thread(self, monkeypatch):
        """Each of two outer chunks, one per thread, runs three inner chunks and then waits for
        the other's to finish: an inner call that waited for the busy pool never would."""
        if chunks._openblas_threads() is None:
            pytest.skip("without OpenBLAS thread controls the caller runs the chunks in order")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        done = [threading.Event(), threading.Event()]

        def outer(lo, hi):
            inner = chunks._run_chunks(lambda a, b: threading.current_thread(), [(0, 1), (1, 2), (2, 3)])
            done[lo].set()
            assert done[1 - lo].wait(30), "the other chunk's inner call did not finish"
            return threading.current_thread(), inner

        runs = chunks._run_chunks(outer, [(0, 1), (1, 2)])
        assert runs[0][0] is not runs[1][0]
        for thread, inner in runs:
            assert inner == [thread] * 3

    def test_shape_error_names_its_chunk(self, model):
        with pytest.raises(actkit.ShapeError) as got:
            forward(model, np.zeros((96, 3, 32, 0), dtype=np.float32))
        assert str(got.value) == (
            "images 0-15 of 96: conv input needs channels, height and width >= 1, got shape (16, 3, 32, 0)"
        )

    def test_other_errors_propagate_unchanged(self, model, images, monkeypatch):
        boom = MemoryError("boom")

        def spy(kind, z):
            raise boom

        monkeypatch.setattr(modelspec, "activate_batch", spy)
        with pytest.raises(MemoryError) as got:
            forward(model, images[:96])
        assert got.value is boom

    @pytest.mark.parametrize("case, limit", [("pool-busy", 16), ("non-finite", 24)])
    def test_peak_memory_is_a_few_chunks(self, model, monkeypatch, case, limit):
        """512 images in one pass peak at about 80 MiB (traced numpy buffers). Chunked,
        the peak is one chunk's with the pool busy, and two workers' chunks when a
        chunk raises: nothing re-runs the whole batch."""
        batch = gen_synthetic_images(512, seed=13).images
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        if case == "non-finite":
            batch[300, 0, 1, 2] = np.inf
        tracemalloc.start()
        try:
            busy = chunks._pool_lock if case == "pool-busy" else nullcontext()
            raises = pytest.raises(actkit.DomainError) if case == "non-finite" else nullcontext()
            with np.errstate(invalid="ignore"), busy, raises:
                forward(model, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit * 2**20

    def test_without_blas_controls_chunks_run_on_the_callers_thread(self, model, images, monkeypatch):
        batch = images[:96]
        want = _one_pass(model, batch).tobytes()
        threads = []

        def spy(kind, z):
            threads.append(threading.get_ident())
            return activate_batch(kind, z)

        monkeypatch.setattr(chunks, "_openblas_threads", lambda: None)
        monkeypatch.setattr(modelspec, "activate_batch", spy)
        assert forward(model, batch).tobytes() == want
        assert len(threads) == 6 * 9 and set(threads) == {threading.get_ident()}

    def test_openblas_thread_count_restored(self, model, images, monkeypatch):
        """Every call holds OpenBLAS at one thread in every chunk, whatever its chunk and core
        counts, and then sets back the count it found, after a raise as well."""
        blas = chunks._openblas_threads()
        if blas is None:
            pytest.skip("numpy's OpenBLAS exports no known thread-count functions here")
        get, put = blas
        before = get()
        during = []

        def spy(kind, z):
            during.append(get())
            return activate_batch(kind, z)

        monkeypatch.setattr(modelspec, "activate_batch", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        try:
            put(2)
            for cores in ({0, 1}, {0}):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
                for n in (96, 20):
                    during.clear()
                    forward(model, images[:n])
                    assert get() == 2 and len(during) == n // 16 * 9 and set(during) == {1}
                    bad = images[:n].copy()
                    bad[n - 1, 0, 0, 0] = np.nan
                    with pytest.raises(actkit.DomainError):
                        forward(model, bad)
                    assert get() == 2
        finally:
            put(before)

    def test_concurrent_and_nested_callers_run_serially(self, model, images):
        batch = images[:96]
        want = _one_pass(model, batch).tobytes()
        with chunks._pool_lock:  # as if another forward held the pool
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
        want = forward(model, batch).tobytes()  # the parent keeps a pool, whose threads the child lacks
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

    @pytest.mark.parametrize(
        "n_labels, bad, error, message",
        [
            (32, None, actkit.ShapeError, "labels shape (32,) != (40,)"),
            (40, 0.5, actkit.DomainError, "labels must be integers, got 0.5 at index 20"),
            (40, 10, actkit.DomainError, "labels must lie in [0, 10), got 10.0 at index 20"),
        ],
        ids=["length", "fractional", "range"],
    )
    def test_labels_checked_before_any_chunk_runs(self, monkeypatch, n_labels, bad, error, message):
        """40 images run as two chunks; labels that do not fit them raise the one-pass error,
        naming the label's index in the whole batch, before any forward pass."""
        model = build_model(preset("mini-x3d"), Rng(8))
        batch = gen_synthetic_images(40, seed=9).images
        labels = np.arange(n_labels) % 10.0
        if bad is not None:
            labels[20] = bad
        passes = []
        monkeypatch.setattr(modelspec, "_forward_internal", lambda *args, **kw: passes.append(args))
        with pytest.raises(error) as got:
            loss_and_gradients(model, batch, labels)
        assert str(got.value) == message and passes == []

    def test_zero_images_rejected_before_any_work(self, monkeypatch):
        """A loss over no images is undefined: a DomainError names the batch shape before any
        pass runs. forward on no images returns no logits."""
        model = build_model(preset("mini-x3d"), Rng(8))
        empty = np.zeros((0, 3, 32, 32), dtype=np.float32)
        assert forward(model, empty).shape == (0, 10)
        passes = []
        monkeypatch.setattr(modelspec, "_forward_internal", lambda *args, **kw: passes.append(args))
        with pytest.raises(actkit.DomainError) as got:
            loss_and_gradients(model, empty, np.zeros(0))
        assert str(got.value) == "loss needs at least one image, got batch shape (0, 3, 32, 32)" and passes == []

    def test_every_conv_reads_channels_last(self, monkeypatch):
        """The stem conv reads the C-order batch as given, with no copy, in both directions.
        Every conv output is channels-last, so every conv after the stem gets its input, and
        every conv backward its upstream, channels-last: no layer pays a transposing copy.
        16x16 images keep every stage at 2x2 or more, where the two orders differ."""
        seen = []

        def channels_last(a):  # NHWC memory in NCHW shape, and not also C-contiguous
            return not a.flags.c_contiguous and a.transpose(0, 2, 3, 1).flags.c_contiguous

        def spy(fn, name):
            def call(x, w, *args, **kw):
                seen.append((name, x, args[0] if name == "backward" else None))
                return fn(x, w, *args, **kw)
            return call

        monkeypatch.setattr(modelspec, "conv2d_forward", spy(modelspec.conv2d_forward, "forward"))
        monkeypatch.setattr(modelspec, "conv2d_backward", spy(modelspec.conv2d_backward, "backward"))
        model = build_model(preset("mini-x3d"), Rng(8))
        data = gen_synthetic_images(20, seed=9)
        batch = np.ascontiguousarray(data.images[:, :, :16, :16])
        forward(model, batch)
        convs = len(seen)
        loss_and_gradients(model, batch, data.labels)
        assert convs == 12 and len(seen) == 36  # stem, 2 per block, 3 projections; each again in backward
        stem = [seen[0], seen[convs], seen[-1]]  # forward's, then loss_and_gradients' forward and backward
        assert [name for name, _, _ in stem] == ["forward", "forward", "backward"]
        assert all(x.flags.c_contiguous and np.shares_memory(x, batch) for _, x, _ in stem)
        assert all(channels_last(x) for _, x, _ in seen[1:convs] + seen[convs + 1 : -1])
        assert all(channels_last(up) for name, _, up in seen if name == "backward")

    @pytest.mark.parametrize("blocks, n", [((1, 1, 1, 1), 3), ((2, 1, 2, 1), 40)], ids=["one-pass", "two-chunks"])
    def test_whole_net_gradients_match_finite_differences(self, blocks, n):
        """Central differences (h = 1e-2) of the loss at 4 Rng-chosen entries of every parameter
        of all-Swish mini-x3d on 8x8 images: through the skips, the projections, the stem's
        weights-only backward and, on 40 images, the sum over two chunks. The error is
        |fd - g| / max(|fd|, |g|, 1e-3) per entry: a float32 forward's rounding puts the worst at
        9.1e-3 (one pass) and 4.2e-3 (two chunks) here, and at most 1.0e-2 over seeds 2-7."""
        spec, _ = replace_activations(preset("mini-x3d", blocks), GroupSelector("all"), None, ActivationKind.SWISH)
        model = build_model(spec, Rng(1))
        batch = Rng(101).uniforms(n * 3 * 8 * 8).reshape(n, 3, 8, 8).astype(np.float32)
        labels = np.arange(n) % 10
        _, grads = loss_and_gradients(model, batch, labels)
        pick, h = Rng(201), np.float32(1e-2)
        worst = {}
        for name, p in model.params.items():
            errors = []
            for i in (pick.uniforms(4) * p.size).astype(np.int64):
                orig, losses = p.flat[i], []
                for step in (h, -h):
                    p.flat[i] = orig + step
                    losses.append(softmax_cross_entropy(forward(model, batch), labels)[0])
                p.flat[i] = orig
                fd = (losses[0] - losses[1]) / (float(orig + h) - float(orig - h))
                g = float(grads[name].flat[i])
                errors.append(abs(fd - g) / max(abs(fd), abs(g), 1e-3))
            worst[name] = max(errors)
        assert max(worst.values()) < 3e-2, worst

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
from actkit import Rng, build_model, chunks, forward, gen_synthetic_images, loss_and_gradients, modelspec, preset
model = build_model(preset("mini-x3d"), Rng(7))
data = gen_synthetic_images(32, seed=5)
digest = hashlib.sha256(forward(model, data.images).tobytes())
digest.update(forward(model, gen_synthetic_images(96, seed=6).images).tobytes())  # six chunks
steps = [modelspec._loss_and_gradients_pass(model, data.images, data.labels)]
# one chunk, which the executor holds at one OpenBLAS thread whatever the environment's count,
# where it finds the thread controls; without them the step runs at that count
if chunks._openblas_threads() is not None:
    small = gen_synthetic_images(31, seed=4)
    steps.append(loss_and_gradients(build_model(preset("mini-x3d"), Rng(3)), small.images, small.labels))
# without thread controls the two 16-image chunks run on this thread, so OpenBLAS runs
# them at the environment's thread count
chunks._openblas_threads = lambda: None
steps.append(loss_and_gradients(model, data.images, data.labels))
for loss, grads in steps:
    digest.update(repr(loss).encode())
    for name, g in grads.items():
        digest.update(name.encode() + g.tobytes())
print(digest.hexdigest())
"""


def test_results_identical_across_blas_thread_counts():
    """Batch 32 makes the stage-1 GEMMs large enough for OpenBLAS to split them
    across threads; logits, loss and every gradient, whole-batch, from a one-chunk step and
    from the chunked training step, must not change bitwise."""
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
