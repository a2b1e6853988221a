"""Data I/O tests: the CIFAR-10 binary parser against a hand-built byte
fixture, stratified subsetting, the synthetic generators, and phase CSVs."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from actkit import (
    CIFAR_RECORD_BYTES,
    DomainError,
    FormatError,
    ImageDataset,
    PhaseSequence,
    Rng,
    ShapeError,
    gen_synthetic_images,
    gen_synthetic_phases,
    load_cifar10_binary,
    load_phase_csv,
    save_phase_csv,
    subset,
)


def make_record(label: int, fill_r: int, fill_g: int, fill_b: int) -> bytes:
    """One 3073-byte record: label byte then 1024 bytes per channel, R G B."""
    return bytes([label]) + bytes([fill_r] * 1024 + [fill_g] * 1024 + [fill_b] * 1024)


class TestCifarParser:
    """Byte-level fixture round-trips and malformed-input rejection."""

    def test_two_record_fixture(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(make_record(3, 255, 0, 128) + make_record(9, 0, 255, 64))
        ds = load_cifar10_binary([path])
        assert len(ds) == 2
        assert ds.images.shape == (2, 3, 32, 32)
        assert ds.images.dtype == np.float32
        assert ds.labels.tolist() == [3, 9]
        assert np.all(ds.images[0, 0] == 1.0)  # 255/255
        assert np.all(ds.images[0, 1] == 0.0)
        assert np.all(ds.images[0, 2] == np.float32(128 / 255))
        assert np.all(ds.images[1, 1] == 1.0)

    def test_pixel_byte_order_row_major(self, tmp_path):
        """Within a channel, bytes fill rows left to right, top to bottom."""
        pixels = bytes(range(256)) * 4  # 1024 bytes for R
        record = bytes([0]) + pixels + bytes(1024) + bytes(1024)
        path = tmp_path / "batch.bin"
        path.write_bytes(record)
        ds = load_cifar10_binary([path])
        assert ds.images[0, 0, 0, 0] == 0.0
        assert ds.images[0, 0, 0, 1] == np.float32(1 / 255)
        assert ds.images[0, 0, 1, 0] == np.float32(32 / 255)

    def test_multiple_files_concatenate_in_order(self, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        p1.write_bytes(make_record(1, 10, 10, 10))
        p2.write_bytes(make_record(2, 20, 20, 20) + make_record(0, 30, 30, 30))
        ds = load_cifar10_binary([p1, p2])
        assert ds.labels.tolist() == [1, 2, 0]

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(make_record(0, 1, 2, 3)[:-1])
        with pytest.raises(FormatError):
            load_cifar10_binary([path])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            load_cifar10_binary([path])

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(make_record(10, 0, 0, 0))
        with pytest.raises(FormatError):
            load_cifar10_binary([path])

    def test_no_paths_rejected(self):
        with pytest.raises(FormatError):
            load_cifar10_binary([])

    def test_record_size_constant(self):
        assert CIFAR_RECORD_BYTES == 1 + 3 * 1024


class TestSubset:
    """Stratified sampling: exact per-class counts, determinism, bounds."""

    def _balanced(self, per_class: int) -> ImageDataset:
        n = per_class * 10
        images = np.zeros((n, 3, 32, 32), dtype=np.float32)
        images[:, 0, 0, 0] = np.arange(n, dtype=np.float32)  # tag each image
        labels = np.repeat(np.arange(10, dtype=np.int64), per_class)
        return ImageDataset(images, labels)

    def test_exact_class_counts(self):
        ds = subset(self._balanced(500), 2000, seed=0)
        assert len(ds) == 2000
        counts = np.bincount(ds.labels, minlength=10)
        assert counts.tolist() == [200] * 10

    def test_remainder_goes_to_lowest_classes(self):
        ds = subset(self._balanced(10), 23, seed=1)
        counts = np.bincount(ds.labels, minlength=10)
        assert counts.tolist() == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]

    def test_deterministic_and_seed_sensitive(self):
        base = self._balanced(50)
        a = subset(base, 100, seed=7)
        b = subset(base, 100, seed=7)
        c = subset(base, 100, seed=8)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.images, c.images)

    def test_class_blocks_in_order(self):
        ds = subset(self._balanced(20), 50, seed=3)
        assert np.all(np.diff(ds.labels) >= 0)

    def test_oversize_rejected(self):
        with pytest.raises(DomainError):
            subset(self._balanced(5), 51, seed=0)
        with pytest.raises(DomainError):
            subset(self._balanced(5), 0, seed=0)

    def test_imbalanced_class_exhaustion_rejected(self):
        images = np.zeros((20, 3, 32, 32), dtype=np.float32)
        labels = np.zeros(20, dtype=np.int64)  # every image is class 0
        with pytest.raises(DomainError):
            subset(ImageDataset(images, labels), 10, seed=0)


class TestSyntheticImages:
    """Quadrant-coded images: decodability, label cycling, determinism, blockwise noise."""

    def test_labels_cycle(self):
        ds = gen_synthetic_images(25, seed=0)
        assert ds.labels.tolist() == [i % 10 for i in range(25)]

    def test_quadrant_code_decodes_exactly(self):
        """Thresholding each quadrant mean at 0.5 recovers every label despite noise."""
        ds = gen_synthetic_images(200, seed=5, noise=0.2)
        quads = ds.images.reshape(200, 3, 2, 16, 2, 16).mean(axis=(1, 3, 5))
        bits = (quads > 0.5).astype(np.int64)
        decoded = bits[:, 0, 0] + 2 * bits[:, 0, 1] + 4 * bits[:, 1, 0] + 8 * bits[:, 1, 1]
        assert np.array_equal(decoded, ds.labels)

    def test_noise_zero_gives_pure_patterns(self):
        ds = gen_synthetic_images(10, seed=0, noise=0.0)
        values = np.unique(ds.images)
        assert set(values.tolist()) <= {np.float32(0.2), np.float32(0.8)}
        # all ten patterns distinct
        flat = ds.images.reshape(10, -1)
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.array_equal(flat[i], flat[j])

    def test_pixels_stay_in_unit_range(self):
        ds = gen_synthetic_images(50, seed=2, noise=0.2)
        assert ds.images.min() >= 0.0
        assert ds.images.max() <= 1.0

    def test_deterministic_per_seed(self):
        a = gen_synthetic_images(30, seed=9)
        b = gen_synthetic_images(30, seed=9)
        assert np.array_equal(a.images, b.images)
        assert not np.array_equal(a.images, gen_synthetic_images(30, seed=10).images)

    def test_noise_out_of_bounds_rejected(self):
        with pytest.raises(DomainError):
            gen_synthetic_images(10, seed=0, noise=0.3)

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 320, 2000])
    def test_blockwise_noise_equals_one_draw(self, n):
        """The noise is drawn a block of images at a time; the bytes equal one draw for the whole set."""
        images = gen_synthetic_images(10, seed=0, noise=0.0).images[np.arange(n) % 10]
        u = Rng(4).uniforms(images.size).reshape(images.shape)
        want = (images + (2.0 * u - 1.0) * 0.1).astype(np.float32)
        assert gen_synthetic_images(n, seed=4).images.tobytes() == want.tobytes()

    def test_peak_memory_is_the_images_and_one_block(self):
        """2000 images are 23.4 MiB of float32; one noise draw for all of them peaked at 211 MiB."""
        tracemalloc.start()
        try:
            gen_synthetic_images(2000, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 28 * 2**20
        with pytest.raises(DomainError):
            gen_synthetic_images(10, seed=0, noise=-0.1)


class TestSyntheticPhases:
    """Segment-structured truth with a controlled per-frame error rate."""

    def test_truth_follows_segments(self):
        seq = gen_synthetic_phases(4, 10, 85, noise=0.0, confusion_spread=0.0, seed=0)
        want = (np.arange(85) // 10) % 4
        assert np.array_equal(seq.truth, want)

    def test_noise_zero_rows_exact(self):
        seq = gen_synthetic_phases(10, 5, 50, noise=0.0, confusion_spread=0.1, seed=3)
        rows = seq.probs
        t = np.arange(50)
        assert np.all(rows[t, seq.truth] == 0.9)
        off = rows.copy()
        off[t, seq.truth] = np.nan
        assert np.allclose(off[~np.isnan(off)], 0.1 / 9)

    def test_error_rate_tracks_noise(self):
        seq = gen_synthetic_phases(10, 200, 2000, noise=0.25, confusion_spread=0.1, seed=7)
        predicted = seq.probs.argmax(axis=1)
        agreement = float(np.mean(predicted == seq.truth))
        assert abs(agreement - 0.75) < 0.03

    def test_wrong_predictions_never_equal_truth(self):
        """The off-label draw skips the true class, so noise strictly corrupts."""
        seq = gen_synthetic_phases(3, 7, 300, noise=1.0 - 1e-12, confusion_spread=0.0, seed=11)
        predicted = seq.probs.argmax(axis=1)
        assert np.all(predicted != seq.truth)
        assert np.all((predicted >= 0) & (predicted < 3))

    def test_rows_are_distributions(self):
        seq = gen_synthetic_phases(7, 13, 200, noise=0.4, confusion_spread=0.3, seed=5)
        assert np.allclose(seq.probs.sum(axis=1), 1.0, atol=1e-12)
        assert seq.probs.min() >= 0.0

    def test_deterministic_per_seed(self):
        a = gen_synthetic_phases(5, 10, 100, 0.2, 0.1, seed=4)
        b = gen_synthetic_phases(5, 10, 100, 0.2, 0.1, seed=4)
        assert np.array_equal(a.probs, b.probs)

    def test_invalid_args_rejected(self):
        with pytest.raises(DomainError):
            gen_synthetic_phases(1, 10, 100, 0.1, 0.1, seed=0)
        with pytest.raises(DomainError):
            gen_synthetic_phases(5, 0, 100, 0.1, 0.1, seed=0)
        with pytest.raises(DomainError):
            gen_synthetic_phases(5, 10, 100, 1.0, 0.1, seed=0)
        with pytest.raises(DomainError):
            gen_synthetic_phases(5, 10, 100, 0.1, -0.2, seed=0)


class TestPhaseCsv:
    """Header and row validation, renormalization, and round-trip fidelity."""

    def test_round_trip(self, tmp_path):
        seq = gen_synthetic_phases(10, 20, 150, 0.3, 0.15, seed=2)
        path = tmp_path / "seq.csv"
        save_phase_csv(seq, path)
        back = load_phase_csv(path)
        assert np.array_equal(back.truth, seq.truth)
        assert np.max(np.abs(back.probs - seq.probs)) < 1e-6

    def test_header_shape(self, tmp_path):
        seq = gen_synthetic_phases(3, 5, 10, 0.0, 0.0, seed=0)
        path = tmp_path / "seq.csv"
        save_phase_csv(seq, path)
        header = path.read_text().splitlines()[0]
        assert header == "frame,truth,p0,p1,p2"

    def test_loaded_rows_sum_to_one_exactly(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("frame,truth,p0,p1\n0,0,0.6004,0.4001\n1,1,0.2,0.8\n")
        seq = load_phase_csv(path)
        assert np.all(seq.probs.sum(axis=1) == 1.0)

    def test_bad_row_sum_rejected(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("frame,truth,p0,p1\n0,0,0.7,0.4\n")
        with pytest.raises(FormatError):
            load_phase_csv(path)

    def test_nan_row_rejected(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("frame,truth,p0,p1\n0,0,0.5,0.5\n1,0,nan,0.5\n")
        with pytest.raises(FormatError, match="row 1 "):
            load_phase_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("frame,label,p0,p1\n0,0,0.5,0.5\n")
        with pytest.raises(FormatError):
            load_phase_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("frame,truth,p0,p1\n0,0,0.5\n")
        with pytest.raises(FormatError):
            load_phase_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("frame,truth,p0,p1\n0,zero,0.5,0.5\n")
        with pytest.raises(FormatError):
            load_phase_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            load_phase_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("frame,truth,p0,p1\n")
        with pytest.raises(FormatError):
            load_phase_csv(path)

    HEADER = "frame,truth,p0,p1\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file"),
            (HEADER, "no data rows"),
            ("frame,label,p0,p1\n0,0,0.5,0.5\n", "bad header ['frame', 'label', 'p0', 'p1'] (expected frame,truth,p0,...)"),
            ("\n", "bad header [] (expected frame,truth,p0,...)"),
            ("frame,truth,p0,p2\n0,0,0.5,0.5\n", "probability columns must be p0..p1"),
            (HEADER + "0,0,0.5\n", "row 0 has 3 fields, expected 4"),
            (HEADER + "0,0,0.5,0.5\n1,0,0.5,0.5,0\n", "row 1 has 5 fields, expected 4"),
            (HEADER + "0,0,0.5,0.5\n\n1,0,0.5,0.5\n", "row 1 has 0 fields, expected 4"),
            (HEADER + "# comment\n0,0,0.5,0.5\n", "row 0 has 1 fields, expected 4"),
            (HEADER + "0,zero,0.5,0.5\n", "row 0: invalid literal for int() with base 10: 'zero'"),
            (HEADER + "0,0,0.5,0.5\n1,1.0,0.5,0.5\n", "row 1: invalid literal for int() with base 10: '1.0'"),
            (HEADER + "0,0,0.6,0.5\n", "row 0 sums to 1.100000, outside 1 +/- 0.001"),
            (HEADER + "0,0,0.5,0.5\n1,0,nan,0.5\n", "row 1 sums to nan, outside 1 +/- 0.001"),
            (HEADER + "0,0,inf,0.5\n", "row 0 sums to inf, outside 1 +/- 0.001"),
            (HEADER + "0,0,0.9,0.5\n1,x,0.5,0.5\n", "row 0 sums to 1.400000, outside 1 +/- 0.001"),
            (HEADER + "0,5,0.5,0.5\n1,0,0.9,0.5\n", "row 0 has truth 5, outside [0, 2)"),
            (HEADER + "0,5,0.5,0.5\n1,x,0.5,0.5\n", "row 0 has truth 5, outside [0, 2)"),
            (HEADER + "0,0,1.5,-0.5\n1,0,0.9,0.5\n", "row 0 has a negative probability -0.5"),
            (HEADER + "0,0_1,0.5,0.5\n", "row 0: not a plain ASCII number: '0_1'"),
            (HEADER + "0,0,0.5,0.5\n1,0,0.5_0,0.5\n", "row 1: not a plain ASCII number: '0.5_0'"),
            (HEADER + "0,\u0661,0.5,0.5\n", "row 0: not a plain ASCII number: '\u0661'"),
        ],
        ids=[
            "empty",
            "header-only",
            "bad-header",
            "blank-header",
            "p0-p2",
            "short-row",
            "extra-field",
            "blank-line",
            "comment-line",
            "truth-zero",
            "truth-1.0",
            "sum-1.1",
            "nan",
            "inf",
            "sum-before-later-parse-error",
            "truth-before-later-sum",
            "truth-before-later-parse-error",
            "negative-before-later-sum",
            "digit-separator-truth",
            "digit-separator-probability",
            "non-ascii-digit",
        ],
    )
    def test_malformed_input_message(self, tmp_path, text, message):
        path = tmp_path / "seq.csv"
        path.write_text(text)
        with pytest.raises(FormatError) as info:
            load_phase_csv(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            (HEADER + "0,0,0.5,0.5\n1,0,1.2,-0.2\n", "row 1 has a negative probability -0.2"),
            (HEADER + "0,0,0.5,0.5\n1,7,0.5,0.5\n", "row 1 has truth 7, outside [0, 2)"),
            (HEADER + "0,-1,0.5,0.5\n", "row 0 has truth -1, outside [0, 2)"),
            (HEADER + '0,0,"0.5",0.5\n', "row 0: could not convert string to float: '\"0.5\"'"),
        ],
        ids=["negative-probability", "truth-too-large", "truth-negative", "quoted-field"],
    )
    def test_bad_row_named(self, tmp_path, text, message):
        path = tmp_path / "seq.csv"
        path.write_text(text)
        with pytest.raises(FormatError) as info:
            load_phase_csv(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "raw",
        [
            b"frame,truth,p0,p1\r\n0,1,0.25,0.75\r\n1,0,0.5,0.5\r\n",
            b"frame,truth,p0,p1\n0, 1 , 0.25 ,0.75 \n1,0,0.5,\t0.5\n",
            b"frame,truth,p0,p1\nstart,1,0.25,0.75\n#,0,0.5,0.5",
        ],
        ids=["crlf", "spaces", "non-numeric-frame-no-final-newline"],
    )
    def test_tolerated_input_loads(self, tmp_path, raw):
        path = tmp_path / "seq.csv"
        path.write_bytes(raw)
        seq = load_phase_csv(path)
        assert seq.truth.tolist() == [1, 0]
        assert seq.probs.tolist() == [[0.25, 0.75], [0.5, 0.5]]

    @pytest.mark.parametrize(
        "args, digest",
        [
            ((10, 20, 150, 0.3, 0.15, 2), "d14afb98a4d4f17a8bdd8d925443a43cada356f9fd60b6b8c4da9c68311bb20a"),
            ((2, 3, 40, 0.2, 0.1, 5), "7b8f443a41871970c67a7d65b4d6e490834badae97cb2c8fe18c432944e9c01b"),
            ((4, 2, 5, 0.5, 0.3, 1), "7cda648cb994c0f351437bf328acedd8fa87d5d618c669b12d5c8ab1e586734b"),
        ],
        ids=["C10-T150", "C2-T40", "C4-T5"],
    )
    def test_saved_bytes_golden(self, tmp_path, args, digest):
        path = tmp_path / "seq.csv"
        save_phase_csv(gen_synthetic_phases(*args), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestDatasetTypes:
    """Container invariants."""

    def test_image_shape_enforced(self):
        with pytest.raises(Exception):
            ImageDataset(np.zeros((2, 3, 16, 16), dtype=np.float32), np.zeros(2, dtype=np.int64))

    def test_label_length_enforced(self):
        with pytest.raises(ShapeError, match=re.escape("image labels shape (3,) != (2,)")):
            ImageDataset(np.zeros((2, 3, 32, 32), dtype=np.float32), np.zeros(3, dtype=np.int64))

    def test_empty_image_set_rejected(self):
        with pytest.raises(DomainError, match="^an image dataset needs at least one image$"):
            ImageDataset(np.zeros((0, 3, 32, 32), dtype=np.float32), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([0.5, 1, 12], "image labels must be integers, got 0.5 at image 0"),
            ([0, np.nan, 1], "image labels must be integers, got nan at image 1"),
            ([0, 1, 12], "image labels must lie in [0, 10), got 12 at image 2"),
            ([0, -1, 1], "image labels must lie in [0, 10), got -1 at image 1"),
            (["0", "1", "2"], "image labels must be integers, got dtype <U1"),
        ],
        ids=["fractional", "nan", "above", "negative", "string"],
    )
    def test_labels_must_be_classes(self, labels, message):
        with pytest.raises(DomainError) as err:
            ImageDataset(np.zeros((3, 3, 32, 32), dtype=np.float32), np.array(labels))
        assert str(err.value) == message

    def test_integer_valued_float_labels_accepted(self):
        ds = ImageDataset(np.zeros((2, 3, 32, 32), dtype=np.float32), np.array([0.0, 9.0]))
        assert len(ds) == 2 and ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 9]

    def test_images_from_nested_lists(self):
        """Images given as Python lists are stored as an array under the same rules; an array
        keeps its dtype."""
        images = np.full((1, 3, 32, 32), 0.25, dtype=np.float32)
        ds = ImageDataset(images.tolist(), [0])
        assert isinstance(ds.images, np.ndarray) and ds.images.shape == (1, 3, 32, 32)
        assert ds.images.dtype == np.float64 and ds.labels.tolist() == [0]
        assert ImageDataset(images, [0]).images is images
        with pytest.raises(ShapeError, match=re.escape("images must be (N,3,32,32), got (1, 3, 32)")):
            ImageDataset([images[0, :, 0].tolist()], [0])

    def test_phase_rows_must_be_stochastic(self):
        probs = np.full((4, 5), 0.3)
        with pytest.raises(Exception):
            PhaseSequence(probs, np.zeros(4, dtype=np.int64))

    def test_phase_rows_with_nan_rejected(self):
        probs = np.full((2, 2), 0.5)
        probs[1, 0] = np.nan
        with pytest.raises(DomainError):
            PhaseSequence(probs, np.zeros(2, dtype=np.int64))

    @pytest.mark.parametrize(
        "truth, message",
        [
            ([0.7, 1.4], "must be integers, got 0.7 at frame 0"),
            ([1.0, np.nan], "must be integers, got nan at frame 1"),
            ([0, 5], "must lie in [0, 2), got 5 at frame 1"),
        ],
        ids=["fractional", "nan", "range"],
    )
    def test_phase_truth_must_be_integer_valued(self, truth, message):
        with pytest.raises(DomainError) as err:
            PhaseSequence(np.full((2, 2), 0.5), np.array(truth))
        assert str(err.value) == f"truth labels {message}"

    def test_phase_truth_integer_valued_floats_accepted(self):
        seq = PhaseSequence(np.full((2, 2), 0.5), np.array([0.0, 1.0]))
        assert seq.num_frames == 2 and seq.truth.dtype == np.int64 and seq.truth.tolist() == [0, 1]

    def test_phase_probs_from_lists(self):
        """Probabilities given as Python lists are stored as an array under the same rules; an
        array keeps its dtype."""
        seq = PhaseSequence([[0.5, 0.5]], [0])
        assert isinstance(seq.probs, np.ndarray) and seq.probs.dtype == np.float64
        assert seq.num_frames == 1 and seq.num_classes == 2 and seq.truth.tolist() == [0]
        probs = np.full((1, 2), 0.5, dtype=np.float32)
        assert PhaseSequence(probs, [1]).probs is probs
        with pytest.raises(DomainError, match="^probability rows must sum to 1 within 1e-5$"):
            PhaseSequence([[0.5, 0.4]], [0])
