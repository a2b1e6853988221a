"""Benchmark harness tests: input generation, timing bookkeeping, checksum
determinism, and ratio reporting. Timing magnitudes are hardware-dependent,
so assertions target structure and arithmetic, not speed."""

import numpy as np
import pytest

from actkit import (
    MIN_ELEMENTS,
    MIN_REPEATS,
    ActivationKind,
    DomainError,
    activate_batch,
    bench,
    compare,
    make_bench_input,
    save_bench_csv,
)

RELU = ActivationKind.RELU
SWISH = ActivationKind.SWISH
HS = ActivationKind.HARDSWISH


class TestBenchInput:
    """Seeded buffer spanning every piecewise region of every kind."""

    def test_shape_dtype_range(self):
        buf = make_bench_input(MIN_ELEMENTS, seed=0)
        assert buf.shape == (MIN_ELEMENTS,)
        assert buf.dtype == np.float32
        assert buf.min() >= -6.0
        assert buf.max() <= 6.0

    def test_covers_both_signs_and_knots(self):
        buf = make_bench_input(MIN_ELEMENTS, seed=1)
        assert (buf < -3.0).any() and (buf > 3.0).any()

    def test_deterministic(self):
        assert np.array_equal(make_bench_input(MIN_ELEMENTS, 5), make_bench_input(MIN_ELEMENTS, 5))


class TestBenchActivation:
    """One kind, one buffer: result fields, the median arithmetic, checksums and minimums."""

    def test_result_fields(self):
        (res,) = compare([HS], n_elements=MIN_ELEMENTS, repeats=MIN_REPEATS, seed=0)
        assert res.kind is HS
        assert res.n_elements == MIN_ELEMENTS
        assert res.repeats == MIN_REPEATS
        assert res.median_ns_per_element > 0
        assert res.ratio_vs_relu > 0

    def test_median_is_median_of_repeats(self, monkeypatch):
        """A fake clock: Hard-Swish's timed passes take 100, 300 and 200 ns, and then
        the hidden ReLU reference's take 50, 70 and 10 ns."""
        ticks = iter([0, 100, 1000, 1300, 2000, 2200, 3000, 3050, 4000, 4070, 5000, 5010])
        monkeypatch.setattr(bench.time, "perf_counter_ns", lambda: next(ticks))
        (res,) = compare([HS], MIN_ELEMENTS, MIN_REPEATS, seed=2)
        assert res.median_ns_per_element == 200 / MIN_ELEMENTS
        assert res.ratio_vs_relu == (200 / MIN_ELEMENTS) / (50 / MIN_ELEMENTS)
        assert next(ticks, None) is None  # every pass read the clock twice, no more

    def test_checksum_deterministic_and_matches_sum(self):
        """Every timed pass adds the full output sum, so the checksum is
        repeats times the one-pass sum — and identical across runs."""
        (a,) = compare([SWISH], MIN_ELEMENTS, MIN_REPEATS, seed=3)
        (b,) = compare([SWISH], MIN_ELEMENTS, MIN_REPEATS, seed=3)
        assert a.checksum == b.checksum
        one_pass = float(
            activate_batch(SWISH, make_bench_input(MIN_ELEMENTS, 3)).sum(dtype=np.float64)
        )
        assert a.checksum == MIN_REPEATS * one_pass

    def test_minimums_enforced(self):
        with pytest.raises(DomainError, match=f"n_elements must be >= {MIN_ELEMENTS} for stable medians"):
            compare([RELU], MIN_ELEMENTS - 1, MIN_REPEATS, seed=0)
        with pytest.raises(DomainError, match=f"repeats must be >= {MIN_REPEATS}, got {MIN_REPEATS - 1}"):
            compare([RELU], MIN_ELEMENTS, MIN_REPEATS - 1, seed=0)


class TestCompare:
    """Multi-kind comparison on one buffer, each result carrying its ratio to ReLU."""

    def test_order_preserved_and_relu_ratio_one(self):
        kinds = [SWISH, RELU, HS]
        results = compare(kinds, MIN_ELEMENTS, MIN_REPEATS, seed=0)
        assert [r.kind for r in results] == kinds
        assert results[1].ratio_vs_relu == 1.0

    def test_hidden_relu_reference(self):
        """Ratios are still relative to ReLU when ReLU is not requested."""
        results = compare([HS], MIN_ELEMENTS, MIN_REPEATS, seed=1)
        assert [r.kind for r in results] == [HS]
        # timing noise moves the denominator between runs; the ratio must still
        # be positive and in a plausible band rather than bit-reproducible
        assert 0.05 < results[0].ratio_vs_relu < 100.0

    def test_one_buffer_for_every_kind(self, monkeypatch):
        calls = []

        def counting(n_elements, seed):
            calls.append((n_elements, seed))
            return make_bench_input(n_elements, seed)

        monkeypatch.setattr(bench, "make_bench_input", counting)
        compare([RELU, SWISH, HS], MIN_ELEMENTS, MIN_REPEATS, seed=6)
        assert calls == [(MIN_ELEMENTS, 6)]

    def test_duplicate_kinds_timed_once_reported_twice(self):
        first, second = compare([RELU, RELU], MIN_ELEMENTS, MIN_REPEATS, seed=7)
        assert first == second
        assert first.ratio_vs_relu == 1.0

    def test_empty_kinds_rejected(self):
        with pytest.raises(DomainError):
            compare([], MIN_ELEMENTS, MIN_REPEATS, seed=0)

    def test_csv_layout(self, tmp_path):
        results = compare([RELU, HS], MIN_ELEMENTS, MIN_REPEATS, seed=4)
        path = tmp_path / "bench.csv"
        save_bench_csv(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "kind,n,repeats,median_ns_per_elem,ratio_vs_relu"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "relu"
        assert int(first[1]) == MIN_ELEMENTS
        assert float(first[4]) == 1.0
        assert lines[2].split(",")[4] == repr(results[1].ratio_vs_relu)
