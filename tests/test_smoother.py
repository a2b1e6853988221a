"""Temporal smoothing tests: the centered truncated-window mean against a
brute-force oracle, decoding, accuracy, and the window sweep."""

import re

import numpy as np
import pytest

from actkit import (
    DomainError,
    PhaseSequence,
    ShapeError,
    WindowSweepRow,
    argmax_decode,
    frame_accuracy,
    gen_synthetic_phases,
    save_sweep_csv,
    sma,
    sweep_window,
)


def sma_oracle(probs: np.ndarray, w: int) -> np.ndarray:
    """Direct per-frame mean over the truncated centered window."""
    t_len, c = probs.shape
    out = np.zeros((t_len, c), dtype=np.float64)
    for t in range(t_len):
        lo = max(0, t - w // 2)
        hi = min(t_len - 1, t + (w - 1) // 2)
        out[t] = probs[lo : hi + 1].mean(axis=0)
    return out


class TestSma:
    """Window semantics: identity at w=1, truncation at edges, exact means."""

    def test_w1_is_exact_identity(self):
        rs = np.random.RandomState(3)
        probs = rs.uniform(0, 1, (50, 7))
        out = sma(probs, 1)
        assert np.array_equal(out, probs)
        assert out is not probs  # a copy, not the same buffer

    def test_hand_example(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        want = np.array([[1.0, 0.0], [2 / 3, 1 / 3], [1 / 2, 1 / 2]])
        assert np.allclose(sma(probs, 3), want, atol=1e-12)

    def test_even_window_leans_left(self):
        """w=2 averages the current and previous frame (previous exists)."""
        probs = np.array([[0.0], [1.0], [0.0], [1.0]])
        want = np.array([[0.0], [0.5], [0.5], [0.5]])
        assert np.allclose(sma(probs, 2), want, atol=1e-12)

    def test_constant_rows_unchanged(self):
        probs = np.tile(np.array([[0.2, 0.3, 0.5]]), (30, 1))
        for w in (1, 2, 5, 16, 61):
            assert np.allclose(sma(probs, w), probs, atol=1e-9)

    def test_row_sums_preserved(self):
        seq = gen_synthetic_phases(6, 9, 120, 0.3, 0.2, seed=1)
        for w in (2, 7, 32):
            sums = sma(seq.probs, w).sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) < 1e-9

    def test_linearity(self):
        rs = np.random.RandomState(5)
        a = rs.uniform(-1, 1, (40, 4))
        b = rs.uniform(-1, 1, (40, 4))
        for w in (3, 8):
            combined = sma(2.5 * a + 0.5 * b, w)
            split = 2.5 * sma(a, w) + 0.5 * sma(b, w)
            assert np.max(np.abs(combined - split)) < 1e-9

    def test_huge_window_gives_global_mean(self):
        rs = np.random.RandomState(7)
        probs = rs.uniform(0, 1, (15, 3))
        out = sma(probs, 2 * 15 - 1)
        want = np.tile(probs.mean(axis=0), (15, 1))
        assert np.max(np.abs(out - want)) < 1e-9

    def test_column_permutation_commutes(self):
        rs = np.random.RandomState(9)
        probs = rs.uniform(0, 1, (25, 6))
        perm = rs.permutation(6)
        assert np.allclose(sma(probs[:, perm], 4), sma(probs, 4)[:, perm], atol=1e-12)

    @pytest.mark.parametrize("t_len", [1, 2, 3, 17, 64, 200])
    @pytest.mark.parametrize("w", [1, 2, 3, 4, 31, 64])
    def test_matches_oracle(self, t_len, w):
        rs = np.random.RandomState(t_len * 100 + w)
        probs = rs.uniform(0, 1, (t_len, 5))
        assert np.max(np.abs(sma(probs, w) - sma_oracle(probs, w))) < 1e-6

    def test_invalid_args_rejected(self):
        with pytest.raises(DomainError):
            sma(np.ones((4, 2)), 0)
        with pytest.raises(ShapeError):
            sma(np.ones(8), 2)

    @pytest.mark.parametrize("w", [2.5, 2.0, True, "3", None], ids=repr)
    def test_non_integer_window_rejected(self, w):
        with pytest.raises(DomainError, match=f"window size must be an integer, got {re.escape(repr(w))}$"):
            sma(np.ones((4, 2)), w)
        with pytest.raises(DomainError, match="window size must be an integer"):
            sweep_window(PhaseSequence(np.full((4, 2), 0.5), np.zeros(4, dtype=np.int64)), [1, w])

    def test_numpy_integer_window_accepted(self):
        probs = np.random.RandomState(2).uniform(0, 1, (20, 3))
        assert np.array_equal(sma(probs, np.int64(5)), sma(probs, 5))


class TestDecodeAndAccuracy:
    """Argmax decoding with the lowest-index tie rule, and exact accuracy."""

    def test_argmax_rows(self):
        probs = np.array([[0.1, 0.7, 0.2], [0.6, 0.3, 0.1]])
        assert argmax_decode(probs).tolist() == [1, 0]

    def test_tie_takes_lowest_index(self):
        probs = np.array([[0.4, 0.4, 0.2], [0.3, 0.35, 0.35]])
        assert argmax_decode(probs).tolist() == [0, 1]

    def test_frame_accuracy_values(self):
        pred = np.array([0, 1, 2, 3], dtype=np.int64)
        truth = np.array([0, 1, 0, 3], dtype=np.int64)
        assert frame_accuracy(pred, truth) == 0.75
        assert frame_accuracy(pred.astype(np.float64), truth) == 0.75

    def test_frame_accuracy_shape_checks(self):
        with pytest.raises(ShapeError):
            frame_accuracy(np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64))
        with pytest.raises(ShapeError):
            frame_accuracy(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize(
        "pred, truth, message",
        [
            ([0.7, 1.9], [0, 1], "predicted labels must be integers, got 0.7 at frame 0"),
            ([0, 1], [1.0, np.nan], "truth labels must be integers, got nan at frame 1"),
            ([0, 1], [0.0, np.inf], "truth labels must be integers, got inf at frame 1"),
        ],
        ids=["fractional", "nan", "inf"],
    )
    def test_frame_accuracy_rejects_non_integer_labels(self, pred, truth, message):
        with pytest.raises(DomainError) as err:
            frame_accuracy(np.array(pred), np.array(truth))
        assert str(err.value) == message


class TestSweep:
    """Window sweep: per-window accuracies and the first-best rule."""

    def _tiny_seq(self):
        # three frames, truth [0, 0, 1]; raw argmax gets frame 1 wrong
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.1, 0.9]])
        return PhaseSequence(probs, np.array([0, 0, 1], dtype=np.int64))

    def test_rows_follow_input_order(self):
        rows, _ = sweep_window(self._tiny_seq(), [4, 1, 2])
        assert [r.w for r in rows] == [4, 1, 2]

    def test_accuracies_match_direct_computation(self):
        seq = gen_synthetic_phases(10, 50, 600, 0.25, 0.1, seed=13)
        rows, _ = sweep_window(seq, [1, 8, 32, 600, 601, 1199, 1200, 5000])  # and windows >= T
        for row in rows:
            direct = frame_accuracy(argmax_decode(sma(seq.probs, row.w)), seq.truth)
            assert row.accuracy == direct

    def test_best_is_first_maximum(self):
        seq = self._tiny_seq()
        rows, best_w = sweep_window(seq, [1, 2, 3])
        accs = {r.w: r.accuracy for r in rows}
        assert best_w in accs
        best_acc = max(accs.values())
        assert accs[best_w] == best_acc
        firsts = [w for w in (1, 2, 3) if accs[w] == best_acc]
        assert best_w == firsts[0]

    def test_smoothing_helps_on_noisy_sequence(self):
        seq = gen_synthetic_phases(10, 100, 1000, 0.3, 0.1, seed=17)
        rows, best_w = sweep_window(seq, [1, 16])
        accs = {r.w: r.accuracy for r in rows}
        assert accs[16] > accs[1]
        assert best_w == 16

    def test_empty_windows_rejected(self):
        with pytest.raises(DomainError):
            sweep_window(self._tiny_seq(), [])

    def test_csv_contents(self, tmp_path):
        rows = [WindowSweepRow(1, 0.5), WindowSweepRow(8, 0.75)]
        path = tmp_path / "sweep.csv"
        save_sweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "w,accuracy"
        assert lines[1] == "1,0.5"
        assert lines[2] == "8,0.75"
