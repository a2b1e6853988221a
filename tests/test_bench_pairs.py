"""tools/bench_pairs.py: the paired-run summary and its claim rule, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [598.0, 580.0, 615.0, 600.0, 590.0, 610.0, 605.0, 585.0, 595.0, 620.0]


def test_claim_holds_with_nine_wins_and_a_gap_above_the_parents_spread():
    """Sorted, the parent's runs put the quartiles at 591.25 and 608.75 (interpolated at
    positions 2.25 and 6.75) and the median at 599; the change loses only the last pair."""
    change = [770.0, 760.0, 790.0, 780.0, 700.0, 800.0, 775.0, 765.0, 785.0, 599.0]
    s = bench_pairs.summarize(PARENT, change, "higher")
    assert s["parent"] == (591.25, 599.0, 608.75)
    assert s["change"][1] == 772.5
    assert (s["wins"], s["pairs"], s["gap"], s["claim"]) == (9, 10, 173.5, True)


def test_claim_fails_with_eight_wins():
    change = [770.0, 760.0, 790.0, 780.0, 700.0, 800.0, 775.0, 765.0, 594.0, 599.0]
    s = bench_pairs.summarize(PARENT, change, "higher")
    assert (s["wins"], s["claim"]) == (8, False)


def test_claim_fails_when_the_gap_is_inside_the_parents_spread():
    """Every pair won by 1, but the parent's quartiles lie 4.5 apart."""
    parent = [float(v) for v in range(1, 11)]
    s = bench_pairs.summarize(parent, [v + 1 for v in parent], "higher")
    assert s["parent"] == (3.25, 5.5, 7.75)
    assert (s["wins"], s["gap"], s["claim"]) == (10, 1.0, False)


def test_lower_is_better_and_ties_count_for_neither():
    parent = [0.40, 0.42, 0.41, 0.43, 0.40]
    change = [0.30, 0.42, 0.31, 0.33, 0.50]
    s = bench_pairs.summarize(parent, change, "lower")
    assert s["wins"] == 3  # the tie at 0.42 and the loss at 0.50 are not wins
    assert s["gap"] == pytest.approx(0.41 - 0.33)
    assert s["claim"] is False  # 3 of 5 pairs


def test_one_pair_and_bad_lengths():
    s = bench_pairs.summarize([2.0], [3.0], "higher")
    assert s["parent"] == (2.0, 2.0, 2.0) and (s["wins"], s["claim"]) == (1, True)
    with pytest.raises(ValueError, match="same nonzero number of runs"):
        bench_pairs.summarize([1.0, 2.0], [1.0], "higher")


def test_seed_ranges():
    assert bench_pairs.parse_seeds("1-10") == list(range(1, 11))
    assert bench_pairs.parse_seeds("401,403, 7-8") == [401, 403, 7, 8]


def test_row_names_medians_quartiles_wins_and_verdict():
    row = bench_pairs.format_row("items_per_s", "1/s", bench_pairs.summarize(PARENT, [v + 100 for v in PARENT], "higher"))
    assert row.startswith("items_per_s  parent 599 [591.25, 608.75] -> change 699 [691.25, 708.75] 1/s  wins 10/10")
    assert row.endswith("claim holds")
