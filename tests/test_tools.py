import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_bench", Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)


def test_ab_compare_counts_wins_and_resolves_against_the_parent_iqr():
    higher = {"name": "tok_s", "better": "higher", "bound": 0.25}
    parent = [100.0, 110.0, 90.0, 105.0, 95.0]
    v = ab_bench.compare(higher, parent, [250.0, 240.0, 100.0, 260.0, 95.0])
    assert v["parent"] == (100.0, 95.0, 105.0)
    assert (v["wins"], v["ties"]) == (4, 1)     # a tie counts for neither side
    assert v["resolved"] and not v["beyond_bound"]
    v = ab_bench.compare(higher, parent, [101.0, 104.0, 99.0, 96.0, 98.0])
    assert not v["resolved"] and not v["beyond_bound"]


@pytest.mark.parametrize("better, change, beyond", [
    ("higher", [74.0, 74.0, 74.0], True), ("higher", [76.0, 76.0, 76.0], False),
    ("lower", [126.0, 126.0, 126.0], True), ("lower", [124.0, 124.0, 124.0], False)])
def test_ab_compare_flags_a_median_past_its_bound(better, change, beyond):
    spec = {"name": "m", "better": better, "bound": 0.25}
    assert ab_bench.compare(spec, [100.0, 100.0, 100.0], change)["beyond_bound"] is beyond
