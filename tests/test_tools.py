import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
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


def test_grad_diff_of_a_tree_against_itself_is_zero():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "grad_diff.py"), str(ROOT), str(ROOT)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 24 and lines[0].startswith("trec/irnn ")
    assert all(" loss bit-identical " in line and line.endswith(" 0.000e+00") for line in lines)


def test_param_digest_of_a_tree_against_itself_is_same():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "param_digest.py"), str(ROOT), str(ROOT)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 23 and lines[0].startswith("simple/uni2/softmax ")
    assert all(line.endswith(" same") for line in lines)
