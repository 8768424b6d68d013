"""scripts/compare_yield.py: two trees' yields, pooled per combination."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_yield.py"
_spec = importlib.util.spec_from_file_location("compare_yield", SCRIPT)
compare_yield = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_yield)


def test_a_tree_against_itself_differs_nowhere():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--seeds", "2", "--trials", "16",
         "--cases", "fa_2x,r8_2x,nor2", "--compile"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    programs = compare_yield.corpus_programs(compare_yield.load_corpus())
    table = lines[2:2 + len(programs)]
    assert [line.split()[0] for line in table] == list(programs)
    for line in table:
        for cell in line.split()[1:]:
            before, after = cell.split("->")
            assert before == after, line
    rows = [line.split() for line in lines if re.match(r"(fa_2x|r8_2x|nor2) ", line)]
    counts = {case: sum(r[0] == case for r in rows) for case in ("fa_2x", "r8_2x", "nor2")}
    assert counts["fa_2x"] == 8 and counts["nor2"] == 4 and counts["r8_2x"] > 32
    for case, _, a, b, z, p in rows:
        assert a == b and float(z) == 0 and float(p) == 1, (case, a, b, z, p)
    assert lines[-1].startswith(f"0 of {len(rows)} combinations differ")


def test_a_revision_unpacks_to_its_tree(tmp_path):
    inside = shutil.which("git") and subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--is-inside-work-tree"], capture_output=True)
    if not inside or inside.returncode:
        pytest.skip("not a git checkout")
    tree = compare_yield.unpack("HEAD", str(tmp_path / "tree"))
    assert tree == str(tmp_path / "tree")
    assert (tmp_path / "tree" / "src" / "gcpim" / "__init__.py").is_file()


def test_holm_adjusts_in_input_order():
    assert compare_yield.holm([0.01, 0.04, 0.03, 0.005]) == pytest.approx(
        [0.03, 0.06, 0.06, 0.02])
    assert compare_yield.holm([0.5, 0.9]) == [1.0, 1.0]


def test_two_proportion_z():
    # 90/100 against 80/100: pooled 0.85, se sqrt(0.85 * 0.15 * 0.02)
    assert compare_yield.two_proportion_z(90, 100, 80, 100) == pytest.approx(
        -0.1 / (0.85 * 0.15 * 0.02) ** 0.5)
    assert compare_yield.two_proportion_z(100, 100, 50, 50) == 0.0
