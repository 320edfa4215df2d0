"""tools/golden_run.py --compare: ACCEPTANCE lines are matched by number."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_run.py"
_spec = importlib.util.spec_from_file_location("golden_run", TOOL)
golden_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_run)


def test_missing_acceptance_line_is_the_only_difference(tmp_path):
    lines = [f"ACCEPTANCE {n:02d} PASS criterion-{n}: measured {n}"
             for n in range(1, 15)]
    a = {"runs": {}, "acceptance": lines, "acceptance_exit": 0}
    b = dict(a, acceptance=[ln for ln in lines if not ln.startswith("ACCEPTANCE 10 ")])
    assert golden_run.compare(a, b, tmp_path, tmp_path) == ["ACCEPTANCE 10: only in A"]
