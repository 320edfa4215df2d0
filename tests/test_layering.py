"""One owner for the discrete problem: only forcedwaves.frame imports from
scipy.linalg or calls frame.apply, so the rows and the linear algebra of the
collocation system are written in one module."""

import ast
from pathlib import Path

import pytest

import forcedwaves

SRC = Path(forcedwaves.__file__).parent
OTHERS = sorted(p.name for p in SRC.glob("*.py") if p.name != "frame.py")


def _violations(tree):
    """(line, what) for each scipy.linalg import and each use of frame.apply."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name) for alias in node.names
                    if alias.name.split(".")[:2] == ["scipy", "linalg"]]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if (module.split(".")[:2] == ["scipy", "linalg"]
                    or (module == "scipy" and "linalg" in names)
                    or (module.split(".")[-1] == "frame" and "apply" in names)):
                out.append((node.lineno, f"from {module} import"))
        elif (isinstance(node, ast.Attribute) and node.attr == "apply"
              and isinstance(node.value, ast.Name) and node.value.id == "frame"):
            out.append((node.lineno, "frame.apply"))
    return out


def test_the_check_sees_each_form():
    tree = ast.parse("import scipy.linalg\n"
                     "from scipy.linalg.lapack import dgtsv\n"
                     "from scipy import linalg\n"
                     "from .frame import apply\n"
                     "r = frame.apply(u, h, c, None)\n")
    assert [line for line, _ in _violations(tree)] == [1, 2, 3, 4, 5]


def test_modules_are_found():
    assert {"wavesolver.py", "pdesim.py"} <= set(OTHERS)


@pytest.mark.parametrize("name", OTHERS)
def test_only_frame_holds_the_discrete_problem(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    assert _violations(tree) == []
