"""One owner for the discrete problem: only forcedwaves.frame imports from
scipy.linalg or calls frame.apply, so the rows and the linear algebra of the
collocation system are written in one module.  One owner for the output
files: only forcedwaves.cli imports forcedwaves.tables, so every CSV column
and JSON field is decided there.  One owner for the IMEX solve: pdesim
names no solve_banded and no numpy.linalg, so frame.factor, which chooses
the solve, is the only one it calls.  One owner for the experiment's
inputs: inside cli, only Run.__init__ names build_profile,
SolverConfig.default_for or minimal_tag, so every command solves with the
profile, solver config and target its Run built.  And no module imports
another module's private (underscore) names."""

import ast
from pathlib import Path

import pytest

import forcedwaves

SRC = Path(forcedwaves.__file__).parent
MODULES = sorted(p.name for p in SRC.glob("*.py"))
OTHERS = [name for name in MODULES if name != "frame.py"]


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


def _solves(tree):
    """(line, what) for each solve_banded named or imported, each import of
    numpy.linalg and each use of np.linalg: solves other than frame.factor
    that scipy.linalg's check does not see."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name) for alias in node.names
                    if alias.name.split(".")[:2] == ["numpy", "linalg"]]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if (module.split(".")[:2] == ["numpy", "linalg"]
                    or (module == "numpy" and "linalg" in names)
                    or "solve_banded" in names):
                out.append((node.lineno, f"from {module} import"))
        elif (isinstance(node, ast.Attribute)
              and node.attr in ("linalg", "solve_banded")):
            out.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id == "solve_banded":
            out.append((node.lineno, node.id))
    return out


def test_the_solve_check_sees_each_form():
    tree = ast.parse("import numpy.linalg\n"
                     "from numpy.linalg import solve\n"
                     "from numpy import linalg\n"
                     "from .frame import solve_banded\n"
                     "x = frame.solve_banded(ab, b)\n"
                     "y = np.linalg.solve(m, b)\n"
                     "z = solve_banded\n"
                     "w = frame.factor(ab, rows, left)(b)\n")
    assert sorted(line for line, _ in _solves(tree)) == [1, 2, 3, 4, 5, 6, 7]


def test_pdesim_solves_only_through_frame_factor():
    tree = ast.parse((SRC / "pdesim.py").read_text(encoding="utf-8"))
    assert _violations(tree) == [] and _solves(tree) == []
    assert any(isinstance(node, ast.Attribute) and node.attr == "factor"
               and isinstance(node.value, ast.Name)
               and node.value.id == "frame" for node in ast.walk(tree))


def _tables_imports(tree):
    """(line, what) for each import of forcedwaves.tables, relative or
    absolute; a top-level 'tables' is another package."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name) for alias in node.names
                    if alias.name.split(".")[:2] == ["forcedwaves", "tables"]]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            path = module.split(".") if module else []  # within the package
            if node.level == 0:
                if path[:1] != ["forcedwaves"]:
                    continue
                path = path[1:]
            names = {alias.name for alias in node.names}
            if path[:1] == ["tables"] or (not path and "tables" in names):
                out.append((node.lineno, f"from {'.' * node.level}{module} import"))
    return out


def test_the_tables_check_sees_each_form():
    tree = ast.parse("from .tables import write_csv\n"
                     "from . import analysis, tables\n"
                     "import forcedwaves.tables\n"
                     "from forcedwaves.tables import write_csv\n"
                     "from forcedwaves import tables\n"
                     "from .frame import apply\n"
                     "import tables\n"
                     "from tables import File\n")
    assert [line for line, _ in _tables_imports(tree)] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("name", [n for n in MODULES
                                  if n not in ("cli.py", "tables.py")])
def test_only_cli_writes_the_output_files(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    assert _tables_imports(tree) == []


def _private_imports(tree):
    """(line, name) for each underscore name imported from a sibling module;
    dunders such as __version__ are not private."""
    return [(node.lineno, f"{node.module or ''}.{alias.name}")
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level == 1 or (node.module or "").split(".")[0] == "forcedwaves")
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


def test_the_private_import_check_sees_each_form():
    tree = ast.parse("from .environment import _LAWS, TARGET_TAGS\n"
                     "from forcedwaves.cli import _SCHEMA\n"
                     "from . import frame, __version__, _hidden\n"
                     "from numpy import _core\n")
    assert _private_imports(tree) == [(1, "environment._LAWS"),
                                      (2, "forcedwaves.cli._SCHEMA"), (3, "._hidden")]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_private_names(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    assert _private_imports(tree) == []


_INPUT_BUILDERS = {"build_profile", "default_for", "minimal_tag"}


def _input_builders(tree):
    """(enclosing function's qualified name, what) for each use of
    build_profile, a default_for attribute or minimal_tag; a use outside
    any function is under '<module>'."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            name = (child.id if isinstance(child, ast.Name) else
                    child.attr if isinstance(child, ast.Attribute) else None)
            if name in _INPUT_BUILDERS:
                out.append((scope or "<module>", name))
            visit(child, scope)

    visit(tree, "")
    return out


def test_the_input_check_sees_each_form():
    tree = ast.parse("p = build_profile(cfg)\n"
                     "class Run:\n"
                     "    def __init__(self):\n"
                     "        s = SolverConfig.default_for(p)\n"
                     "def cmd_wave(run):\n"
                     "    t = minimal_tag(run.profile)\n"
                     "    f = build_profile\n")
    assert _input_builders(tree) == [
        ("<module>", "build_profile"), ("Run.__init__", "default_for"),
        ("cmd_wave", "minimal_tag"), ("cmd_wave", "build_profile")]


def test_only_run_builds_the_experiment_inputs():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    uses = _input_builders(tree)
    assert {name for _, name in uses} == _INPUT_BUILDERS
    assert {scope for scope, _ in uses} == {"Run.__init__"}
