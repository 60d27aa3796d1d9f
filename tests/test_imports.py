"""Every imported name in the package, its tests and its tools is used,
every private module-level name of the package is used by the package, the
package exports every public name of its modules, only the GP stack and the
optimizer load scipy, only the GP stack loads scipy.optimize, no module
imports a private module or name of another library, only the ``grid``
command loads the oracle, and ``validate`` loads neither ``constraints`` nor
``dynamics``."""
import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import fourbar_synth

from conftest import REPO_ROOT


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import but never referenced; ``__all__``'s strings count as used."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    found = {}
    for path in sorted(path for glob in ("src/**/*.py", "tests/*.py", "tools/*.py") for path in REPO_ROOT.glob(glob)):
        names = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            found[str(path.relative_to(REPO_ROOT))] = names
    assert found == {}


def test_package_exports_every_module_export():
    expected = {"__version__"}
    for info in pkgutil.iter_modules(fourbar_synth.__path__):
        module = importlib.import_module(f"fourbar_synth.{info.name}")
        expected.update(getattr(module, "__all__", ()))
    assert len(fourbar_synth.__all__) == len(set(fourbar_synth.__all__))
    assert set(fourbar_synth.__all__) == expected
    assert all(hasattr(fourbar_synth, name) for name in expected)


def private_definitions(tree: ast.Module) -> list[str]:
    """Private (single-underscore) names bound at module level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def references(tree: ast.Module) -> set[str]:
    """Names read, attributes accessed and names imported anywhere in a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_private_name_is_used_by_the_package():
    # a private helper that only tests read is dead code in the package
    trees = {
        str(path.relative_to(REPO_ROOT)): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(REPO_ROOT.glob("src/**/*.py"))
    }
    used = set().union(*(references(tree) for tree in trees.values()))
    unused = {
        (path, name) for path, tree in trees.items() for name in private_definitions(tree) if name not in used
    }
    assert unused == set()


def test_star_import_binds_every_export_to_its_module_object():
    namespace = {}
    exec("from fourbar_synth import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(fourbar_synth.__all__)
    assert namespace["__version__"] == fourbar_synth.__version__
    for info in pkgutil.iter_modules(fourbar_synth.__path__):
        module = importlib.import_module(f"fourbar_synth.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert namespace[name] is getattr(module, name) is getattr(fourbar_synth, name)


def test_dir_lists_every_export():
    assert set(fourbar_synth.__all__) <= set(dir(fourbar_synth))


def imported_modules(tree: ast.AST, package: str, module_level: bool = False) -> set[str]:
    """Absolute names of the modules a tree imports, outside function bodies if ``module_level``."""
    found = set()
    nodes = list(ast.iter_child_nodes(tree))
    while nodes:
        node = nodes.pop()
        if module_level and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:  # ``from . import gp``
            found.update(f"{package}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add(f"{package}.{node.module}" if node.level else node.module)
    return found


def private_import_paths(tree: ast.AST) -> list[str]:
    """Absolute import paths, a ``from`` import's names included, with a component that starts with ``_``."""
    paths = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module != "__future__":
            paths.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return [path for path in paths if any(part.startswith("_") for part in path.split("."))]


def test_only_the_gp_stack_imports_scipy_and_the_cli_loads_it_lazily():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(REPO_ROOT.glob("src/fourbar_synth/*.py"))
    }
    scipy_users = {
        stem
        for stem, tree in trees.items()
        if any(m.split(".")[0] == "scipy" for m in imported_modules(tree, "fourbar_synth"))
    }
    assert scipy_users == {"gp", "optimizer"}
    optimize_users = {
        stem
        for stem, tree in trees.items()
        if any(m.split(".")[:2] == ["scipy", "optimize"] for m in imported_modules(tree, "fourbar_synth"))
    }
    assert optimize_users == {"gp"}
    # no private module or name of scipy (or of any other library)
    assert {stem: private_import_paths(tree) for stem, tree in trees.items()} == {stem: [] for stem in trees}
    at_cli_import = imported_modules(trees["cli"], "fourbar_synth", module_level=True)
    assert {"fourbar_synth.gp", "fourbar_synth.optimizer"}.isdisjoint(at_cli_import)


CLI_WITHOUT_SCIPY = """
import json, sys
from fourbar_synth.cli import main

config, out = sys.argv[1], sys.argv[2]
codes = [
    main(["validate", "--config", config]),
    main(["evaluate", "--config", config]),
    main(["trace", "--config", config, "--out", out + "/trace.csv"]),
    main(["grid", "--config", config, "--resolution", "3", "--out", out + "/grid.csv"]),
]
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from fourbar_synth import gp_fit
after = "scipy.optimize" in sys.modules
print(json.dumps({"codes": codes, "before": before, "after": after}))
"""


def run_fresh(script: str, out_dir) -> dict:
    """Run ``script`` on the canon config in a fresh interpreter; its last line of output as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    config = REPO_ROOT / "configs" / "canon.json"
    done = subprocess.run(
        [sys.executable, "-c", script, str(config), str(out_dir)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_evaluation_commands_never_import_scipy(tmp_path):
    result = run_fresh(CLI_WITHOUT_SCIPY, tmp_path)
    assert result == {"codes": [0, 0, 0, 0], "before": [], "after": True}
    assert (tmp_path / "trace.csv").is_file() and (tmp_path / "grid.csv").is_file()


CLI_WITHOUT_ORACLE = """
import json, sys
from fourbar_synth.cli import main

config, out = sys.argv[1], sys.argv[2]
codes = [
    main(["validate", "--config", config]),
    main(["evaluate", "--config", config]),
    main(["trace", "--config", config, "--out", out + "/trace.csv"]),
]
print(json.dumps({"codes": codes, "oracle": "fourbar_synth.oracle" in sys.modules}))
"""


def test_cli_commands_other_than_grid_never_import_the_oracle(tmp_path):
    # a cold ``validate`` is the benchmark's set-up; the oracle serves only ``grid``
    assert run_fresh(CLI_WITHOUT_ORACLE, tmp_path) == {"codes": [0, 0, 0], "oracle": False}


CLI_VALIDATE_ALONE = """
import json, sys
from fourbar_synth.cli import main

code = main(["validate", "--config", sys.argv[1]])
loaded = sorted(m for m in ("fourbar_synth.constraints", "fourbar_synth.dynamics") if m in sys.modules)
print(json.dumps({"code": code, "loaded": loaded}))
"""


def test_cli_validate_imports_neither_constraints_nor_dynamics(tmp_path):
    # validate walks the baseline and scores nothing, so a cold validate, the
    # benchmark's set-up, loads neither the scoring nor the torque module
    assert run_fresh(CLI_VALIDATE_ALONE, tmp_path) == {"code": 0, "loaded": []}
