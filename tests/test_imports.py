"""Every imported name in the package and its tests is used, every private
module-level name of the package is used by the package, and the package
exports every public name of its modules."""
import ast
import importlib
import pkgutil

import fourbar_synth

from conftest import REPO_ROOT


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import but never referenced; ``__all__`` entries count as used."""
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
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    found = {}
    for path in sorted([*REPO_ROOT.glob("src/**/*.py"), *REPO_ROOT.glob("tests/*.py")]):
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
