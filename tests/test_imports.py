"""Every imported name in the package and its tests is used, and the package
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
