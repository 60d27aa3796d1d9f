"""Every imported name in the package and its tests is used."""
import ast

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
