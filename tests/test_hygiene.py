"""Every name a module imports is used in it, and no module reaches into
another module's private names.

An AST scan, since no linter is a dependency: a name counts as used when the
module loads it anywhere (code, annotations, decorators), and a package's
re-exports count through its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = [path for part in ("src/metacluster", "tests", "scripts") for path in sorted((ROOT / part).glob("*.py"))]
PACKAGE = {path.stem for path in (ROOT / "src/metacluster").glob("*.py")}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line; ``__future__`` imports are
    compiler directives, not names."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns is not None:
            yield node.returns


def used_names(tree: ast.Module) -> set[str]:
    nodes = list(ast.walk(tree))
    # A string annotation names its types inside the string.
    for annotation in annotations(tree):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            nodes.extend(ast.walk(ast.parse(annotation.value, mode="eval")))
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = sorted(f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_no_unreferenced_private_definitions():
    # A private function, class or method nothing in the package names is
    # dead: say, a helper left behind when its last caller was deleted.
    package = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "src/metacluster").glob("*.py"))]
    defined, referenced = set(), set()
    for tree in package:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert private, "the scan found no private definitions"
    assert not private - referenced, f"private definitions nothing references: {sorted(private - referenced)}"


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def package_modules(tree: ast.Module) -> set[str]:
    """The names (dotted for a plain ``import``) that refer to a metacluster
    module in this file."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module == "metacluster" or (node.level and not node.module)):
            names.update(alias.asname or alias.name for alias in node.names if alias.name in PACKAGE)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name for alias in node.names if alias.name.split(".")[0] == "metacluster")
    return names


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.parent.name != "tests"], ids=lambda path: f"{path.parent.name}/{path.name}"
)
def test_no_private_names_of_other_modules(path):
    # A private name is its module's own business: ``mod._name`` or
    # ``from .mod import _name`` elsewhere ties the two modules together.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = package_modules(tree)
    reached = [
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and is_private(node.attr) and ast.unparse(node.value) in modules
    ]
    reached += [
        f"{alias.name} from {node.module} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("metacluster"))
        for alias in node.names
        if is_private(alias.name)
    ]
    assert not reached, f"{path.name} reaches into private names of metacluster modules: {', '.join(reached)}"
