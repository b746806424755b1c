"""Every name a flowhand module imports is used.

A name counts as used when the module reads it, when another flowhand
module imports it from there, or when the module lists it in __all__.
So a deletion that leaves an import behind fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flowhand"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree: ast.Module):
    """(bound name, flowhand module it comes from or None, imported name)
    for each name the module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], None, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = None
            if node.level == 1 and node.module:
                source = node.module
            elif node.level == 0 and (node.module or "").startswith("flowhand."):
                source = node.module.removeprefix("flowhand.")
            for alias in node.names:
                yield alias.asname or alias.name, source, alias.name


def _read_names(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


def test_every_imported_name_is_used():
    trees = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    reexported = {(source, name) for tree in trees.values()
                  for _, source, name in _imports(tree) if source is not None}
    unused = [f"{module}.{bound}" for module, tree in trees.items()
              for bound, _, _ in _imports(tree)
              if bound not in _read_names(tree) and (module, bound) not in reexported]
    assert unused == []
