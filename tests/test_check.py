"""rigidity.check, the module that decides re-verification, shares no code
with the finder: its import closure is check, graphcore and spectra."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rigidity"
FINDER = {"scipy", "certify", "isotypics", "sdpfeas", "symmetry", "pipeline"}


def _imports(module: str) -> tuple[set[str], set[str]]:
    """The package modules that module imports, and every module it names.

    `from . import x` counts as the package's __init__ unless x is a module
    file, since it then reads a name that __init__ binds.
    """
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    relative, named = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                relative.add(node.module.split(".")[0])
            else:
                relative.update(a.name if (PACKAGE / f"{a.name}.py").is_file()
                                else "__init__" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            named.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            named.update(a.name.split(".")[0] for a in node.names)
    return relative, named | relative


def test_checker_imports_only_graphcore_and_spectra():
    closure, todo = set(), ["check"]
    while todo:
        module = todo.pop()
        if module not in closure:
            closure.add(module)
            todo.extend(_imports(module)[0])
    assert closure == {"check", "graphcore", "spectra"}
    for module in sorted(closure):
        assert not _imports(module)[1] & FINDER, module
