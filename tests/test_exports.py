"""The package exports nothing that only the tests use.

A public function or class must be referenced somewhere in the package or in
the benchmark's non-test code, outside its own definition and outside
``rigidity/__init__.py``, which only re-exports.
"""

import ast
import inspect
from pathlib import Path

import rigidity as R

ROOT = Path(__file__).resolve().parents[1]


def _sources():
    package = ROOT / "src" / "rigidity"
    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            yield path
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):
            yield path


class _References(ast.NodeVisitor):
    """Names read as variables or attributes, outside a definition of that name."""

    def __init__(self):
        self.names = set()
        self._defining = []

    def _visit_definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_definition

    def _use(self, name):
        if name not in self._defining:
            self.names.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def test_every_public_function_and_class_is_used_outside_the_tests():
    refs = _References()
    for path in _sources():
        refs.visit(ast.parse(path.read_text(), filename=str(path)))
    exported = [
        name for name in R.__all__
        if (inspect.isfunction(getattr(R, name)) or inspect.isclass(getattr(R, name)))
        and getattr(R, name).__module__.startswith("rigidity.")
    ]
    assert len(exported) > 50
    unused = sorted(set(exported) - refs.names)
    assert unused == [], f"exported but used only by tests: {unused}"
