"""Every public function, class and method of the package has a consumer."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "maxdiss"
CONSUMERS = [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]

#: public names kept without a consumer in the package or the acceptance tests
EXEMPT = {
    "save_field",  # writes the forcing-file input format that load_field reads
}


def _references(node) -> Counter:
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def _public_definitions(module):
    """Public top-level functions and classes, and the public methods of those
    classes.  Methods are matched by name: a call of ``x.save`` consumes every
    public method named ``save``."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (fn for fn in node.body if isinstance(fn, ast.FunctionDef)
                            and not fn.name.startswith("_"))


def test_public_definitions_have_consumers():
    modules = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    everywhere = sum((_references(tree) for tree in
                      modules + [ast.parse(p.read_text()) for p in CONSUMERS]), Counter())
    # a definition's references to itself do not count
    unused = [node.name for module in modules for node in _public_definitions(module)
              if node.name not in EXEMPT
              and everywhere[node.name] == _references(node)[node.name]]
    assert not unused, f"public names nothing consumes: {unused}"
