"""Every public function, class and method of the package is used inside the
package, and the package imports nothing but the standard library and numpy."""

import ast
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "maxdiss"

#: public names kept without a consumer in the package
EXEMPT = {
    "save_field",  # writes the forcing-file input format that load_field reads
}


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


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
    modules = _modules().values()
    everywhere = sum((_references(tree) for tree in modules), Counter())
    # a definition's references to itself do not count
    unused = [node.name for module in modules for node in _public_definitions(module)
              if node.name not in EXEMPT
              and everywhere[node.name] == _references(node)[node.name]]
    assert not unused, f"public names nothing in the package consumes: {unused}"


def test_package_imports_only_the_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "maxdiss"}
    foreign = [f"{name}:{node.lineno}: {module}"
               for name, tree in _modules().items() for node in ast.walk(tree)
               for module in ([a.name for a in node.names] if isinstance(node, ast.Import)
                              else [node.module] if isinstance(node, ast.ImportFrom)
                              and node.level == 0 else [])
               if module.split(".")[0] not in allowed]
    assert not foreign, f"imports of neither the stdlib, numpy nor maxdiss: {foreign}"
