"""Every public function, class and method and every private top-level function and
class of the package is used inside the package, and the package imports nothing but
the standard library and numpy."""

import ast
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "maxdiss"

#: public names kept without a consumer in the package
EXEMPT = {
    "save_field",  # writes the forcing-file input format that load_field reads
    "certify",  # the one-trajectory case of certify_members, the certifier's entry point
}


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _is_classmethod(fn) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "classmethod" for d in fn.decorator_list)


def _references(node) -> Counter:
    """Names and attributes referenced under ``node``; a call of a classmethod
    through its class, ``C.m`` or ``cls.m`` inside C, also counts as "C.m"."""
    refs = Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))
    classes = [c for c in ast.walk(node) if isinstance(c, ast.ClassDef)]
    owner = {id(sub): c.name for c in classes for sub in ast.walk(c)}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            cls = owner.get(id(sub)) if sub.value.id == "cls" else sub.value.id
            refs[f"{cls}.{sub.attr}"] += 1
    return refs


def _public_definitions(module):
    """(name, node) of the public top-level functions and classes, and of the
    public methods of those classes.  Methods are matched by name: a call of
    ``x.save`` consumes every public method named ``save``; a classmethod
    ``C.m`` only by a call through its class, under the name "C.m"."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{fn.name}" if _is_classmethod(fn) else fn.name, fn)
                            for fn in node.body if isinstance(fn, ast.FunctionDef)
                            and not fn.name.startswith("_"))


def _private_definitions(module):
    """(name, node) of the private top-level functions and classes."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            yield node.name, node


def _unconsumed(definitions) -> list:
    """The names of ``definitions(module)`` that nothing else in the package references;
    a definition's references to itself do not count."""
    modules = _modules().values()
    everywhere = sum((_references(tree) for tree in modules), Counter())
    return [name for module in modules for name, node in definitions(module)
            if name not in EXEMPT and everywhere[name] == _references(node)[name]]


def test_public_definitions_have_consumers():
    unused = _unconsumed(_public_definitions)
    assert not unused, f"public names nothing in the package consumes: {unused}"


def test_private_definitions_have_consumers():
    # a private kernel that only tests call is dead code of the package
    unused = _unconsumed(_private_definitions)
    assert not unused, f"private names nothing in the package consumes: {unused}"


def test_package_imports_only_the_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "maxdiss"}
    foreign = [f"{name}:{node.lineno}: {module}"
               for name, tree in _modules().items() for node in ast.walk(tree)
               for module in ([a.name for a in node.names] if isinstance(node, ast.Import)
                              else [node.module] if isinstance(node, ast.ImportFrom)
                              and node.level == 0 else [])
               if module.split(".")[0] not in allowed]
    assert not foreign, f"imports of neither the stdlib, numpy nor maxdiss: {foreign}"
