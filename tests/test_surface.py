"""Every public function, class and method and every private top-level function and
class of the package is used inside the package, the package imports nothing but
the standard library and numpy, and it reads array files in one place, never with
pickles."""

import ast
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "maxdiss"

#: public names kept without a consumer in the package
EXEMPT = {
    "save_field",  # writes the forcing-file input format that load_field reads
    "load_selected",  # rebuilds the selected trajectory, the deliverable, from a run tree
}


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _decorators(fn) -> set:
    return {d.id if isinstance(d, ast.Name) else d.attr for d in fn.decorator_list
            if isinstance(d, (ast.Name, ast.Attribute))}


def _is_classmethod(fn) -> bool:
    return "classmethod" in _decorators(fn)


def _is_plain_method(fn) -> bool:
    """A method read by calling it: no property, cached property or classmethod."""
    return not _decorators(fn) & {"property", "cached_property", "classmethod"}


def _references(node) -> Counter:
    """Names and attributes referenced under ``node``; a call of a classmethod
    through its class, ``C.m`` or ``cls.m`` inside C, also counts as "C.m", and
    a call ``x.m(...)`` also counts as "m()", the one use of a plain method."""
    refs = Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))
    refs.update(f"{sub.func.attr}()" for sub in ast.walk(node)
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute))
    classes = [c for c in ast.walk(node) if isinstance(c, ast.ClassDef)]
    owner = {id(sub): c.name for c in classes for sub in ast.walk(c)}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            cls = owner.get(id(sub)) if sub.value.id == "cls" else sub.value.id
            refs[f"{cls}.{sub.attr}"] += 1
    return refs


def _method_key(cls, fn) -> str:
    if _is_classmethod(fn):
        return f"{cls.name}.{fn.name}"
    return f"{fn.name}()" if _is_plain_method(fn) else fn.name


def _public_definitions(module):
    """(name, node) of the public top-level functions and classes, and of the
    public methods of those classes.  Methods are matched by name: a call
    ``x.save(...)`` consumes every plain public method named ``save``, under the
    name "save()", where reading ``x.save`` does not; a property by reading it; a
    classmethod ``C.m`` only by a call through its class, under the name "C.m"."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((_method_key(node, fn), fn) for fn in node.body
                            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"))


def _private_definitions(module):
    """(name, node) of the private top-level functions and classes."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            yield node.name, node


def _unconsumed(definitions, modules=None) -> list:
    """The names of ``definitions(module)`` that nothing else in the package (or in
    ``modules``, parsed sources) references; a definition's references to itself do
    not count."""
    modules = list((modules or _modules()).values())
    everywhere = sum((_references(tree) for tree in modules), Counter())
    return [name for module in modules for name, node in definitions(module)
            if name not in EXEMPT and everywhere[name] == _references(node)[name]]


def test_public_definitions_have_consumers():
    unused = _unconsumed(_public_definitions)
    assert not unused, f"public names nothing in the package consumes: {unused}"


def test_a_method_only_read_as_an_attribute_has_no_consumer():
    # ``grid.coeffs`` reads a field of another class: it neither calls the
    # method ``coeffs`` nor would count for it, while reading a property is its use
    source = """
class Forcing:
    def coeffs(self, n):
        return n

    def curl(self, n):
        return n

    @property
    def size(self):
        return 1

def use(forcing, field):
    return field.coeffs, forcing.curl(2), forcing.size

use(Forcing(), None)
"""
    assert _unconsumed(_public_definitions, {"m.py": ast.parse(source)}) == ["coeffs()"]


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


def _is_numpy_attribute(node, names) -> bool:
    """Whether ``node`` is np.<...>.name or numpy.<...>.name with name in ``names``."""
    root = node
    while isinstance(root, ast.Attribute):
        root = root.value
    return (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(root, ast.Name) and root.id in ("np", "numpy"))


def test_array_files_are_read_only_by_load_samples():
    # one reader of .npy files, which checks every file before its payload is copied
    readers, found = {"load", "fromfile", "memmap", "open_memmap"}, []
    for name, tree in _modules().items():
        owner = {id(sub): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for sub in ast.walk(fn)}  # the innermost function: ast.walk is breadth-first
        found += [(name, owner.get(id(sub))) for sub in ast.walk(tree)
                  if _is_numpy_attribute(sub, readers)]
    assert found == [("fields.py", "load_samples")], found


def test_no_array_file_is_read_or_written_with_pickles():
    # an object array in a .npy file is a pickle, which runs code when loaded
    unsafe = [f"{name}:{node.lineno}" for name, tree in _modules().items()
              for node in ast.walk(tree) if isinstance(node, ast.keyword)
              and node.arg == "allow_pickle"
              and not (isinstance(node.value, ast.Constant) and node.value.value is False)]
    assert not unsafe, f"allow_pickle other than False: {unsafe}"
