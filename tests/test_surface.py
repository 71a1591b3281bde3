"""Every public function and class of the package has a consumer."""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "maxdiss"
CONSUMERS = [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]

#: public names kept without a consumer in the package or the acceptance tests
EXEMPT = {
    "save_field",  # writes the forcing-file input format that load_field reads
}


def _referenced(node) -> set:
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}


def test_public_definitions_have_consumers():
    statements = [stmt for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    used = {id(stmt): _referenced(stmt) for stmt in statements}
    outside = set().union(*(_referenced(ast.parse(p.read_text())) for p in CONSUMERS))
    unused = []
    for node in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_") or node.name in EXEMPT:
            continue
        # a definition's references to itself do not count
        if node.name not in outside and not any(
                node.name in names for key, names in used.items() if key != id(node)):
            unused.append(node.name)
    assert not unused, f"public names nothing consumes: {unused}"
