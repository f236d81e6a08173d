"""Every function, class and method in ``src/lbcut`` has a caller that ships.

A definition counts as used when its name is referenced outside its own
definition: as a name, an attribute or an imported name in another part of
the package (a re-export in ``__init__.py`` is not a use), or anywhere in
``benchmark/*.py``, whose string constants count too, so that the names the
benchmark's tracer patches are kept.  Helpers that only tests call belong
in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lbcut"

ALLOWED = {
    "oracle.brute_force_csp": "the DP's ground truth in the tests",
    "oracle.enumerate_short_paths": "the oracle's path lister, planned for "
                                    "brute_force_cut's own path",
    "io.write_td": "the writer paired with read_td",
}


def _references(tree: ast.AST, strings: bool = False) -> Counter:
    """Names, attributes and imported names in ``tree`` (and, with
    ``strings``, its string constants), with their counts."""
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.split(".")[-1]] += 1
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            refs[node.value] += 1
    return refs


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node) of every non-dunder function, class and
    method defined at module level or in a module-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item


def unreferenced() -> set[str]:
    trees = {p.stem: ast.parse(p.read_text(), str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    uses: Counter = Counter()
    for module, tree in trees.items():
        if module != "__init__":
            uses += _references(tree)
    for p in sorted((ROOT / "benchmark").glob("*.py")):
        uses += _references(ast.parse(p.read_text(), str(p)), strings=True)
    unused = set()
    for module, tree in trees.items():
        for qualified, node in _definitions(module, tree):
            if uses[node.name] <= _references(node)[node.name]:
                unused.add(qualified)
    return unused


def test_every_definition_has_a_caller_outside_the_tests():
    assert unreferenced() == set(ALLOWED)
