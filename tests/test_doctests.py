"""Doctests embedded in the library modules, the package's public names, and
a guard that every member of the package is used by the package itself."""
import ast
import doctest
import re
from collections import defaultdict
from pathlib import Path

import pytest

import toruscert
import toruscert.fatgraph
import toruscert.homology
import toruscert.perms

SRC = Path(toruscert.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

# members that nothing in the package calls, kept on purpose
UNREFERENCED_ALLOWED = {
    # ROADMAP items 5 and 6 may put these on a shipped path
    "homology.verify_relations": "the boundary relations of the gluing",
    "homology.check_fiber_distance": "the fiber-distance check",
    "homology.KleinSolution.boundary_1": "read by verify_relations",
    "homology.KleinSolution.boundary_2": "read by verify_relations",
    "perms.induced_permutation": "the permutation of a member-level family",
    "embedded.expand_decorated": "the member-level expansion of a configuration",
    "fatgraph.FatGraph.expand_edges": "called by expand_decorated",
    # the pruning-free oracle that perfbench/workloads.py imports
    "enumeration.brute_force_torus_classes": "perfbench reference oracle",
}


@pytest.mark.parametrize(
    "module",
    [toruscert.fatgraph, toruscert.homology, toruscert.perms],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    failures, attempted = doctest.testmod(module)
    assert failures == 0
    assert attempted > 0


def test_public_names_resolve():
    # a stale export breaks only ``from toruscert import *``
    missing = [name for name in toruscert.__all__ if not hasattr(toruscert, name)]
    assert missing == []


def test_public_names_are_the_documented_api():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    assert set(toruscert.__all__) == set(re.findall(r"^- `(\w+)", section, re.M))


def _definitions_and_uses():
    """The module-level functions and classes of the package and their
    methods, as ``(module.qualified name, node)``, and for each name read
    anywhere in the package, the definitions enclosing each read."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    definitions, uses = [], defaultdict(list)

    def walk(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                uses[child.id].append(inside)
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                uses[child.attr].append(inside)
            walk(child, inside + (child,) if isinstance(child, kinds) else inside)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, kinds):
                definitions.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                definitions += [
                    (f"{path.stem}.{node.name}.{m.name}", m)
                    for m in node.body if isinstance(m, kinds)
                ]
        walk(tree, ())
    return definitions, uses


def _is_click_command(node):
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def test_every_member_is_used_by_the_package():
    # a member that only the tests call belongs in the tests
    definitions, uses = _definitions_and_uses()
    assert set(UNREFERENCED_ALLOWED) <= {name for name, _ in definitions}
    unused = [
        name for name, node in definitions
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not _is_click_command(node)
        and name not in UNREFERENCED_ALLOWED
        and all(node in inside for inside in uses[node.name])
    ]
    assert unused == []
