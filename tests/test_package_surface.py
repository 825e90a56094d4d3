"""Package code has package callers, and package modules import only what they use.

Every function, method and class defined under ``src/charcol`` (dunders
aside) must be named, as an ``ast.Name`` or an ``ast.Attribute``, somewhere
in ``src/charcol`` or ``bench`` outside its own definition. Being imported in
``charcol/__init__.py`` does not count: an exported name needs a caller too.
Code that only the tests call belongs in the tests.

Uses are matched by name alone, so a method that shares its name with a
called one still passes unseen: ``ChainParams.to_json_dict`` had no caller,
but other classes' ``to_json_dict`` did.

Every name a module other than ``__init__.py`` imports must appear as an
``ast.Name`` in that module, unless its import line carries ``# noqa: F401``
(a deliberate re-export).

``assert`` statements vanish under ``python -O``, so invariants are checks that
raise; no module may hold an ``assert``.

The chain protocol is meant to replace dispatch on the chain's class, so no
module may hold more ``isinstance`` checks against a concrete chain class than
it does today.

Only ``chain.py`` may import ``SparseMatrix``: the matrix forms of X and Res
stay behind one module, and every other operator is applied along its edges.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "charcol"
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_package_definition_has_a_caller():
    package = {path: parse(path) for path in sorted(PACKAGE.rglob("*.py"))}
    callers = [tree for path, tree in package.items() if path != PACKAGE / "__init__.py"]
    callers += [parse(path) for path in sorted((ROOT / "bench").rglob("*.py"))]
    uses = defaultdict(list)
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append(node)
    unused = []
    for path, tree in package.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITION):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            inside = {id(inner) for inner in ast.walk(node)}
            if all(id(use) in inside for use in uses[node.name]):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unused, "defined but never used outside the tests:\n" + "\n".join(unused)


# The most assert statements each module may hold; a module not listed may
# hold none. Lower a count when an assert becomes a check that raises.
MAX_ASSERTS = {}


def test_no_module_gains_an_assert():
    counts = {path.name: sum(isinstance(node, ast.Assert) for node in ast.walk(parse(path)))
              for path in sorted(PACKAGE.rglob("*.py"))}
    over = {name: count for name, count in counts.items() if count > MAX_ASSERTS.get(name, 0)}
    assert not over, f"assert statements above the ratchet: {over}"


CHAIN_CLASSES = {"SymmetricChain", "WreathChain", "IngestedChain"}
# The most isinstance checks against a chain class each module may hold; a
# module not listed may hold none. Lower a count when a check becomes a method.
MAX_CHAIN_ISINSTANCE = {"chain.py": 1}


def names_a_chain_class(node) -> bool:
    if isinstance(node, ast.Tuple):
        return any(names_a_chain_class(elt) for elt in node.elts)
    if isinstance(node, ast.Name):
        return node.id in CHAIN_CLASSES
    return isinstance(node, ast.Attribute) and node.attr in CHAIN_CLASSES


def chain_isinstance_count(tree) -> int:
    return sum(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and names_a_chain_class(node.args[1])
        for node in ast.walk(tree)
    )


def test_chain_isinstance_count_sees_bare_dotted_and_tuple_classes():
    source = ("isinstance(c, SymmetricChain)\nisinstance(c, verify.IngestedChain)\n"
              "isinstance(c, (int, WreathChain))\nisinstance(c, int)\nisinstance(Chain, type)\n")
    assert chain_isinstance_count(ast.parse(source)) == 3


def test_no_module_gains_a_chain_isinstance():
    counts = {path.name: chain_isinstance_count(parse(path)) for path in sorted(PACKAGE.rglob("*.py"))}
    over = {name: count for name, count in counts.items()
            if count > MAX_CHAIN_ISINSTANCE.get(name, 0)}
    assert not over, f"isinstance checks on a chain class above the ratchet: {over}"


def test_every_package_import_is_used():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in names:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "imported but never used:\n" + "\n".join(unused)


# The package modules that may import ``SparseMatrix``, so that the matrix
# forms of X and Res stay behind one module; ``sparse.py`` defines it.
SPARSE_MATRIX_IMPORTERS = {"chain.py"}


def test_only_chain_imports_sparse_matrix():
    importers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(parse(path)):
            imported = isinstance(node, ast.ImportFrom) and any(
                alias.name == "SparseMatrix" for alias in node.names)
            # sparse.SparseMatrix, read through an import of the module
            if imported or isinstance(node, ast.Attribute) and node.attr == "SparseMatrix":
                importers.add(path.name)
    assert importers <= SPARSE_MATRIX_IMPORTERS, f"SparseMatrix imported outside chain.py: {importers}"
