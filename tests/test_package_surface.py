"""Package code has package callers, and package modules import only what they use.

Every function, method and class defined under ``src/charcol`` (dunders
aside) must be named, as an ``ast.Name`` or an ``ast.Attribute``, somewhere
in ``src/charcol`` or ``bench`` outside its own definition. Being imported in
``charcol/__init__.py`` does not count: an exported name needs a caller too.
Code that only the tests call belongs in the tests.

Uses are matched by name alone, so a method that shares its name with a
called one still passes unseen: ``ChainParams.to_json_dict`` had no caller,
but other classes' ``to_json_dict`` did.

Every parameter of a package function must be read in its body, as an
``ast.Name``, beyond ``self`` and ``cls``: state or input that nothing reads
is a second path with no use. ``raise NotImplementedError`` stubs and the
parameters the chain and suite protocols fix are allowed.

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

The package's modules together may not grow: the same outputs should come
from the same code or less, and a change that adds a capability raises the
ratchet and says why.

Every command starts with ``import charcol``, so a fresh interpreter must
import the package and its command line without ``dataclasses`` or ``inspect``,
which cost more to import than the package's own modules.
"""

import ast
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

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


# Parameters a protocol fixes though the function does not need them: every
# chain's ``classes_at`` and every suite take ``max_order``, and every
# ``_twin_pairs`` takes the level below.
UNREAD_PARAMETERS = {
    ("SymmetricChain.classes_at", "max_order"),
    ("IngestedChain.classes_at", "max_order"),
    ("WreathChain._twin_pairs", "below"),
    ("heisenberg_suite", "max_order"),
    ("tasyopari_suite", "max_order"),
    ("lifting_suite", "max_order"),
}


def is_stub(node) -> bool:
    """Whether a function's body, its docstring aside, is one ``raise NotImplementedError``."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in ast.unparse(body[0].exc))


def unread_parameters(tree, prefix=""):
    """(qualified name, parameter) for each parameter its function's body never loads."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from unread_parameters(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a]
            read = {name.id for stmt in node.body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            if not is_stub(node):
                yield from ((f"{prefix}{node.name}", p) for p in params
                            if p not in read and p not in ("self", "cls"))
            yield from unread_parameters(node, f"{prefix}{node.name}.")
        else:
            yield from unread_parameters(node, prefix)


def test_unread_parameters_sees_methods_nested_functions_and_skips_stubs():
    source = ("def f(a, b, *rest, c, **kw):\n    return a + c\n"
              "class K:\n    def m(self, x):\n        def inner(y):\n            return x\n"
              "        return inner\n"
              "    def stub(self, z):\n        \"\"\"Doc.\"\"\"\n        raise NotImplementedError\n")
    assert list(unread_parameters(ast.parse(source))) == [
        ("f", "b"), ("f", "rest"), ("f", "kw"), ("K.m.inner", "y")]


def test_every_package_parameter_is_read():
    unread = {item for path in sorted(PACKAGE.rglob("*.py")) for item in unread_parameters(parse(path))}
    assert unread == UNREAD_PARAMETERS, (
        f"parameters nothing reads: {sorted(unread - UNREAD_PARAMETERS)}; "
        f"allowed but now read or gone: {sorted(UNREAD_PARAMETERS - unread)}")


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


def worded(pattern: str) -> list:
    """(module, line) of each string constant in the package that matches pattern."""
    return [(path.name, node.lineno) for path in sorted(PACKAGE.glob("*.py")) for node in ast.walk(parse(path))
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and re.search(pattern, node.value)]


def test_one_string_refuses_a_missing_level():
    """``Chain.check_level`` alone words the refusal of a level a chain does not have."""
    found = worded(r"has no level\b")
    assert len(found) == 1, f"'has no level' is worded in {found}"


@pytest.mark.parametrize("phrase", ["is not a class of chain", "does not fit"])
def test_one_string_refuses_a_class_or_a_class_above_its_level(phrase):
    """``Chain.check_class`` alone words the refusal of a tuple that is not a class, and
    ``Chain.fit_class`` alone that of a class above its level."""
    found = worded(re.escape(phrase))
    assert [name for name, _ in found] == ["chain.py"], f"{phrase!r} is worded in {found}"


def test_one_string_refuses_a_chain_without_a_sign_character():
    """``Chain.twin_pairs`` alone words the refusal that folds, twin tables, ``mirrored_order`` and
    ``odd_column`` raise."""
    found = worded(r"has no sign character")
    assert [name for name, _ in found] == ["chain.py"], f"'has no sign character' is worded in {found}"


# ``require_symmetric`` calls left: ``mckay.reduced_graph`` and ``cmd_column``'s
# ``--odd``, the two readers of the symmetric chain's Y. Lower it as each
# generalizes to every chain; never raise it.
MAX_REQUIRE_SYMMETRIC_CALLS = 2


def test_require_symmetric_is_called_no_more_often():
    calls = [(path.name, node.lineno) for path in sorted(PACKAGE.glob("*.py")) for node in ast.walk(parse(path))
             if isinstance(node, ast.Call) and "require_symmetric" in (getattr(node.func, "id", None),
                                                                      getattr(node.func, "attr", None))]
    assert len(calls) <= MAX_REQUIRE_SYMMETRIC_CALLS, f"require_symmetric is called at {calls}"


# The most lines ``src/charcol/*.py`` may hold together. Lower it when the
# package shrinks; raise it only with a capability that needs the lines.
MAX_SRC_LINES = 2610


def test_package_does_not_grow():
    total = sum(len(path.read_text().splitlines()) for path in sorted(PACKAGE.glob("*.py")))
    assert total <= MAX_SRC_LINES, f"src/charcol/*.py holds {total} lines, above the ratchet"


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    code = (f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\nimport charcol, charcol.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
