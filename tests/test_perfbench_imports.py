"""The benchmark harness's hold on the package: every name a perfbench
script imports from nbv, or reads as an attribute of an nbv module, exists.

A deletion from nbv that the benchmark still reaches fails here in seconds,
instead of only when the harness runs. The other way round, a top-level
definition in nbv that neither the package itself nor a perfbench script
names fails here too: only tests and demos reach it.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def nbv_paths(tree: ast.AST) -> set[str]:
    """Dotted nbv paths a module imports or reads: 'nbv.core.SequenceConfig'
    for a from-import, 'nbv.prediction.motion_search' for an attribute read
    through a name bound to nbv.prediction."""
    bound: dict[str, str] = {}  # local name -> the dotted path it stands for
    paths: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nbv":
            for alias in node.names:
                path = f"{node.module}.{alias.name}"
                paths.add(path)
                bound[alias.asname or alias.name] = path
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "nbv":
                    paths.add(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["nbv"] = "nbv"
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in bound:
            paths.add(".".join([bound[node.id], *reversed(attrs)]))
    return paths


def resolve(path: str):
    """The object a dotted path names, importing submodules on the way."""
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def all_paths() -> set[str]:
    return set().union(*(nbv_paths(ast.parse(p.read_text())) for p in SCRIPTS))


def test_walk_finds_the_harness_imports():
    paths = all_paths()
    for path in ("nbv.prediction.motion_search", "nbv.residual.dct8_inverse",
                 "nbv.gnn.TrainConfig", "nbv.encoder.encode_sequence",
                 "nbv.bitstream.parse_param_set", "nbv.core.SequenceConfig"):
        assert path in paths


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_every_nbv_name_resolves(script):
    for path in sorted(nbv_paths(ast.parse(script.read_text()))):
        try:
            resolve(path)
        except (AttributeError, ImportError) as e:
            pytest.fail(f"{script.name} uses {path}, which does not resolve: {e}")


SRC = Path(__file__).resolve().parent.parent / "src" / "nbv"


def names_read(node: ast.AST) -> set[str]:
    """Every name a piece of code reads or imports: plain names,
    attributes and the names of from-imports."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(alias.name for alias in n.names)
    return names


def test_every_package_definition_is_reached_outside_the_tests():
    # A top-level function or class of src/nbv that no other statement of
    # the package names, and no perfbench script reaches, serves only the
    # tests and demos: it belongs in the tests, or nowhere.
    statements = [(path.stem, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    reads = [names_read(stmt) for _, stmt in statements]
    harness = all_paths()
    unreached = sorted(
        f"{module}.{stmt.name}" for i, (module, stmt) in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and f"nbv.{module}.{stmt.name}" not in harness
        and not any(stmt.name in r for j, r in enumerate(reads) if j != i))
    assert not unreached, f"named only by tests and demos: {', '.join(unreached)}"
