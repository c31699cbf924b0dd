"""Static checks on the package source, in place of a linter."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "holozeta"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: imported but never used (name: line) {unused}"


def _references(tree):
    """Names a module refers to: names, attributes, imported names and the
    parts of dotted strings such as "UPoly.rational_roots"."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.update(parts)
    return out


def test_every_definition_is_referenced():
    root = SRC.parent.parent
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for folder in ("src", "tests", "bench") for path in (root / folder).rglob("*.py")}
    referenced = set().union(*map(_references, trees.values()))
    dead = [f"{path.name}:{node.lineno} {node.name}"
            for path, tree in trees.items() if path.parent == SRC
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in referenced]
    assert not dead, f"defined in src/holozeta but never referenced: {dead}"



def _broad_handlers(tree):
    """(line, enclosing function) of each handler that catches every exception."""
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(t is None or isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
               for t in types):
            scope = parent[node]
            while scope is not tree and not isinstance(scope, ast.FunctionDef):
                scope = parent[scope]
            yield node.lineno, getattr(scope, "name", None)


def test_broad_handlers_only_in_cli_run():
    # cli.run maps every failure it does not know to exit 4; anywhere else a
    # broad handler would pass an internal failure off as something else
    found = [f"{path.name}:{line} in {scope}" for path in sorted(SRC.glob("*.py"))
             for line, scope in _broad_handlers(ast.parse(path.read_text()))
             if (path.name, scope) != ("cli.py", "run")]
    assert not found, f"broad exception handlers outside cli.run: {found}"

# the statistics of the last engine run; the run trace (ROADMAP item 1) removes it
ALLOWED_GLOBALS = {("weyl_core.py", "_LAST_STATS")}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_global_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{node.lineno} {name}" for node in ast.walk(tree) if isinstance(node, ast.Global)
             for name in node.names if (path.name, name) not in ALLOWED_GLOBALS]
    assert not found, f"{path.name}: global statements (line name) {found}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assignment_into_imported_modules(path):
    # such as mpmath.mp.prec = 80, which changes what every other user of the module sees
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Subscript)) and \
           isinstance(node.ctx, (ast.Store, ast.Del)):
            root = node
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"{node.lineno} {ast.unparse(node)}")
    assert not found, f"{path.name}: assignments into imported modules {found}"
