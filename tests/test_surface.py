"""The library surface: every import is used, and every public name has a caller.

A public top-level name of ``src/uncollapse`` must be referenced from
another top-level definition in ``src/``, from a demo or from the
benchmark harness.  Names that only tests reach are listed in ALLOWED,
each with the reason it stays.  The check reads source only.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uncollapse"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))

# (module, name): why it stays although no product run reaches it
ALLOWED = {
    ("charge", "green_function"): "paper closed form",
    ("charge", "gaussian_likelihood"): "paper closed form",
    ("charge", "conditional_fpt_density"): "paper closed form",
    ("charge", "dimensionless_result"): "paper closed form",
    ("linalg", "basis_to_all_ones"): "test reference: the multiqubit steps' explicit rotation",
    ("linalg", "is_unitary"): "test reference: the unitarity oracle",
    ("measurement", "polar_decompose"): "test reference: an SVD route to U_m, independent of the eigenbasis one",
    ("multiqubit", "execute_plan"): "test reference: the per-run loop behind protocol_ensemble",
    ("trajectory", "wait_and_stop"): "walk path kept by the ROADMAP: the single-run wait-and-stop",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _defined(tree: ast.Module) -> dict:
    """Top-level names bound by definitions and assignments, each with its statement."""
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        out[node.id] = stmt
    return out


def _package_module(module: str | None, level: int, own_package: bool) -> str | None:
    """The submodule an import names: ``.x`` inside the package, ``uncollapse.x`` outside."""
    if level == 1 and own_package:
        return module
    if level == 0 and module and module.startswith("uncollapse."):
        return module.split(".", 1)[1]
    return None


def _bindings(tree: ast.Module, own_package: bool) -> dict:
    """Local names bound to a submodule ('module', m) or to one of its names ('name', m, attr)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = _package_module(node.module, node.level, own_package)
            from_package = (node.level == 1 and own_package and node.module is None) or (
                node.level == 0 and node.module == "uncollapse"
            )
            for alias in node.names:
                local = alias.asname or alias.name
                if from_package and alias.name in MODULES:
                    out[local] = ("module", alias.name)
                elif base in MODULES:
                    out[local] = ("name", base, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "uncollapse" and len(parts) == 2 and alias.asname:
                    out[alias.asname] = ("module", parts[1])
                elif parts[0] == "uncollapse":
                    out["uncollapse"] = ("package",)
    return out


def _references(tree: ast.Module, own: str | None) -> set:
    """(module, name) for every resolved use of a package name; a definition's uses of itself do not count."""
    bindings = _bindings(tree, own_package=own is not None)
    defined = _defined(tree) if own is not None else {}
    refs = set()

    def resolve_module(node):
        if isinstance(node, ast.Name):
            bound = bindings.get(node.id)
            return bound[1] if bound and bound[0] == "module" else None
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if bindings.get(node.value.id) == ("package",) and node.attr in MODULES:
                return node.attr
        return None

    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                bound = bindings.get(node.id)
                if bound and bound[0] == "name":
                    refs.add((bound[1], bound[2]))
                elif node.id in defined and defined[node.id] is not stmt:
                    refs.add((own, node.id))
            elif isinstance(node, ast.Attribute):
                module = resolve_module(node.value)
                if module is not None:
                    refs.add((module, node.attr))
    return refs


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_every_public_name_has_a_caller():
    referenced = set()
    for module in MODULES:
        referenced |= _references(_tree(PACKAGE / f"{module}.py"), module)
    for path in [*sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "benchmarks").glob("*.py"))]:
        referenced |= _references(_tree(path), None)

    uncalled = set()
    for module in MODULES:
        for name in _defined(_tree(PACKAGE / f"{module}.py")):
            if not name.startswith("_") and (module, name) not in referenced:
                uncalled.add((module, name))
    assert sorted(uncalled - ALLOWED.keys()) == []
    # an entry stays only while nothing else reaches its name
    assert sorted(ALLOWED.keys() - uncalled) == []
