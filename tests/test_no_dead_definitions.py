"""Every definition in the package has a caller outside itself.

Each module of `src/prismal` except `__init__.py` (which holds only the
package docstring and `__version__`, see the last test) is parsed, and its
top-level functions and classes and the non-dunder methods of those classes
are listed.  A definition is used when its name is
read, as a name or as an attribute, somewhere outside its own body: in the
package, in `scripts/`, or as a stage that `perfbench/layers.py` traces.
`cli.main` is the console entry point.  Every other definition must be in
KEPT with its reason, and KEPT must name nothing that has a caller.

The match is by name alone, so a member whose name another attribute
shares passes unseen: `Form.degree` (read as `args.degree`), and
`PrismalSet.dim` and `SimplicialComplex.dim` (read as `Simplex.dim`) had
no reader outside the tests before they were deleted.
"""

import ast
from pathlib import Path

from test_traced_names import TRACED

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "prismal").glob("*.py")
                 if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
ENTRY_POINT = "cli.main"  # [project.scripts] in pyproject.toml

KEPT = {
    "sheaf.psi_morphism": "the paper's blow-down of the trivialized sheaf onto the "
                          "raw one, which the factorization tests check",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(path: Path):
    """(qualified name, name, first line, last line) of each definition."""
    module = path.stem
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _reads(path: Path):
    """(name, line) of every name and attribute the file reads."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def unused_definitions() -> set[str]:
    reads: dict[str, list[tuple[Path, int]]] = {}
    for path in MODULES + SCRIPTS:
        for name, line in _reads(path):
            reads.setdefault(name, []).append((path, line))
    used = {".".join(p for p in t if p) for t in TRACED} | {ENTRY_POINT}
    unused = set()
    for path in MODULES:
        for qualname, name, first, last in _definitions(path):
            outside = [(p, line) for p, line in reads.get(name, [])
                       if p != path or not first <= line <= last]
            if qualname not in used and not outside:
                unused.add(qualname)
    return unused


def test_every_definition_has_a_caller_or_a_reason():
    unused = unused_definitions()
    assert all(KEPT.values())
    assert unused == set(KEPT), {"no caller": sorted(unused - set(KEPT)),
                                 "stale in KEPT": sorted(set(KEPT) - unused)}


def test_package_init_holds_only_its_docstring_and_version():
    """Each name has one import path, its module: `__init__.py` re-exports
    nothing, so the public API cannot regrow there unseen."""
    body = ast.parse((ROOT / "src" / "prismal" / "__init__.py").read_text()).body
    assert [type(node) for node in body] == [ast.Expr, ast.Assign], \
        [ast.dump(node) for node in body]
    assert isinstance(body[0].value.value, str)
    assert ast.unparse(body[1].targets[0]) == "__version__"
