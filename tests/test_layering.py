"""The import layering of the package, read from its source with ``ast``.

The modules that construct (``idempotents``, ``symmetries`` and
``decompositions``) import neither ``reporting`` nor ``verification``:
certifying what they build is the job of ``verification`` alone.  And no
module imports a name it never uses, except the names ``__init__`` imports
from it to re-export.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "kreinproj"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
CONSTRUCTIONS = ("idempotents", "symmetries", "decompositions")
CERTIFIERS = ("reporting", "verification")


def _tree(module) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _imports(tree):
    """``(package module, bound name)`` for each name the module binds by an
    import, at any depth; the module is None outside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            local = node.level == 1
            for alias in node.names:
                bound = alias.asname or alias.name
                if local and node.module is None:  # from . import module
                    yield alias.name, bound
                else:
                    yield (node.module if local else None), bound
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield None, alias.asname or alias.name.split(".")[0]


def _reexported(module) -> set:
    """The names ``__init__`` imports from ``module``."""
    return {
        alias.asname or alias.name
        for node in ast.walk(_tree("__init__"))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
    }


def _used(tree) -> set:
    """The names the module reads, and the strings of its ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def test_every_module_is_read():
    assert set(CONSTRUCTIONS + CERTIFIERS) <= set(MODULES)


@pytest.mark.parametrize("module", CONSTRUCTIONS)
def test_constructions_import_no_certifier(module):
    imported = {source for source, _ in _imports(_tree(module))}
    assert not imported & set(CERTIFIERS)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_no_unused_imports(module):
    tree = _tree(module)
    unused = {name for _, name in _imports(tree)} - _used(tree) - _reexported(module)
    assert not unused


def _callers(module, callee) -> set:
    """``module.scope`` for each function or class of ``module`` (dotted, as
    nested) whose body calls ``callee``, by name or as an attribute."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == callee:
                    out.add(".".join([module, *scope]))
            visit(child, scope)

    visit(_tree(module), [])
    return out


def test_the_handle_is_built_only_where_p_is_admitted():
    # every function on P builds its handle through idempotents._handle, which
    # admits P; validate_idempotent asks the admission question, and
    # full_report records its answer as the idempotent gate
    built = set().union(*(_callers(module, "_Factors") for module in MODULES))
    assert built == {"idempotents._handle", "idempotents.validate_idempotent", "verification.full_report"}
