"""The import layering of the package, read from its source with ``ast``.

The modules that construct (``idempotents``, ``symmetries`` and
``decompositions``) import neither ``reporting`` nor ``verification``:
certifying what they build is the job of ``verification`` alone.  And no
module imports a name it never uses, except the names ``__init__`` imports
from it to re-export.

Each rank decision is made once, by the object that holds the
factorization: a block form decides its corner's rank under the tolerances
it carries, so no function takes a tolerance beside a form, and the rank
cutoff is read in ``linalg`` alone.  Likewise every function of the corner C
(T, S, their inverses, T^(-1) C and ||C||) comes from one helper on the
corner's SVD, and no module forms T^(-1) C as a product.
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


def _scoped(module, match) -> set:
    """``module.scope`` for each function or class of ``module`` (dotted, as
    nested) whose body holds a node for which ``match`` is true."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                out.add(".".join([module, *scope]))
            visit(child, scope)

    visit(_tree(module), [])
    return out


def _calls(callee, with_arguments=False):
    """A ``match`` for :func:`_scoped`: a call of ``callee``, by name or as an
    attribute, with at least one argument when ``with_arguments``."""

    def match(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        named = (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == callee
        return named and (not with_arguments or bool(node.args or node.keywords))

    return match


def _callers(module, callee) -> set:
    """``module.scope`` for each function or class of ``module`` whose body
    calls ``callee``."""
    return _scoped(module, _calls(callee))


def test_the_handle_is_built_only_where_p_is_admitted():
    # every function on P builds its handle through idempotents._handle, which
    # admits P; validate_idempotent asks the admission question, and
    # full_report records its answer as the idempotent gate
    built = set().union(*(_callers(module, "_Factors") for module in MODULES))
    assert built == {"idempotents._handle", "idempotents.validate_idempotent", "verification.full_report"}


def test_the_corner_split_is_read_without_a_tolerance():
    # a form's corner_split() reads the one decision made under its own tol
    assert not set().union(*(_scoped(module, _calls("corner_split", True)) for module in MODULES))


def test_no_function_takes_a_tolerance_beside_a_block_form():
    both = set()
    for module in MODULES:
        for node in ast.walk(_tree(module)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
                if {"bf", "tol"} <= names:
                    both.add(f"{module}.{node.name}")
    assert not both


def test_the_rank_cutoff_is_read_only_in_linalg():
    # apart from the CLI's --tol-rank default and the report's config record
    def reads(node):
        return isinstance(node, ast.Attribute) and node.attr == "rank_tol" and isinstance(node.ctx, ast.Load)

    readers = set().union(*(_scoped(module, reads) for module in MODULES if module != "linalg"))
    assert readers == {"cli._add_tol_flags", "matrixio._config_to_doc"}


def _operands(node):
    """The operands of a chain of ``@`` products, left to right."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return _operands(node.left) + _operands(node.right)
    return [node]


def _reads(node) -> set:
    """The names and attributes an expression reads."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)} - {None}


def test_every_function_of_the_corner_comes_from_one_helper():
    # sqrt(1 + sigma^2) is formed in idempotents.CornerFunctions alone, and
    # the helpers it replaced are gone
    callers = set().union(*(_callers(module, "hypot") for module in MODULES))
    assert callers == {"idempotents.CornerFunctions.__init__"}
    defined = {node.name for module in MODULES for node in ast.walk(_tree(module))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"_corner_inv_sqrts", "_corner_root"}


def test_no_product_forms_tinv_times_the_corner():
    # T^(-1) C is read from the corner's singular values, never formed as a
    # product of T^(-1) with C
    products = set()
    for module in MODULES:
        for node in ast.walk(_tree(module)):
            matmul = isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            reads = [_reads(operand) for operand in _operands(node)] if matmul else []
            if any("tinv" in a for a in reads) and any("corner" in a for a in reads):
                products.add(f"{module}:{node.lineno}")
    assert not products
