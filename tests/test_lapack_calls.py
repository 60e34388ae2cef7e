"""Ratchet on the number of LAPACK factorizations per entry point at n = 8.

Counts calls of ``numpy.linalg.svd``, ``eigh``, ``eigvalsh`` and
``norm(..., 2)`` (an SVD) made by one call of each entry point, on the same
input shape the benchmark's ``linalg.entry_calls.*`` metrics use;
``cli_extremal_<kind>`` (``extremal_sign_formula`` for the sign-function
route) runs ``kreinproj extremal --which <kind>`` through ``cli.main`` and
``cli_gen_symmetry_for`` runs ``kreinproj gen symmetry-for``: the
construction plus its certificate.  An extreme reads the SVD of P and of
its corner, and its certificate judges its margin by Weyl's bound against
the family's model, built from that corner SVD, so it makes no
``eigvalsh`` of its own; the sign-function route diagonalizes P + P*
instead, reads the spectral parts of the shift P + P* - I off its
eigenpairs, takes ||P|| from the SVD of P, and its certificate reads the
corner SVD.  ``extremal_contr_max`` is the library call alone.
``negative_part_projection_formula`` runs on the corner of that input.
``assemble_symmetry`` is counted on a block form that has already
assembled one member, so it reuses that form's corner factors.  The
bounds are the counts of the current code: a change may lower them, and
should lower the bound with them, but never raise them.  ``NORM2_BOUND``
caps the ``norm(..., 2)`` calls within ``full_report``'s count: a Hermitian
matrix that is diagonalized takes its tolerance scale from its eigenvalues,
the handle of P takes ||P|| from the SVD its block form reads, and any
other verdict computes a spectral norm only when it depends on it.
``test_full_report_factors_each_matrix_once`` pins the n x n
factorizations of one report: P is put in block form by one SVD, which
also gives ||P||; I - P is not factored, its block form comes from P's
bases and P's corner SVD, and only its corner gets its own SVD; and
P + P*, i(P - P*) and the anchored block of the corner are each
diagonalized once; neither 2I - P - P* nor the sign-formula shift
P + P* - I is diagonalized, their spectral parts are read from the
eigenpairs of P + P*.  A stack of n x n
matrices counts one call per member.  A report makes no n x n ``eigvalsh``
where its certified bounds decide, whatever ``samples`` is: the probe
samples of a family and the extremes are certified by Weyl bounds whose only
eigenproblem is on a corner null space; the four split margins are Weyl
bounds against models built from the corner SVDs; J's relations J P,
J - P* J P and J (I - P) are bounded by their block models or by Rayleigh
quotients, on the inertia of the parameters the splits extract anyway; and
``complement-sum-spectra`` is bounded by Ostrowski's and Weyl's theorems
from the residual the report already computes.  An exact n x n eigenvalue
is taken only where a bound does not decide, so
``test_full_report_call_counts_are_pinned`` pins the counts of a report
where every bound decides: 8 with a J and 6 without at n = 8, rank 4, and 8
at n = 128, rank 64, with a projection-family J, the shape of the
benchmark's verify-large inputs.  The witness pair (Theorem 8(ii)) takes no
call, and ``test_the_witness_group_makes_no_lapack_call`` pins that its
checks read only values the handle holds once pos-min is built.
``test_full_report_factors_each_corner_once`` pins the corner SVDs: the
corners of P and of I - P are each factored once per report.
``HANDLE_BOUNDS`` holds one bound per public function that builds the
handle of its idempotent (``idempotents._on_handle`` and ``split_checks``),
so that a handle that factors more than its function reads shows up.
Both splits extract J's parameters on P (the SVD of P, the two diagonal
blocks and the corner SVD of the checked rebuild); ``positive_negative_split``
reads I - P's parameters off them and builds on I - P's derived form, whose
corner it does not factor.  The intertwiners are the identity, so
``intertwining_unitaries``, ``adjoint_similarity`` and
``complement_sum_equivalence`` factor only P and its corner, which I - P's
form is derived from; ``split_checks`` of a contractive/expansive split
factors P and its corner, whose SVD gives the margins' model, and so does
that of a positive/negative split (``split_checks_pn``): the model's root on
I - P's perp, T = (I + C C*)^(1/2), comes from P's corner SVD too.
``test_full_report_ambient_products_are_pinned`` counts the flops of the
ambient products beside the LAPACK calls: it loads a copy of the package in
which every ``a @ b`` is rewritten, by an ``ast.NodeTransformer``, into a
call that adds up m k n, and pins their sum over one ``full_report(p, j,
samples=5)`` at n = 128, rank 64, with a projection-family J, in units of
n^3 (``PRODUCT_NCUBES``), under the same rule as the bounds.
``ASSEMBLE_BOUNDS`` caps, by rank, the ``BlockForm.assemble`` calls and the
members they assemble in one ``full_report(samples=5)`` at n = 8 without a
J, under the same rule.  At rank 4 the corner is square and invertible, so
each family has one member, its least element: the report assembles
pos-min, contr-min is pos-min negated, each greatest element is its
family's least, and the probes assemble nothing; P's block-form round trip
multiplies out its zero and identity blocks without ``assemble``.  At rank
2, N(C) has dimension 4, so pos-max and the five positive probe samples
(one stacked call) are assembled too.  ``QR_CALLS`` pins the ``qr`` calls
that draw random symmetries: a probe's samples take one stacked QR per
free side of positive dimension and per stack of samples it certifies
(``verification._STACK_BYTES``), so that report makes one, for the
positive family, or three with stacks of two members; ``sample_params``
makes one per such side whatever the count.
"""

import ast
import importlib.abc
import importlib.machinery
import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest

import kreinproj as kp
from kreinproj import cli
from kreinproj.matrixio import write_matrix

BOUNDS = {
    "full_report": 8,
    "extremal_contr_max": 2,
    "assemble_symmetry": 0,
    "extremal_sign_formula": 3,
    "cli_extremal_pos_min": 2,
    "cli_extremal_pos_max": 2,
    "cli_extremal_contr_min": 2,
    "cli_extremal_contr_max": 2,
    "cli_gen_symmetry_for": 2,
    "negative_part_projection_formula": 1,
}
NORM2_BOUND = 0
HANDLE_BOUNDS = {
    "kernel_projections": 2,
    "extremal_symmetry": 2,
    "extremal_symmetry_via_blocks": 2,
    "sign_formula_symmetry": 1,
    "nonexistence_witnesses": 2,
    "extract_params": 4,
    "contractive_expansive_split": 4,
    "positive_negative_split": 4,
    "intertwining_unitaries": 2,
    "adjoint_similarity": 2,
    "complement_sum_equivalence": 2,
    "spectral_projection_identities": 5,
    "classify": 2,
    "contractive_positive_equivalence": 2,
    "extremal_checks": 2,
    "extremality_probe": 2,
    "split_checks": 2,
    "split_checks_pn": 2,
}
SQUARE_BOUNDS = {"svd": 1, "eigh": 3, "eigvalsh": 0}
# flops of the ambient products of one full_report(p, j, samples=5) at n = 128, rank 64, over n^3
PRODUCT_NCUBES = 70.625
# (calls, members) of BlockForm.assemble in one full_report(samples=5) at n = 8, by rank
ASSEMBLE_BOUNDS = {4: (1, 1), 2: (3, 7)}
# qr calls of one full_report(samples=5) at n = 8, rank 2, with its own stacks and with stacks of two
# members, and of sample_params(bf, family, 20, 0) there
QR_CALLS = {"full_report": 1, "full_report_two_per_stack": 3, "projection": 1, "positive": 1, "contractive": 0}


@pytest.fixture
def lapack_calls(monkeypatch):
    counts = {"n": 0, "norm2": 0, "shapes": []}

    def counting(fn, only_ord2=False):
        def wrapped(*args, **kwargs):
            ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
            if not only_ord2 or ord_ == 2:
                counts["n"] += 1
                counts["norm2"] += only_ord2
                counts["shapes"].append((fn.__name__, np.shape(args[0])))
            return fn(*args, **kwargs)

        return wrapped

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    monkeypatch.setattr(np.linalg, "norm", counting(np.linalg.norm, only_ord2=True))
    return counts


def _entry_points(seed, tmp_path):
    rng = np.random.default_rng([seed, 4])
    p = kp.random_idempotent(8, 4, 2.0, rng)
    bf = kp.block_form(p)
    proj, contr = kp.SymmetryFamily.J_PROJECTION, kp.SymmetryFamily.J_CONTRACTIVE
    j = kp.assemble_symmetry(bf, proj, kp.sample_params(bf, proj, 1, seed)[0])
    params = kp.sample_params(bf, contr, 1, seed + 1)[0]
    p_path, out = str(tmp_path / "p.json"), str(tmp_path / "j.json")
    write_matrix(p_path, p)

    def extremal(kind):
        return lambda: _cli_passes(["extremal", p_path, "--which", kind, "-o", out])

    gen_argv = ["gen", "symmetry-for", "--for", p_path, "--family", "contractive", "-o", out]
    return {
        "full_report": lambda: kp.full_report(p, j, samples=1),
        "extremal_contr_max": lambda: kp.extremal_symmetry(p, kp.ExtremalKind.CONTR_MAX),
        "assemble_symmetry": lambda: kp.assemble_symmetry(bf, contr, params),
        "extremal_sign_formula": extremal("sign-formula"),
        **{f"cli_extremal_{kind.value.replace('-', '_')}": extremal(kind.value) for kind in kp.ExtremalKind},
        "cli_gen_symmetry_for": lambda: _cli_passes(gen_argv),
        "negative_part_projection_formula": lambda: kp.negative_part_projection_formula(bf.corner),
    }


def _cli_passes(argv):
    assert cli.main(argv) == cli.EXIT_PASS


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("entry", sorted(BOUNDS))
def test_lapack_calls_at_most_bound(lapack_calls, entry, seed, tmp_path):
    call = _entry_points(seed, tmp_path)[entry]
    lapack_calls["n"] = 0
    call()
    assert lapack_calls["n"] <= BOUNDS[entry]


def _handle_calls(seed):
    """One call of each function of ``HANDLE_BOUNDS`` on the input of
    :func:`_entry_points`, its arguments built beforehand."""
    rng = np.random.default_rng([seed, 4])
    p = kp.random_idempotent(8, 4, 2.0, rng)
    bf = kp.block_form(p)
    proj = kp.SymmetryFamily.J_PROJECTION
    j = kp.assemble_symmetry(bf, proj, kp.sample_params(bf, proj, 1, seed)[0])
    split = kp.contractive_expansive_split(p, j)
    pos_max = kp.extremal_symmetry(p, kp.ExtremalKind.POS_MAX)
    kind, contr = kp.ExtremalKind.CONTR_MAX, kp.SymmetryFamily.J_CONTRACTIVE
    calls = {name: (p,) for name in HANDLE_BOUNDS}
    calls.update({name: (p, j) for name in (
        "extract_params", "contractive_expansive_split", "positive_negative_split", "classify",
        "contractive_positive_equivalence")})
    calls.update({
        "extremal_symmetry": (p, kp.ExtremalKind.POS_MAX),
        "extremal_symmetry_via_blocks": (p, kind),
        "extremal_checks": (p, "pos-max", pos_max),
        "extremality_probe": (p, contr, 3),
        "split_checks": (split, p, j),
        "split_checks_pn": (kp.positive_negative_split(p, j), p, j),
    })
    fns = {name: getattr(kp, "split_checks" if name == "split_checks_pn" else name) for name in calls}
    return {name: (lambda fn=fns[name], args=args: fn(*args)) for name, args in calls.items()}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(HANDLE_BOUNDS))
def test_lapack_calls_of_each_handle_function_at_most_bound(lapack_calls, name, seed):
    call = _handle_calls(seed)[name]
    lapack_calls["n"] = 0
    call()
    assert lapack_calls["n"] <= HANDLE_BOUNDS[name]


@pytest.mark.parametrize("seed", [1, 2])
def test_norm2_calls_in_full_report_at_most_bound(lapack_calls, seed, tmp_path):
    call = _entry_points(seed, tmp_path)["full_report"]
    lapack_calls["norm2"] = 0
    call()
    assert lapack_calls["norm2"] <= NORM2_BOUND


@pytest.mark.parametrize("samples", [1, 5])
def test_full_report_factors_each_matrix_once(lapack_calls, samples):
    rng = np.random.default_rng([1, 4])
    p = kp.random_idempotent(8, 4, 2.0, rng)
    bf = kp.block_form(p)
    proj = kp.SymmetryFamily.J_PROJECTION
    j = kp.assemble_symmetry(bf, proj, kp.sample_params(bf, proj, 1, 1)[0])
    lapack_calls["shapes"].clear()
    report = kp.full_report(p, j, samples=samples)
    assert "classification" in report.subject
    for name, bound in SQUARE_BOUNDS.items():
        # a stack of n x n matrices counts one call per member
        square = sum(math.prod(s[:-2]) for fn, s in lapack_calls["shapes"] if fn == name and s[-2:] == (8, 8))
        assert square <= bound, name


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n, with_j, calls", [(8, True, 8), (8, False, 6), (128, True, 8)])
def test_full_report_call_counts_are_pinned(lapack_calls, n, with_j, calls, seed):
    # P's SVD, the eigh of P + P*, i(P - P*) and the anchored corner block,
    # the two corner SVDs, and with a J the eigh of its two diagonal blocks:
    # every other decision is a bound that decides here
    rng = np.random.default_rng([seed, 2])
    p = kp.random_idempotent(n, n // 2, 2.0, rng)
    proj = kp.SymmetryFamily.J_PROJECTION
    bf = kp.block_form(p)
    j = kp.assemble_symmetry(bf, proj, kp.sample_params(bf, proj, 1, seed)[0]) if with_j else None
    lapack_calls["n"] = 0
    report = kp.full_report(p, j, samples=5)
    assert report.passed and ("classification" in report.subject) == with_j
    assert lapack_calls["n"] == calls


@pytest.mark.parametrize("rank, scale", [(0, 2.0), (3, 2.0), (4, 0.0), (8, 2.0)])
def test_the_witness_group_makes_no_lapack_call(lapack_calls, rank, scale):
    # pos-min's symmetry residual, ||P - P*|| and the corner's rank cutoff
    from kreinproj.idempotents import _handle
    from kreinproj.verification import _witness_checks

    f, _ = _handle(kp.random_idempotent(8, rank, scale, np.random.default_rng([1, 4])), kp.DEFAULT_TOL)
    kp.extremal_symmetry.on(f, kp.ExtremalKind.POS_MIN)
    lapack_calls["n"] = 0
    checks = list(_witness_checks(f, None))
    assert lapack_calls["n"] == 0
    assert len(checks) == (4 if 0 < rank < 8 and scale else 5)
    assert all(c.status == "pass" for c in checks)


def test_full_report_factors_each_corner_once(lapack_calls):
    # r = 3 at n = 8: the corner of P is 3 x 5 and that of I - P is 5 x 3
    p = kp.random_idempotent(8, 3, 2.0, np.random.default_rng([1, 4]))
    lapack_calls["shapes"].clear()
    kp.full_report(p, samples=1)
    corners = [s for fn, s in lapack_calls["shapes"] if fn == "svd" and s in ((3, 5), (5, 3))]
    assert len(corners) <= 2


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("rank", sorted(ASSEMBLE_BOUNDS))
def test_member_assemblies_in_full_report_at_most_bound(monkeypatch, rank, seed):
    # a stack of n x n members counts one call and one member per member
    p = kp.random_idempotent(8, rank, 2.0, np.random.default_rng([seed, 4]))
    members, real = [], kp.BlockForm.assemble

    def counted(self, *blocks):
        out = real(self, *blocks)
        members.append(math.prod(out.shape[:-2]))
        return out

    monkeypatch.setattr(kp.BlockForm, "assemble", counted)
    kp.full_report(p, samples=5)
    calls_bound, members_bound = ASSEMBLE_BOUNDS[rank]
    assert len(members) <= calls_bound
    assert sum(members) <= members_bound


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("what", sorted(QR_CALLS))
def test_qr_calls_are_pinned(monkeypatch, what, seed):
    # at rank 2 the corner is 2 x 6: N(C*) is empty and N(C) has dimension 4,
    # so the contractive probe draws nothing and the positive probe's samples take one QR a stack
    p = kp.random_idempotent(8, 2, 2.0, np.random.default_rng([seed, 4]))
    bf = kp.block_form(p)
    assert [m.shape[1] for m in bf.corner_split()] == [0, 2, 4, 2]
    calls, real = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: calls.append(a.shape) or real(a))
    if what.startswith("full_report"):
        if what == "full_report_two_per_stack":
            monkeypatch.setattr(kp.verification, "_STACK_BYTES", 2 * 16 * 8 * 8)
        kp.full_report(p, samples=5)
    else:
        assert len(kp.sample_params(bf, what, 20, 0)) == 20
    assert len(calls) == QR_CALLS[what]


_PACKAGE = pathlib.Path(kp.__file__).resolve().parent
_COUNTED = "kreinproj_counted_products"


class _MatMulToCall(ast.NodeTransformer):
    """Rewrite each ``a @ b`` as ``_matmul(a, b)``."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.MatMult):
            return node
        return ast.copy_location(ast.Call(ast.Name("_matmul", ast.Load()), [node.left, node.right], []), node)


class _CountingLoader(importlib.machinery.SourceFileLoader):
    """Load a module of the package with its products rewritten to call
    ``matmul``, compiled from its source: no bytecode cache is read or written."""

    def __init__(self, name, path, matmul):
        super().__init__(name, path)
        self.matmul = matmul

    def get_code(self, fullname):
        path = self.get_filename(fullname)
        tree = ast.fix_missing_locations(_MatMulToCall().visit(ast.parse(self.get_data(path), path)))
        return compile(tree, path, "exec", dont_inherit=True)

    def exec_module(self, module):
        module._matmul = self.matmul
        super().exec_module(module)


class _CountingFinder(importlib.abc.MetaPathFinder):
    """Find the package's modules under the name ``_COUNTED``, each with a :class:`_CountingLoader`."""

    def __init__(self, matmul):
        self.matmul = matmul

    def find_spec(self, name, path, target=None):
        if name != _COUNTED and not name.startswith(_COUNTED + "."):
            return None
        sub = name[len(_COUNTED) + 1:]
        source = str(_PACKAGE / (f"{sub}.py" if sub else "__init__.py"))
        return importlib.util.spec_from_file_location(
            name, source, loader=_CountingLoader(name, source, self.matmul),
            submodule_search_locations=None if sub else [str(_PACKAGE)])


@pytest.fixture
def counted_products():
    """A copy of the package whose products add their m k n to ``flops[0]``."""
    flops = [0]

    def matmul(a, b):
        out = a @ b
        flops[0] += np.size(out) * np.shape(a)[-1]
        return out

    finder = _CountingFinder(matmul)
    sys.meta_path.insert(0, finder)
    try:
        package = importlib.import_module(_COUNTED)
    finally:
        sys.meta_path.remove(finder)
        for name in [m for m in sys.modules if m == _COUNTED or m.startswith(_COUNTED + ".")]:
            del sys.modules[name]
    return package, flops


@pytest.mark.parametrize("seed", [1, 2])
def test_full_report_ambient_products_are_pinned(counted_products, seed):
    counted, flops = counted_products
    n = 128
    rng = np.random.default_rng([seed, 2])
    p = counted.random_idempotent(n, n // 2, 2.0, rng)
    proj = counted.SymmetryFamily.J_PROJECTION
    bf = counted.block_form(p)
    j = counted.assemble_symmetry(bf, proj, counted.sample_params(bf, proj, 1, seed)[0])
    flops[0] = 0
    report = counted.full_report(p, j, samples=5)
    assert report.passed and "classification" in report.subject
    assert flops[0] / n**3 == PRODUCT_NCUBES
