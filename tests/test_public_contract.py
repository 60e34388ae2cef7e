"""The public contract of the functions that take an idempotent P and build
its handle: ``idempotents._on_handle`` makes sixteen of them from a body on
the handle, and ``split_checks`` is written by hand.

Each keeps its parameters (names, order, kinds and defaults, with ``tol``
positional), a docstring, and the error it raises for an idempotent that is
not one, for a J that is not a symmetry and for a J of another shape.
"""

import inspect

import numpy as np
import pytest

import kreinproj as kp
from kreinproj import DimensionMismatch, NotIdempotent, NotJProjection, NotSymmetry

EMPTY = inspect.Parameter.empty
POSITIONAL = inspect.Parameter.POSITIONAL_OR_KEYWORD
P = np.array([[1.0, 1.0], [0.0, 0.0]])
NOT_IDEMPOTENT = np.array([[1.0, 2.0], [3.0, 4.0]])
J = np.diag([1.0, -1.0])
NOT_SYMMETRY = np.array([[1.0, 1.0], [0.0, 1.0]])
WRONG_SHAPE = np.eye(3)

RESIDUAL = (NotIdempotent, "||P^2 - P|| = 2.383e+01 exceeds tolerance")
SHAPE = (DimensionMismatch, "J has shape (3, 3) but P has shape (2, 2)")
NOT_J_PROJECTION = (NotJProjection, "J is not a symmetry")

# name: (parameters, errors for a non-idempotent P, a non-symmetric J and a
# J of another shape); a parameter is a name or a (name, default) pair, and
# None is no error
CONTRACT = {
    "kernel_projections": (["p", "tol"], RESIDUAL, None, None),
    "extremal_symmetry": (
        ["p", "kind", "tol"], (NotIdempotent, "extremal_symmetry requires an idempotent input"), None, None),
    "extremal_symmetry_via_blocks": (["p", "kind", "tol"], RESIDUAL, None, None),
    "sign_formula_symmetry": (
        ["p", "tol"], (NotIdempotent, "sign_formula_symmetry requires an idempotent input"), None, None),
    "nonexistence_witnesses": (["p", "tol"], RESIDUAL, None, None),
    "extract_params": (["p", "j", "tol"], RESIDUAL, NOT_J_PROJECTION, SHAPE),
    "contractive_expansive_split": (["p", "j", "tol"], RESIDUAL, NOT_J_PROJECTION, SHAPE),
    "positive_negative_split": (["p", "j", "tol"], RESIDUAL, NOT_J_PROJECTION, SHAPE),
    "intertwining_unitaries": (["p", "tol"], RESIDUAL, None, None),
    "adjoint_similarity": (["p", "tol"], RESIDUAL, None, None),
    "complement_sum_equivalence": (["p", "tol"], RESIDUAL, None, None),
    "spectral_projection_identities": (["p", "tol"], RESIDUAL, None, None),
    "classify": (
        ["p", "j", "tol"], (NotIdempotent, "classify requires an idempotent P"),
        (NotSymmetry, "classify requires a symmetry J"), SHAPE),
    "contractive_positive_equivalence": (
        ["p", "j", "tol"], (NotIdempotent, "biconditional check requires an idempotent P"),
        (NotSymmetry, "biconditional check requires a symmetry J"), SHAPE),
    "extremal_checks": (["p", "which", "j", "tol"], None, None, SHAPE),
    "extremality_probe": (["p", "family", "samples", ("seed", 0), "tol"], RESIDUAL, None, None),
    "split_checks": (["split", "p", "j", "tol", ("prefix", "")], None, None, SHAPE),
}


def _args(name, p, j) -> tuple:
    """The positional arguments of one call of ``name`` on ``p`` and ``j``."""
    return {
        "extremal_symmetry": (p, kp.ExtremalKind.POS_MAX),
        "extremal_symmetry_via_blocks": (p, kp.ExtremalKind.POS_MAX),
        "extremal_checks": (p, "pos-max", j),
        "extremality_probe": (p, kp.SymmetryFamily.J_POSITIVE, 2, 0),
        "split_checks": (kp.SplitResult(np.eye(2), np.eye(2), kp.SplitKind.CONTRACTIVE_EXPANSIVE), p, j),
    }.get(name, (p, j) if CONTRACT[name][0][1] == "j" else (p,))


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_parameters_and_docstring(name):
    fn = getattr(kp, name)
    expected = [(q, EMPTY) if isinstance(q, str) else q for q in CONTRACT[name][0]]
    expected = [(q, kp.DEFAULT_TOL if q == "tol" else default) for q, default in expected]
    params = inspect.signature(fn).parameters.values()
    assert [(q.name, q.default) for q in params] == expected
    assert all(q.kind is POSITIONAL for q in params)
    assert fn.__doc__ and fn.__doc__.strip()


@pytest.mark.parametrize("case", ["not-idempotent", "not-symmetry", "wrong-shape"])
@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_errors(name, case):
    p, j = {"not-idempotent": (NOT_IDEMPOTENT, J), "not-symmetry": (P, NOT_SYMMETRY),
            "wrong-shape": (P, WRONG_SHAPE)}[case]
    error = CONTRACT[name][1 + ["not-idempotent", "not-symmetry", "wrong-shape"].index(case)]
    if error is None:
        getattr(kp, name)(*_args(name, p, j))
        return
    with pytest.raises(error[0]) as info:
        getattr(kp, name)(*_args(name, p, j))
    if error[1] is not None:
        assert str(info.value) == error[1]


@pytest.mark.parametrize("name", sorted(set(CONTRACT) - {"extremal_checks", "split_checks"}))
def test_tol_reaches_the_handle_by_position_and_by_keyword(name):
    # at residual_tol = 0 an orthogonal projection off by 1e-12 is not
    # idempotent, while J = diag(1, -1) is still exactly a symmetry
    p, strict = np.diag([1.0, 0.0]) + 1e-12, kp.Tolerances(residual_tol=0.0)
    fn, args = getattr(kp, name), _args(name, p, J)
    fn(*args)
    with pytest.raises(NotIdempotent):
        fn(*args, strict)
    with pytest.raises(NotIdempotent):
        fn(*args, tol=strict)


def test_arguments_outside_the_signature_are_refused():
    # a keyword argument outside the signature, one argument too many, and
    # one parameter given twice
    with pytest.raises(TypeError):
        kp.contractive_positive_equivalence(P, J, contractive=True)
    with pytest.raises(TypeError):
        kp.extremality_probe(P, kp.SymmetryFamily.J_POSITIVE, 2, 0, kp.DEFAULT_TOL, "x")
    with pytest.raises(TypeError):
        kp.extremal_symmetry(P, kp.ExtremalKind.POS_MAX, kind=kp.ExtremalKind.POS_MIN)


def test_on_is_the_body_on_a_handle():
    from kreinproj.idempotents import _Factors

    f = _Factors(P.astype(complex), kp.DEFAULT_TOL)
    np.testing.assert_array_equal(
        kp.extremal_symmetry.on(f, kp.ExtremalKind.POS_MAX), kp.extremal_symmetry(P, kp.ExtremalKind.POS_MAX))
    assert kp.extremal_symmetry.on(f, kp.ExtremalKind.POS_MAX) is kp.extremal_symmetry.on(f, kp.ExtremalKind.POS_MAX)
    # keyword arguments bind by name, as the signature says
    assert kp.extremality_probe(P, kp.SymmetryFamily.J_POSITIVE, samples=2, seed=1).subject["samples"] == 2
