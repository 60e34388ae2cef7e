"""The public contract of the functions that take an idempotent P and build
its handle: ``idempotents._on_handle`` makes seventeen of them from sixteen
bodies on the handle (``extremal_symmetry_via_blocks`` is another name of
``extremal_symmetry``), and ``split_checks`` is written by hand.

Each keeps its parameters (names, order, kinds and defaults, with ``tol``
positional), a docstring, and the error it raises for an idempotent that is
not one, for a J that is not a symmetry and for a J of another shape.  Each
admits P first, by ``idempotents._handle``: a P that is not idempotent is
refused with its residual whatever J is.  Enum arguments are also taken by
value, and a split's factors must have the shape of P and J.
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
NOT_SYMMETRIC = (NotSymmetry, "J is not a symmetry")

# name: (parameters, errors for a non-idempotent P, a non-symmetric J and a
# J of another shape); a parameter is a name or a (name, default) pair, and
# None is no error
CONTRACT = {
    "kernel_projections": (["p", "tol"], RESIDUAL, None, None),
    "block_form": (["p", "tol"], RESIDUAL, None, None),
    "extremal_symmetry": (["p", "kind", "tol"], RESIDUAL, None, None),
    "extremal_symmetry_via_blocks": (["p", "kind", "tol"], RESIDUAL, None, None),
    "sign_formula_symmetry": (["p", "tol"], RESIDUAL, None, None),
    "nonexistence_witnesses": (["p", "tol"], RESIDUAL, None, None),
    "extract_params": (["p", "j", "tol"], RESIDUAL, NOT_J_PROJECTION, SHAPE),
    "contractive_expansive_split": (["p", "j", "tol"], RESIDUAL, NOT_J_PROJECTION, SHAPE),
    "positive_negative_split": (["p", "j", "tol"], RESIDUAL, NOT_J_PROJECTION, SHAPE),
    "intertwining_unitaries": (["p", "tol"], RESIDUAL, None, None),
    "adjoint_similarity": (["p", "tol"], RESIDUAL, None, None),
    "complement_sum_equivalence": (["p", "tol"], RESIDUAL, None, None),
    "spectral_projection_identities": (["p", "tol"], RESIDUAL, None, None),
    "classify": (["p", "j", "tol"], RESIDUAL, NOT_SYMMETRIC, SHAPE),
    "contractive_positive_equivalence": (["p", "j", "tol"], RESIDUAL, NOT_SYMMETRIC, SHAPE),
    "extremal_checks": (["p", "which", "j", "tol"], RESIDUAL, None, SHAPE),
    "extremality_probe": (["p", "family", "samples", ("seed", 0), "tol"], RESIDUAL, None, None),
    "split_checks": (["split", "p", "j", "tol"], RESIDUAL, None, SHAPE),
}

# The other public functions whose parameters start with p, or with split
# and p: none of them admits P, and each says why
NO_ADMISSION = {
    "validate_idempotent": "answers whether P is idempotent",
    "full_report": "records a P that is not idempotent as its failed idempotent gate",
    "split_identity_residuals": "measures a split's identities against any P of its shape",
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


def test_the_witness_pair_is_returned_without_a_verdict():
    # Theorem 8(ii) is certified by the report's witness checks; the function
    # returns the pair alone, and the Loewner verdict it returned is gone
    j_a, j_b = kp.nonexistence_witnesses(P)
    assert j_a.tobytes() == (-j_b).tobytes()
    assert not hasattr(kp, "DominanceVerdict")


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


def test_every_function_on_p_is_in_the_contract():
    on_p = set()
    for name in dir(kp):
        fn = getattr(kp, name)
        if name.startswith("_") or inspect.isclass(fn) or not callable(fn):
            continue
        params = list(inspect.signature(fn).parameters)
        if params[:1] == ["p"] or params[:2] == ["split", "p"]:
            on_p.add(name)
    assert on_p == set(CONTRACT) | set(NO_ADMISSION)
    assert not set(CONTRACT) & set(NO_ADMISSION)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_p_is_admitted_before_j(name):
    # a J of another shape that is not a symmetry either is never looked at
    with pytest.raises(NotIdempotent) as info:
        getattr(kp, name)(*_args(name, NOT_IDEMPOTENT, np.ones((3, 3))))
    assert str(info.value) == RESIDUAL[1]


@pytest.mark.parametrize("name", sorted(CONTRACT))
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


def test_enum_arguments_are_taken_by_value():
    bf, eye = kp.block_form(P), np.eye(1)
    for family in kp.SymmetryFamily:
        for by_value, by_member in zip(kp.sample_params(bf, family.value, 2, 1), kp.sample_params(bf, family, 2, 1)):
            np.testing.assert_array_equal(by_value.on_range, by_member.on_range)
            np.testing.assert_array_equal(by_value.on_perp, by_member.on_perp)
    # (-I, I) meets the intertwining constraint, but the positive family fixes J1 = I
    with pytest.raises(kp.ConstraintViolated):
        kp.assemble_symmetry(bf, "positive", (-eye, eye))
    np.testing.assert_array_equal(kp.assemble_symmetry(bf, "positive", (eye, -eye)),
                                  kp.assemble_symmetry(bf, kp.SymmetryFamily.J_POSITIVE, (eye, -eye)))
    for kind in kp.ExtremalKind:
        np.testing.assert_array_equal(kp.extremal_symmetry(P, kind.value), kp.extremal_symmetry(P, kind))
    for family in (kp.SymmetryFamily.J_POSITIVE, kp.SymmetryFamily.J_CONTRACTIVE):
        assert kp.extremality_probe(P, family.value, 2) == kp.extremality_probe(P, family, 2)
    split = kp.SplitResult(np.eye(2), P, "contractive-expansive")
    assert split.kind is kp.SplitKind.CONTRACTIVE_EXPANSIVE
    assert kp.split_identity_residuals(split, P) == kp.split_identity_residuals(
        kp.SplitResult(np.eye(2), P, kp.SplitKind.CONTRACTIVE_EXPANSIVE), P)


def test_unknown_enum_values_are_refused():
    bf, eye = kp.block_form(P), np.eye(1)
    calls = [
        lambda: kp.sample_params(bf, "nope", 1),
        lambda: kp.assemble_symmetry(bf, "nope", (eye, eye)),
        lambda: kp.extremal_symmetry(P, "nope"),
        lambda: kp.extremality_probe(P, "nope", 2),
        lambda: kp.extremal_checks(P, "nope", J),
        lambda: kp.SplitResult(np.eye(2), np.eye(2), "nope"),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_forms_and_splits_compare_by_identity():
    # their fields are arrays, so == by field would have no truth value
    bf, again = kp.block_form(P), kp.block_form(P)
    split = kp.SplitResult(np.eye(2), np.eye(2), "positive-negative")
    same = kp.SplitResult(np.eye(2), np.eye(2), "positive-negative")
    for a, b in ((bf, again), (split, same)):
        assert a == a and a != b
        assert len({a, a, b}) == 2


@pytest.mark.parametrize("count", [0, -1, 2.0, "2", None, np.float64(1.0)])
def test_a_draw_count_is_an_integer_of_at_least_one(count):
    # sample_params and extremality_probe refuse the same counts the same way
    with pytest.raises(ValueError, match="count must be"):
        kp.sample_params(kp.block_form(P), "positive", count)
    with pytest.raises(ValueError, match="samples must be"):
        kp.extremality_probe(P, "positive", count)


@pytest.mark.parametrize("seed", [-1, 2.0, "2", [1, 2], np.float64(1.0)])
def test_a_draw_seed_is_none_or_a_nonnegative_integer(seed):
    # sample_params and extremality_probe refuse the same seeds the same way
    with pytest.raises(ValueError, match="seed must be"):
        kp.sample_params(kp.block_form(P), "positive", 1, seed)
    with pytest.raises(ValueError, match="seed must be"):
        kp.extremality_probe(P, "positive", 1, seed)


def test_retired_names_are_gone():
    # nothing in the package read them: polar's last caller went with the
    # factored intertwiners, and DegenerateBlock was no longer raised
    assert not {"polar", "PolarParts", "DegenerateBlock"} & set(dir(kp))


def test_a_draw_count_may_be_any_integer_type():
    draws = [kp.sample_params(kp.block_form(P), "projection", n, 3) for n in (2, np.int64(2))]
    for a, b in zip(*draws):
        np.testing.assert_array_equal(a.on_perp, b.on_perp)


def test_a_split_takes_its_factors_as_matrices():
    split = kp.SplitResult([[1, 0], [0, 1]], [1, 0], "positive-negative")
    assert split.e1.dtype == np.complex128 and split.e2.shape == (2, 1)
    with pytest.raises(kp.NonFinite):
        kp.SplitResult(np.full((2, 2), np.nan), np.eye(2), "positive-negative")


@pytest.mark.parametrize("kind", list(kp.SplitKind))
def test_split_factors_of_another_shape_are_refused(kind):
    split = kp.SplitResult(np.eye(3), np.eye(3), kind)
    calls = [
        (lambda: kp.split_checks(split, P, J), "split factor has shape (3, 3) but P has shape (2, 2)"),
        (lambda: kp.split_identity_residuals(split, P), "split factor has shape (3, 3) but P has shape (2, 2)"),
        (lambda: kp.split_classification_margins(split, J), "split factor has shape (3, 3) but J has shape (2, 2)"),
        (lambda: kp.split_identity_residuals(split, np.ones((3, 2))), "P must be square, got shape (3, 2)"),
    ]
    for call, message in calls:
        with pytest.raises(DimensionMismatch) as info:
            call()
        assert str(info.value) == message
