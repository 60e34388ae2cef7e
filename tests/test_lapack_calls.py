"""Ratchet on the number of LAPACK factorizations per entry point at n = 8.

Counts calls of ``numpy.linalg.svd``, ``eigh``, ``eigvalsh`` and
``norm(..., 2)`` (an SVD) made by one call of each entry point, on the same
input shape the benchmark's ``linalg.entry_calls.*`` metrics use;
``extremal_sign_formula`` is the work of ``kreinproj extremal --which
sign-formula``: the construction plus its certificate.  The
bounds are the counts of the current code: a change may lower them, and
should lower the bound with them, but never raise them.  ``NORM2_BOUND``
caps the ``norm(..., 2)`` calls within ``full_report``'s count: tolerance
verdicts compute a spectral norm only when they depend on it.
"""

import numpy as np
import pytest

import kreinproj as kp

BOUNDS = {
    "full_report": 129,
    "extremal_contr_max": 6,
    "assemble_symmetry": 2,
    "extremal_sign_formula": 5,
}
NORM2_BOUND = 5


@pytest.fixture
def lapack_calls(monkeypatch):
    counts = {"n": 0, "norm2": 0}

    def counting(fn, only_ord2=False):
        def wrapped(*args, **kwargs):
            ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
            if not only_ord2 or ord_ == 2:
                counts["n"] += 1
                counts["norm2"] += only_ord2
            return fn(*args, **kwargs)

        return wrapped

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    monkeypatch.setattr(np.linalg, "norm", counting(np.linalg.norm, only_ord2=True))
    return counts


def _entry_points(seed):
    rng = np.random.default_rng([seed, 4])
    p = kp.random_idempotent(8, 4, 2.0, rng)
    bf = kp.block_form(p)
    proj, contr = kp.SymmetryFamily.J_PROJECTION, kp.SymmetryFamily.J_CONTRACTIVE
    j = kp.assemble_symmetry(bf, proj, kp.sample_params(bf, proj, 1, seed)[0])
    params = kp.sample_params(bf, contr, 1, seed + 1)[0]
    return {
        "full_report": lambda: kp.full_report(p, j, samples=1),
        "extremal_contr_max": lambda: kp.extremal_symmetry(p, kp.ExtremalKind.CONTR_MAX),
        "assemble_symmetry": lambda: kp.assemble_symmetry(bf, contr, params),
        "extremal_sign_formula": lambda: kp.extremal_checks(p, "sign-formula", kp.sign_formula_symmetry(p)),
    }


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("entry", sorted(BOUNDS))
def test_lapack_calls_at_most_bound(lapack_calls, entry, seed):
    call = _entry_points(seed)[entry]
    lapack_calls["n"] = 0
    call()
    assert lapack_calls["n"] <= BOUNDS[entry]


@pytest.mark.parametrize("seed", [1, 2])
def test_norm2_calls_in_full_report_at_most_bound(lapack_calls, seed):
    call = _entry_points(seed)["full_report"]
    lapack_calls["norm2"] = 0
    call()
    assert lapack_calls["norm2"] <= NORM2_BOUND
