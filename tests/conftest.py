"""Shared generators for the test suite."""

import numpy as np
from hypothesis import strategies as st

from kreinproj import haar_unitary, random_idempotent


def random_hermitian(n, seed, spread=2.0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return spread * 0.5 * (z + z.conj().T)


def random_complex(shape, seed, magnitude=1.0):
    rng = np.random.default_rng(seed)
    return magnitude * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)) / np.sqrt(2)


def idempotent_cases(count, seed=0, max_dim=12, corner_scales=(0.0, 0.5, 2.0)):
    """Deterministic stream of (p, n, r) triples covering all ranks and scales."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(2, max_dim + 1))
        r = int(rng.integers(0, n + 1))
        cs = corner_scales[i % len(corner_scales)]
        p = random_idempotent(n, r, cs, seed=1000 * seed + i)
        out.append((p, n, r))
    return out


def projector_onto(column):
    """Rank-one orthogonal projection onto the span of a vector."""
    v = np.asarray(column, dtype=complex).reshape(-1, 1)
    return (v @ v.conj().T) / float(np.vdot(v, v).real)


def structured_idempotent(n, r, corner, seed):
    """Idempotent with a prescribed corner block, conjugated by a Haar unitary."""
    corner = np.asarray(corner, dtype=complex)
    assert corner.shape == (r, n - r)
    core = np.zeros((n, n), dtype=complex)
    core[:r, :r] = np.eye(r)
    core[:r, r:] = corner
    w = haar_unitary(n, seed)
    return w @ core @ w.conj().T


@st.composite
def wide_corner_idempotents(draw, low=-8, high=4, rank_tol=None, half=False):
    """An idempotent whose r x (n-r) corner has log-uniform singular values in
    [10^low, 10^high], with r in {0, 1, n-1, n} (and n // 2 with ``half``)
    or anywhere: a rectangular corner leaves a null space on its longer
    side, where the probe samples differ, and a square one none.  With a
    ``rank_tol``, the smallest of two or more singular values is sometimes
    drawn within 10x of the rank cutoff ``rank_tol * max(1, sigma_max)``
    instead."""
    n = draw(st.integers(2, 7))
    ranks = [0, 1, n - 1, n] + ([n // 2] if half else [])
    r = draw(st.sampled_from([*ranks, draw(st.integers(0, n))]))
    q = min(r, n - r)
    sigma = 10.0 ** np.array(draw(st.lists(st.floats(low, high), min_size=q, max_size=q)))
    if rank_tol is not None and q > 1 and draw(st.booleans()):
        sigma[np.argmin(sigma)] = rank_tol * max(1.0, sigma.max()) * 10.0 ** draw(st.floats(-1, 1))
    return corner_idempotent(n, r, sigma, draw(st.integers(0, 2**16)))


def corner_idempotent(n, r, sigma, seed):
    """The idempotent of rank r whose corner has singular values ``sigma``,
    its bases drawn from ``seed``: one draw of :func:`wide_corner_idempotents`."""
    q = min(r, n - r)
    u, v = haar_unitary(r, seed), haar_unitary(n - r, seed + 1)
    return structured_idempotent(n, r, (u[:, :q] * sigma) @ v[:, :q].conj().T, seed + 2)
