"""Spans and LAPACK-call counting for the traced benchmark run.

A span records one call into a layer, made from the benchmark's own code:
its name (``<layer>.<what>``), start and end on ``time.perf_counter``, the
index of the enclosing span and the op it belongs to.  While the counter is
installed, every ``numpy.linalg`` factorization is charged to the innermost
open span: a call count per routine, the time spent inside it, and its
floating-point work computed from the operand shapes.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import math
import time

import numpy as np

# numpy.linalg entry points backed by a LAPACK factorization.  ``norm`` is
# one only for ord=2, -2 or "nuc" on a matrix, where it runs an SVD.
_COUNTED = (
    "svd", "eigh", "eigvalsh", "qr", "eig", "eigvals", "inv", "solve",
    "cholesky", "lstsq", "pinv", "det", "slogdet", "matrix_rank", "norm",
)
_SVD_NORMS = (2, -2, "nuc")
# Routines reported by name; every other counted routine is "other".
NAMED_CALLS = ("svd", "norm2", "eigh", "eigvalsh", "qr")


def computed_flops(kind, args, kwargs) -> float:
    """Real floating-point operations of one call, from the operand shape.

    Counts follow Golub & Van Loan, Matrix Computations (4th ed.): symmetric
    QR algorithm 4n^3/3 for eigenvalues and 9n^3 with eigenvectors (8.3),
    Golub-Reinsch SVD (Table 8.6.1) and Householder QR with the thin Q
    formed.  Complex operands count four real flops per real one.  Routines
    outside this model count zero.
    """
    a = np.asarray(args[0]) if args else None
    if a is None or a.ndim < 2:
        return 0.0
    *batch, m, n = a.shape
    k, big = min(m, n), max(m, n)
    if kind == "eigh":
        f = 9.0 * n**3
    elif kind == "eigvalsh":
        f = 4.0 / 3.0 * n**3
    elif kind == "norm2" or (
        kind == "svd" and not _arg(args, kwargs, 2, "compute_uv", True)
    ):
        f = 4.0 * big * k * k - 4.0 / 3.0 * k**3
    elif kind == "svd" and _arg(args, kwargs, 1, "full_matrices", True):
        f = 4.0 * big * big * k + 8.0 * big * k * k + 9.0 * k**3
    elif kind == "svd":
        f = 14.0 * big * k * k + 8.0 * k**3
    elif kind == "qr":
        f = 4.0 * k * k * (big - k / 3.0)
    else:
        return 0.0
    if np.iscomplexobj(a):
        f *= 4.0
    return f * math.prod(batch)


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "calls", "lapack_s",
                 "flops", "error")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.calls = collections.Counter()
        self.lapack_s = 0.0
        self.flops = 0.0
        self.error = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op, "calls": dict(self.calls),
            "lapack_s": self.lapack_s, "flops": self.flops, "error": self.error,
        }


class Tracer:
    """In-memory span recorder with an optional numpy.linalg call counter."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        # Per-op quantities derived in replays, such as cli.overhead_ms.
        self.extra = collections.Counter()
        self._open: list[int] = []
        self._originals: dict = {}

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        rec = Span(name, time.perf_counter(), parent, self.op)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def install(self):
        """Wrap the numpy.linalg routines; `remove` restores them."""
        for name in _COUNTED:
            fn = getattr(np.linalg, name, None)
            if fn is not None and name not in self._originals:
                self._originals[name] = fn
                setattr(np.linalg, name, self._counting(name, fn))

    def remove(self):
        for name, fn in self._originals.items():
            setattr(np.linalg, name, fn)
        self._originals.clear()

    def _counting(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            kind = name
            if name == "norm":
                if _arg(args, kwargs, 1, "ord", None) not in _SVD_NORMS or np.ndim(args[0]) != 2:
                    return fn(*args, **kwargs)
                kind = "norm2"
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            if self._open:
                rec = self.spans[self._open[-1]]
                rec.calls[kind if kind in NAMED_CALLS else "other"] += 1
                rec.lapack_s += dt
                rec.flops += computed_flops(kind, args, kwargs)
            return out

        return counted

    def self_seconds(self) -> collections.Counter:
        """Self time per layer over the spans of ops.

        A span's self time is its duration minus its child spans and minus
        the LAPACK time charged to it, which goes to the ``linalg`` layer.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        out = collections.Counter()
        for i, s in enumerate(self.spans):
            if s.op is None:
                continue
            out[s.name.split(".")[0]] += s.seconds - child[i] - s.lapack_s
            out["linalg"] += s.lapack_s
        return out

    def write(self, path, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": [s.as_dict() for s in self.spans]}, fh)
            fh.write("\n")
