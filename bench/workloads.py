"""The benchmark's workloads.

Each workload makes its inputs from the seed, writes the files its ops read,
warms up, and returns a list of ops.  An op has a timed ``call``, an untimed
``outcome``, the ``payload`` compared between two runs of it, and a
``replay`` that the traced run uses to time the public functions behind the
op, one span each, on the same input.

report-batch  in-process ``full_report(p, j, samples=5)`` on 64 small
              idempotents; one case in eight has a corner whose singular
              values span [1e-6, 1e4].
verify-large  ``kreinproj verify P J --samples 5 --out R`` on four inputs at n = 128.
extremal-io   ``kreinproj extremal P --which <kind> -o J`` for the five kinds
              and ``kreinproj gen symmetry-for`` at n = 192, 192, 256.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import statistics
import time
from typing import Callable

import numpy as np

import kreinproj as kp
from kreinproj import cli, matrixio
from kreinproj.errors import KreinProjError

SAMPLES = 5
BATCH = 64
WIDE_EVERY = 8
CORNER_SCALES = (0.0, 0.5, 2.0)
WIDE_LOG10_SIGMA = (-6.0, 4.0)
# Sizes, ranks and which cases carry a J are drawn once, from this fixed
# seed; the run's seed draws the matrices.  Every seed then has the same mix
# of case shapes, and the median latency does not move with the mix.
SHAPE_SEED = 20181012
# n = 256 is left out: at about 7 s a call, a run holds too few of them
# for a steady median on a shared host.  extremal-io covers n = 256.
VERIFY_SIZES = (128, 128, 128, 128)
EXTREMAL_SIZES = (192, 192, 256)
EXTREMAL_KINDS = ("pos-min", "pos-max", "contr-min", "contr-max", "sign-formula")
FAMILIES = {
    "projection": kp.SymmetryFamily.J_PROJECTION,
    "positive": kp.SymmetryFamily.J_POSITIVE,
    "contractive": kp.SymmetryFamily.J_CONTRACTIVE,
}
# The relation classify() must report for a symmetry written by each command.
RELATION = {
    "pos-min": "j_positive", "pos-max": "j_positive", "sign-formula": "j_positive",
    "contr-min": "j_contractive", "contr-max": "j_contractive",
    "projection": "j_projection", "positive": "j_positive",
    "contractive": "j_contractive",
}
# Replayed calls that run inside a check group rather than standing for one.
# The others are subtracted from full_report's time, and what remains is
# reported as verification.unattributed_ms.
_SUB_STEPS = ("idempotents.validate", "symmetries.sample_assemble")


@dataclasses.dataclass
class Outcome:
    failed: bool
    checks: int = 0
    failing_checks: int = 0
    note: str = ""
    # The program raised instead of answering: a broken contract, not a verdict.
    raised: bool = False


@dataclasses.dataclass
class Workload:
    ops: list
    phases: dict
    # (op index, reason) for every op whose outputs fail a check run after timing.
    check: Callable


# ----------------------------------------------------------------- inputs

def _stratified(rng, count) -> np.ndarray:
    """`count` draws from U[0, 1), one per stratum, in random order."""
    u = (np.arange(count) + rng.random(count)) / count
    rng.shuffle(u)
    return u


def _half_mask(rng, count) -> np.ndarray:
    mask = np.zeros(count, dtype=bool)
    mask[rng.permutation(count)[: count // 2]] = True
    return mask


def projection_member(p, seed) -> np.ndarray:
    """A random symmetry J with J P J = P*, drawn through the public API."""
    bf = kp.block_form(p)
    fam = kp.SymmetryFamily.J_PROJECTION
    return kp.assemble_symmetry(bf, fam, kp.sample_params(bf, fam, 1, seed)[0])


def wide_corner_case(n, r, rng, with_j):
    """Idempotent whose corner has log-uniform singular values, and optionally
    an intertwining symmetry for it, built in closed form.

    With P = W [[I, C], [0, 0]] W* and C = U diag(sigma) V*, the member with
    range-side sign e on each coupled pair is the reflection
    [[e c, e s], [e s, -e c]], c = 1/sqrt(1+sigma^2), s = sigma c, and a free
    sign on every uncoupled direction.  It is built here, not by the library,
    so the library's defects in this regime stay in what is measured.
    """
    k = min(r, n - r)
    sigma = 10.0 ** rng.uniform(*WIDE_LOG10_SIGMA, k)
    w = kp.haar_unitary(n, rng)
    u = kp.haar_unitary(r, rng)
    v = kp.haar_unitary(n - r, rng)
    core = np.zeros((n, n), dtype=np.complex128)
    core[:r, :r] = np.eye(r)
    core[:r, r:] = (u[:, :k] * sigma) @ v[:, :k].conj().T
    p = w @ core @ w.conj().T
    if not with_j:
        return p, None
    c = 1.0 / np.sqrt(1.0 + sigma**2)
    s = sigma * c
    e = rng.choice([-1.0, 1.0], k)
    d_range = np.concatenate([e * c, rng.choice([-1.0, 1.0], r - k)])
    d_perp = np.concatenate([-e * c, rng.choice([-1.0, 1.0], n - r - k)])
    jb = np.zeros((n, n), dtype=np.complex128)
    jb[:r, :r] = (u * d_range) @ u.conj().T
    jb[:r, r:] = (u[:, :k] * (e * s)) @ v[:, :k].conj().T
    jb[r:, :r] = jb[:r, r:].conj().T
    jb[r:, r:] = (v * d_perp) @ v.conj().T
    return p, w @ jb @ w.conj().T


def report_cases(seed_seq, count):
    """`count` (label, P, J-or-None) cases: n uniform in [4, 32], rank uniform
    in [0, n], corner scale cycling through CORNER_SCALES, every eighth case
    with a wide corner spectrum, and half of each kind carrying a J.  The
    shapes come from SHAPE_SEED and `count`, the matrices from `seed_seq`."""
    per_case = seed_seq.spawn(count)
    rng = np.random.default_rng([SHAPE_SEED, count])
    dims = 4 + (_stratified(rng, count) * 29).astype(int)
    rank_u = _stratified(rng, count)
    wide = np.arange(count) % WIDE_EVERY == WIDE_EVERY - 1
    with_j = np.zeros(count, dtype=bool)
    for group in (wide, ~wide):
        idx = np.flatnonzero(group)
        with_j[idx] = _half_mask(rng, idx.size)
    cases = []
    for i in range(count):
        n = int(dims[i])
        crng = np.random.default_rng(per_case[i])
        if wide[i]:
            r = 1 + int(rank_u[i] * (n - 1))
            p, j = wide_corner_case(n, r, crng, with_j[i])
            tag = "wide"
        else:
            r = int(rank_u[i] * (n + 1))
            scale = CORNER_SCALES[i % len(CORNER_SCALES)]
            p = kp.random_idempotent(n, r, scale, crng)
            j = projection_member(p, int(crng.integers(2**31))) if with_j[i] else None
            tag = f"c{scale:g}"
        cases.append((f"case{i:02d}-n{n}-r{r}-{tag}{'-J' if with_j[i] else ''}", p, j))
    return cases


# -------------------------------------------------------------- replays

def _timed(tr, name, fn, *args):
    """Call fn inside a span; a library error ends the span, not the replay."""
    with tr.span(name) as s:
        try:
            return fn(*args), s
        except (KreinProjError, ValueError) as e:
            s.error = type(e).__name__
            return None, s


def _sample_assemble(bf):
    for fam in (kp.SymmetryFamily.J_POSITIVE, kp.SymmetryFamily.J_CONTRACTIVE):
        for params in kp.sample_params(bf, fam, SAMPLES, 0):
            kp.assemble_symmetry(bf, fam, params)


def replay_report_groups(tr, p, j, report) -> float:
    """Replay on (p, j) the public calls behind full_report's check groups.

    Returns the summed time of the calls that stand for a group, which the
    caller subtracts from full_report's own time.
    """
    spans = []

    def run(name, fn, *args):
        out, s = _timed(tr, name, fn, *args)
        spans.append(s)
        return out

    pos, contr = kp.SymmetryFamily.J_POSITIVE, kp.SymmetryFamily.J_CONTRACTIVE
    run("idempotents.validate", kp.validate_idempotent, p)
    bf = run("idempotents.block_form", kp.block_form, p)
    run("idempotents.kernel_projections", kp.kernel_projections, p)
    if bf is not None:
        run("decompositions.negative_part", kp.negative_part_projection_formula, bf.corner)
    for kind in kp.ExtremalKind:
        run(f"symmetries.extremal.{kind.value}", kp.extremal_symmetry, p, kind)
    for kind in kp.ExtremalKind:
        run("symmetries.via_blocks", kp.extremal_symmetry_via_blocks, p, kind)
    run("symmetries.sign_formula", kp.sign_formula_symmetry, p)
    if bf is not None:
        run("symmetries.sample_assemble", _sample_assemble, bf)
    run("verification.probe_positive", kp.extremality_probe, p, pos, SAMPLES, 0)
    run("verification.probe_contractive", kp.extremality_probe, p, contr, SAMPLES, 0)
    run("decompositions.projection_identities", kp.spectral_projection_identities, p)
    run("decompositions.intertwining", kp.intertwining_unitaries, p)
    run("decompositions.adjoint_similarity", kp.adjoint_similarity, p)
    run("decompositions.complement_sum", kp.complement_sum_equivalence, p)
    # full_report runs the J group only when J passed its gate.
    if report is not None and "classification" in report.subject:
        run("verification.classify", kp.classify, p, j)
        run("verification.biconditional", kp.contractive_positive_equivalence, p, j)
        run("decompositions.split_ce", kp.contractive_expansive_split, p, j)
        run("decompositions.split_pn", kp.positive_negative_split, p, j)
        run("symmetries.witnesses", kp.nonexistence_witnesses, p)
    return sum(s.seconds for s in spans if s.name not in _SUB_STEPS)


# ------------------------------------------------------------------- ops

class ReportOp:
    span_name = "verification.full_report"

    def __init__(self, label, p, j):
        self.label, self.p, self.j = label, p, j

    def call(self, pass_idx):
        try:
            return kp.full_report(self.p, self.j, samples=SAMPLES)
        except Exception as e:  # full_report promises not to raise; a raise is a failed op
            return e

    def outcome(self, raw) -> Outcome:
        if isinstance(raw, Exception):
            return Outcome(True, note=f"raised {type(raw).__name__}: {raw}", raised=True)
        fails = raw.counts["fail"]
        return Outcome(fails > 0, len(raw.checks), fails)

    def payload(self, raw) -> bytes:
        if isinstance(raw, Exception):
            return repr(raw).encode()
        return matrixio.render_report(raw).encode()

    def replay(self, tr, raw, op_span):
        report = None if isinstance(raw, Exception) else raw
        groups = replay_report_groups(tr, self.p, self.j, report)
        tr.extra["verification.unattributed_ms"] += 1e3 * (op_span.seconds - groups)


class CliOp:
    """One ``kreinproj`` invocation through ``cli.main``, output under out/p<k>/."""

    span_name = "cli.main"

    def __init__(self, label, workdir, argv, out_name, p_path, p):
        self.label, self.workdir, self.argv = label, workdir, argv
        self.out_name, self.p_path, self.p = out_name, p_path, p

    def out_path(self, pass_idx) -> str:
        return os.path.join(self.workdir, "out", f"p{min(pass_idx, 2)}", self.out_name)

    def call(self, pass_idx):
        out = self.out_path(pass_idx)
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(self.argv + [out])
        except Exception as e:  # cli.main maps errors to exit codes; anything else fails the op
            return None, out, f"raised {type(e).__name__}: {e}"
        return rc, out, sink.getvalue()

    def outcome(self, raw) -> Outcome:
        rc, out, text = raw
        if rc is None:
            return Outcome(True, note=text, raised=True)
        if rc != 0:
            return Outcome(True, note=f"exit {rc}: {text.strip()[-200:]}")
        return Outcome(False)

    def payload(self, raw) -> bytes:
        if not os.path.exists(raw[1]):
            return b""
        with open(raw[1], "rb") as fh:
            return fh.read()

    def _finish_replay(self, tr, raw, op_span, io_compute_s):
        tr.extra["cli.overhead_ms"] += 1e3 * (op_span.seconds - io_compute_s)
        if os.path.exists(raw[1]):
            tr.extra["matrixio.bytes_written"] += os.path.getsize(raw[1])

    def _replay_path(self) -> str:
        return os.path.join(self.workdir, "replay", self.out_name)


class VerifyOp(CliOp):
    def __init__(self, label, workdir, p_path, j_path, p, j):
        argv = ["verify", p_path, j_path, "--samples", str(SAMPLES), "--out"]
        super().__init__(label, workdir, argv, f"{label}-report.json", p_path, p)
        self.j_path, self.j = j_path, j

    def outcome(self, raw) -> Outcome:
        rc, out, text = raw
        if rc is None or not os.path.exists(out):
            return Outcome(True, note=text, raised=rc is None)
        with open(out, encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
        fails = sum(c["status"] == "fail" for c in checks)
        return Outcome(rc != 0, len(checks), fails, note="" if rc == 0 else f"exit {rc}")

    def replay(self, tr, raw, op_span):
        _, rp = _timed(tr, "matrixio.read", matrixio.read_matrix, self.p_path)
        _, rj = _timed(tr, "matrixio.read", matrixio.read_matrix, self.j_path)
        report, fr = _timed(tr, "verification.full_report", kp.full_report,
                            self.p, self.j, kp.DEFAULT_TOL, SAMPLES)
        _timed(tr, "matrixio.render_report", matrixio.render_report, report)
        _, wr = _timed(tr, "matrixio.write", matrixio.write_report, self._replay_path(), report)
        self._finish_replay(tr, raw, op_span, rp.seconds + rj.seconds + fr.seconds + wr.seconds)
        groups = replay_report_groups(tr, self.p, self.j, report)
        tr.extra["verification.unattributed_ms"] += 1e3 * (fr.seconds - groups)


class ExtremalOp(CliOp):
    def __init__(self, label, workdir, kind, p_path, p):
        argv = ["extremal", p_path, "--which", kind, "-o"]
        super().__init__(label, workdir, argv, f"{label}.json", p_path, p)
        self.kind = kind

    def replay(self, tr, raw, op_span):
        _, rd = _timed(tr, "matrixio.read", matrixio.read_matrix, self.p_path)
        if self.kind == "sign-formula":
            j, comp = _timed(tr, "symmetries.sign_formula", kp.sign_formula_symmetry, self.p)
        else:
            j, comp = _timed(tr, f"symmetries.extremal.{self.kind}", kp.extremal_symmetry,
                             self.p, kp.ExtremalKind(self.kind))
        _, wr = _timed(tr, "matrixio.write", matrixio.write_matrix, self._replay_path(), j)
        _timed(tr, "idempotents.validate", kp.validate_idempotent, self.p)
        self._finish_replay(tr, raw, op_span, rd.seconds + comp.seconds + wr.seconds)


class GenOp(CliOp):
    def __init__(self, label, workdir, family, seed, p_path, p):
        argv = ["gen", "symmetry-for", "--for", p_path, "--family", family,
                "--seed", str(seed), "-o"]
        super().__init__(label, workdir, argv, f"{label}.json", p_path, p)
        self.kind, self.seed = family, seed

    def replay(self, tr, raw, op_span):
        _, rd = _timed(tr, "matrixio.read", matrixio.read_matrix, self.p_path)
        bf, b = _timed(tr, "idempotents.block_form", kp.block_form, self.p)
        fam = FAMILIES[self.kind]
        j, sa = _timed(tr, "symmetries.sample_assemble",
                       lambda: kp.assemble_symmetry(bf, fam, kp.sample_params(bf, fam, 1, self.seed)[0]))
        _, wr = _timed(tr, "matrixio.write", matrixio.write_matrix, self._replay_path(), j)
        _timed(tr, "idempotents.validate", kp.validate_idempotent, self.p)
        self._finish_replay(tr, raw, op_span, rd.seconds + b.seconds + sa.seconds + wr.seconds)


# ---------------------------------------------------------------- checks

def _check_determinism(ops, raws0, raws1) -> list:
    return [
        (i, "second run gave different bytes")
        for i, op in enumerate(ops)
        if op.payload(raws0[i]) != op.payload(raws1[i])
    ]


def _check_verify(ops, raws0, raws1) -> list:
    bad = _check_determinism(ops, raws0, raws1)
    for i, op in enumerate(ops):
        rc, out, _ = raws0[i]
        if rc is None or not os.path.exists(out):
            continue
        with open(out, encoding="utf-8") as fh:
            passed = all(c["status"] != "fail" for c in json.load(fh)["checks"])
        if rc != (0 if passed else 1):
            bad.append((i, f"exit code {rc} disagrees with report verdict passed={passed}"))
    return bad


def _check_written_symmetries(ops, raws0, raws1) -> list:
    """Every written J is a symmetry in its family, and sign-formula equals
    pos-max for the same P."""
    bad = _check_determinism(ops, raws0, raws1)
    written = {}
    for i, op in enumerate(ops):
        rc, out, _ = raws0[i]
        if rc != 0:
            continue
        try:
            j = matrixio.read_matrix(out)
            flags = kp.classify(op.p, j)
        except (KreinProjError, OSError, ValueError) as e:
            bad.append((i, f"written J unusable: {type(e).__name__}: {e}"))
            continue
        if not getattr(flags, RELATION[op.kind]):
            bad.append((i, f"written J lacks {RELATION[op.kind]}"))
        written[(op.p_path, op.kind)] = (i, j)
    for (p_path, kind), (i, j_sf) in written.items():
        if kind != "sign-formula" or (p_path, "pos-max") not in written:
            continue
        j_pm = written[(p_path, "pos-max")][1]
        p = ops[i].p
        budget = kp.DEFAULT_TOL.residual_tol * max(1.0, np.linalg.norm(p, 2))
        if np.linalg.norm(j_sf - j_pm) > budget:
            bad.append((i, "sign-formula output differs from pos-max"))
    return bad


# ------------------------------------------------------------- workloads

def _dirs(workdir):
    for sub in ("in", "warm/out/p0", "replay", "out/p0", "out/p1", "out/p2"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)


def _clock(phases, name, t0) -> float:
    now = time.perf_counter()
    phases[name] = now - t0
    return now


def report_batch(seed, workdir) -> Workload:
    phases = {}
    t = time.perf_counter()
    cases = report_cases(np.random.SeedSequence([seed, 0]), BATCH)
    warm = report_cases(np.random.SeedSequence([seed, 1]), WIDE_EVERY)
    t = _clock(phases, "generate", t)
    for label, p, j in warm:
        ReportOp(label, p, j).call(0)
    _clock(phases, "warm_up", t)
    ops = [ReportOp(label, p, j) for label, p, j in cases]
    return Workload(ops, phases, _check_determinism)


def _write_inputs(workdir, sub, named) -> list:
    paths = []
    for name, m in named:
        path = os.path.join(workdir, sub, f"{name}.json")
        matrixio.write_matrix(path, m)
        paths.append(path)
    return paths


def verify_large(seed, workdir) -> Workload:
    _dirs(workdir)
    phases = {}
    t = time.perf_counter()
    rng = np.random.default_rng([seed, 2])
    inputs = []
    for n in (16,) + VERIFY_SIZES:
        p = kp.random_idempotent(n, n // 2, 2.0, rng)
        inputs.append((n, p, projection_member(p, int(rng.integers(2**31)))))
    t = _clock(phases, "generate", t)
    ops = []
    for i, (n, p, j) in enumerate(inputs):
        sub, wd = ("warm", os.path.join(workdir, "warm")) if i == 0 else ("in", workdir)
        p_path, j_path = _write_inputs(workdir, sub, [(f"P{i}", p), (f"J{i}", j)])
        ops.append(VerifyOp(f"verify{i}-n{n}", wd, p_path, j_path, p, j))
    t = _clock(phases, "write", t)
    ops[0].call(0)
    _clock(phases, "warm_up", t)
    return Workload(ops[1:], phases, _check_verify)


def _extremal_ops(label, wd, seed, family, p_path, p) -> list:
    ops = [ExtremalOp(f"{label}-{k}", wd, k, p_path, p) for k in EXTREMAL_KINDS]
    ops.append(GenOp(f"{label}-gen-{family}", wd, family, seed, p_path, p))
    return ops


def extremal_io(seed, workdir) -> Workload:
    """Each of the three inputs gets a different gen symmetry-for family."""
    _dirs(workdir)
    phases = {}
    t = time.perf_counter()
    rng = np.random.default_rng([seed, 3])
    inputs = [(n, kp.random_idempotent(n, n // 2, 2.0, rng)) for n in (16,) + EXTREMAL_SIZES]
    t = _clock(phases, "generate", t)
    families = sorted(FAMILIES)
    warm, ops = [], []
    for i, (n, p) in enumerate(inputs):
        sub, wd = ("warm", os.path.join(workdir, "warm")) if i == 0 else ("in", workdir)
        (p_path,) = _write_inputs(workdir, sub, [(f"P{i}", p)])
        if i == 0:
            for fam in families:
                warm += _extremal_ops(f"p{i}-n{n}-{fam}", wd, seed, fam, p_path, p)
        else:
            ops += _extremal_ops(f"p{i}-n{n}", wd, seed, families[i - 1], p_path, p)
    t = _clock(phases, "write", t)
    for op in warm:
        op.call(0)
    _clock(phases, "warm_up", t)
    return Workload(ops, phases, _check_written_symmetries)


def entry_points(tr, seed):
    """LAPACK calls made by one call of each ratcheted entry point, and the
    median time of full_report(samples=5), on an n=8, rank-4 idempotent."""
    rng = np.random.default_rng([seed, 4])
    p = kp.random_idempotent(8, 4, 2.0, rng)
    j = projection_member(p, int(rng.integers(2**31)))
    bf = kp.block_form(p)
    contr = kp.SymmetryFamily.J_CONTRACTIVE
    params = kp.sample_params(bf, contr, 1, int(rng.integers(2**31)))[0]
    calls = {}
    for name, fn in (
        ("full_report", lambda: kp.full_report(p, j, samples=1)),
        ("extremal_contr_max", lambda: kp.extremal_symmetry(p, kp.ExtremalKind.CONTR_MAX)),
        ("assemble_symmetry", lambda: kp.assemble_symmetry(bf, contr, params)),
    ):
        with tr.span(f"entry.{name}") as s:
            fn()
        calls[name] = sum(s.calls.values())
    times = []
    for _ in range(5):
        with tr.span("entry.full_report_s5") as s:
            kp.full_report(p, j, samples=SAMPLES)
        times.append(s.seconds)
    return calls, statistics.median(times)


BUILDERS = {
    "report-batch": report_batch,
    "verify-large": verify_large,
    "extremal-io": extremal_io,
}
