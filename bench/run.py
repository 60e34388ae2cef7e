"""kreinproj benchmark: one caller, one process, a closed loop, BLAS on one thread.

    python3 bench/run.py --workload report-batch --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
there and from nowhere else.  A run makes its inputs from ``--seed``, warms
up, then runs whole passes over its ops for about ``--seconds`` (at least
two, so every op has run twice for the determinism check).  A fixed
calibration kernel runs between ops, and the end-to-end times are scaled by
it to the reference host speed (see ``HostSpeed``).  After timing it checks
the outputs.  It prints each metric on its own line, and as the last line
one JSON object with the metrics named in BENCHMARK.json: the end-to-end
ones with ``--trace 0``, the per-layer ones with ``--trace 1``.

``--trace 1`` runs one untraced pass and then traced passes, in which each
op runs with numpy.linalg calls counted and is followed by a replay of the
public functions behind it, one span each.  The spans are written to
``.bench_out/`` when the run ends.  Scratch files go to ``.bench_work/`` and
are removed.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
# Pinned before numpy is imported, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import bisect
import collections
import contextlib
import ctypes
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"
# Fresh processes whose set-up is timed; setup_s is their median.
SETUP_PROBES = 5
P90_MIN_SAMPLES = 100
# Every op runs at least this often in an untraced run, for the
# determinism check.
MIN_PASSES = 2
# The calibration kernel: a Python loop of CAL_LOOP steps and one complex
# CAL_N x CAL_N eigh.  After each op it runs for about CAL_SHARE of the op's
# time, from CAL_MIN_RUNS to CAL_MAX_RUNS times.  An op's host speed is the
# median of the kernel runs within CAL_WINDOW_S seconds of it.
CAL_LOOP = 15000
CAL_N = 64
CAL_SHARE = 0.03
CAL_MIN_RUNS = 1
CAL_MAX_RUNS = 64
CAL_WINDOW_S = 1.0
# Kernel runs around each set-up probe, in the parent and in the child.
CAL_SETUP_RUNS = 8
# Seconds of one kernel run on the reference host: a 2-vCPU Xeon
# (SkylakeX, OpenBLAS 0.3.31 on one thread, Python 3.11) in its fast state.
CAL_REF_S = 0.0023

LAYERS = ("linalg", "idempotents", "symmetries", "decompositions", "verification",
          "matrixio", "cli")
_CALLS = ("svd", "norm2", "eigh", "eigvalsh", "qr", "other")
_MS = (
    "idempotents.block_form", "idempotents.validate", "idempotents.kernel_projections",
    "symmetries.extremal.pos-min", "symmetries.extremal.pos-max",
    "symmetries.extremal.contr-min", "symmetries.extremal.contr-max",
    "symmetries.via_blocks", "symmetries.sign_formula", "symmetries.sample_assemble",
    "symmetries.witnesses",
    "decompositions.negative_part", "decompositions.intertwining",
    "decompositions.adjoint_similarity", "decompositions.complement_sum",
    "decompositions.projection_identities", "decompositions.split_ce",
    "decompositions.split_pn",
    "verification.full_report", "verification.probe_positive",
    "verification.probe_contractive", "verification.classify",
    "verification.biconditional",
    "matrixio.read", "matrixio.write", "matrixio.render_report", "cli.main",
)
_ENTRY_POINTS = ("full_report", "extremal_contr_max", "assemble_symmetry")


def metric_of_span(name: str) -> str:
    """``symmetries.extremal.pos-min`` -> ``symmetries.extremal_ms.pos-min``."""
    layer, what, *rest = name.split(".", 2)
    return ".".join([layer, f"{what}_ms", *rest])


PER_LAYER_UNITS = {
    **{f"linalg.{c}_calls": "count" for c in _CALLS},
    "linalg.lapack_ms": "ms",
    "linalg.lapack_share": "ratio",
    "linalg.gflop_computed": "GFLOP",
    **{f"linalg.entry_calls.{e}": "count" for e in _ENTRY_POINTS},
    **{metric_of_span(s): "ms" for s in _MS},
    "verification.unattributed_ms": "ms",
    "matrixio.bytes_written": "B",
    "cli.overhead_ms": "ms",
}


class HostSpeed:
    """Times a fixed kernel, to scale measured times to the reference host.

    A shared host runs this process at speeds that differ by about 40%, and
    holds each for seconds to minutes, in CPU time as well as in wall time:
    on the reference host a fixed loop took 6.7 ms in one state and 9.3 ms
    in another.  That swing is larger than any bound a 30-second run could
    hold.  The kernel slows with the program (within 3% over 30-second
    windows there, for interpreter-bound and LAPACK-bound code alike), so a
    time multiplied by ``CAL_REF_S`` over the kernel's time around it is the
    time the reference host would take in its fast state.  The kernel does
    not use kreinproj, so no program change moves it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((CAL_N, CAL_N)) + 1j * rng.standard_normal((CAL_N, CAL_N))
        self._a = a + a.conj().T
        self._eigh = np.linalg.eigh
        self._eigh(self._a)  # first-call costs stay out of the samples
        self.times = []      # end of each kernel run
        self.runs = []       # its seconds

    def sample(self, runs) -> list:
        """Run the kernel `runs` times; the seconds of each run."""
        out = []
        for _ in range(runs):
            t0 = time.perf_counter()
            acc = 0
            for i in range(CAL_LOOP):
                acc += i * i
            self._eigh(self._a)
            t1 = time.perf_counter()
            self.times.append(t1)
            self.runs.append(t1 - t0)
            out.append(t1 - t0)
        return out

    @staticmethod
    def runs_after(seconds) -> int:
        """Kernel runs to take after an op of `seconds`."""
        return max(CAL_MIN_RUNS, min(CAL_MAX_RUNS, round(CAL_SHARE * seconds / CAL_REF_S)))

    def scale(self, seconds, start, end) -> float:
        """`seconds` measured from `start` to `end`, at the reference speed.

        Uses the kernel runs within CAL_WINDOW_S of the interval, and the
        nearest run on each side when none is.
        """
        lo = bisect.bisect_left(self.times, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + CAL_WINDOW_S)
        lo = min(lo, max(bisect.bisect_left(self.times, start) - 1, 0))
        hi = max(hi, bisect.bisect_right(self.times, end) + 1)
        return seconds * CAL_REF_S / statistics.median(self.runs[lo:hi])


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


def load_program():
    """Import kreinproj from the checkout's src/ and the workloads with it."""
    init = SRC / "kreinproj" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no program to measure: {init} is missing")
    sys.path.insert(0, str(SRC))
    import kreinproj

    if Path(kreinproj.__file__).resolve() != init.resolve():
        raise BenchError(f"kreinproj was imported from {kreinproj.__file__}, not {init}")
    import workloads

    return workloads


def openblas_runtime():
    """(threads, config) reported by the loaded OpenBLAS, or Nones."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("", "64_"):
            for prefix in ("openblas_", "scipy_openblas_"):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return threads(), config().decode()
    return None, None


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    threads, config = openblas_runtime()
    if config is None:
        blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
        config = f"{blas.get('name', '?')} {blas.get('version', '?')} (build-time)"
    return {
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "numpy": np.__version__,
        "openblas": config,
        "python": sys.version.split()[0],
    }


def parse_args(argv):
    def nonneg(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be a nonnegative integer")
        return value

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("report-batch", "verify-large", "extremal-io"))
    ap.add_argument("--seed", type=nonneg, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ------------------------------------------------------------- set-up

def setup_probe(args):
    """Child mode: set the workload up in DIR and report when it is ready."""
    workloads = load_program()
    imported = time.perf_counter()
    wl = workloads.BUILDERS[args.workload](args.seed, args.setup_probe)
    ready = time.monotonic()
    phases = {"import": imported - T_START, **wl.phases}
    cal = HostSpeed().sample(CAL_SETUP_RUNS)
    print(json.dumps({"ready": ready, "phases": phases, "cal": cal}))


def probe_setup_times(args, host) -> list:
    """Set the workload up in fresh processes; (seconds from spawn to ready,
    the same at the reference speed, phases)."""
    out = []
    for k in range(SETUP_PROBES):
        workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}-probe{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-probe", str(workdir)]
        try:
            before = host.sample(CAL_SETUP_RUNS)
            t0 = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        wall = rec["ready"] - t0
        ref = wall * CAL_REF_S / statistics.median(before + rec["cal"])
        out.append((wall, ref, rec["phases"]))
    return out


# ------------------------------------------------------------ the loop

class Passes:
    """Outcomes and timings of whole passes over the ops."""

    def __init__(self):
        self.latencies = []
        self.by_op = {}          # op index -> its latencies, one per pass
        self.by_op_ref = {}      # the same at the reference speed
        self.outcomes = []       # (op index, Outcome) for every op run
        self.raws = {}           # pass index -> raw results, for passes 0 and 1
        self.pass_seconds = []
        self.wall = 0.0
        self.op_spans = []

    def run(self, ops, seconds, min_passes, first_pass=0, tracer=None, host=None):
        """Run whole passes until the next one would more likely end after
        `seconds` than before, and at least `min_passes`.  With `host`, the
        calibration kernel runs between ops, and each op's time is also
        scaled by the kernel runs around it."""
        t_start = time.perf_counter()
        k = first_pass
        timed = []
        if host is not None:
            host.sample(CAL_MIN_RUNS)
        while True:
            t_pass = time.perf_counter()
            for i, op in enumerate(ops):
                if tracer is None:
                    t0 = time.perf_counter()
                    raw = op.call(k)
                    t1 = time.perf_counter()
                    latency = t1 - t0
                    if host is not None:
                        timed.append((i, latency, t0, t1))
                        host.sample(host.runs_after(latency))
                else:
                    tracer.op = len(self.op_spans)
                    with tracer.span("bench.op"):
                        with tracer.span(op.span_name) as s:
                            raw = op.call(k)
                        op.replay(tracer, raw, s)
                    tracer.op = None
                    self.op_spans.append(s)
                    latency = s.seconds
                self.latencies.append(latency)
                self.by_op.setdefault(i, []).append(latency)
                self.outcomes.append((i, op.outcome(raw)))
                if k < 2:
                    self.raws.setdefault(k, []).append(raw)
            self.pass_seconds.append(time.perf_counter() - t_pass)
            k += 1
            elapsed = time.perf_counter() - t_start
            mean_pass = elapsed / len(self.pass_seconds)
            if len(self.pass_seconds) >= min_passes and elapsed + mean_pass / 2 >= seconds:
                break
        self.wall += elapsed
        for i, latency, t0, t1 in timed:
            self.by_op_ref.setdefault(i, []).append(host.scale(latency, t0, t1))

    def typical(self, ref=False) -> list:
        """Each op's median latency over the passes, at the reference speed
        with `ref`.

        Short host slowdowns that the kernel samples miss hit one run of an
        op; a per-op median drops it, where a mean would keep it.
        """
        by_op = self.by_op_ref if ref else self.by_op
        return [statistics.median(v) for v in by_op.values()]


def verdict(wl, ops, runs):
    """Run the output checks; returns (correct, failed ops, lines naming
    them, every outcome).

    An op is one input, run once in every pass; it fails if any of its runs
    fails.  Counting inputs rather than runs keeps `failed` and `attempted`
    the same for a seed however many passes fit in the time.
    """
    raws = {}
    outcomes = []
    for r in runs:
        raws.update(r.raws)
        outcomes += r.outcomes
    bad = dict(wl.check(ops, raws[0], raws[1]))
    why = {}
    for i, o in outcomes:
        if (o.failed or i in bad) and i not in why:
            why[i] = bad.get(i) or o.note or f"{o.failing_checks} of {o.checks} checks fail"
    raised = any(o.raised for _, o in outcomes)
    lines = [f"# failed op {ops[i].label}: {w}" for i, w in sorted(why.items())]
    return not bad and not raised, len(why), lines, outcomes


def fmt(name, value, unit, note=""):
    return f"{name:<44} {value:<14.6g} {unit:<6} {note}".rstrip()


def result_line(correct, attempted, failed, metrics, section):
    """The last line: the BENCHMARK.json metrics of this mode, with units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        wanted = json.load(fh)[section]
    out = {}
    for m in wanted:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"{m['name']}: unit {unit} does not match BENCHMARK.json {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": out})


def untraced(args, workloads, env):
    host = HostSpeed()
    probes = probe_setup_times(args, host)
    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        wl = workloads.BUILDERS[args.workload](args.seed, str(workdir))
        run = Passes()
        run.run(wl.ops, args.seconds, min_passes=MIN_PASSES, host=host)
        correct, failed, fail_lines, outcomes = verdict(wl, wl.ops, [run])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat_ms = [1e3 * x for x in run.latencies]
    n = len(lat_ms)
    typical = run.typical()
    typical_ref = run.typical(ref=True)
    lat_ref_ms = [1e3 * x for v in run.by_op_ref.values() for x in v]
    checks = sum(o.checks for _, o in outcomes)
    failing = sum(o.failing_checks for _, o in outcomes)
    setup = statistics.median(s for s, _, _ in probes)
    setup_ref = statistics.median(s for _, s, _ in probes)
    ops = len(wl.ops)
    metrics = {
        "ref_ops_per_s": (len(typical_ref) / sum(typical_ref), "1/s"),
        "ref_latency_ms_p50": (statistics.median(lat_ref_ms), "ms"),
        "setup_s": (setup_ref, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"# env {json.dumps(env)}")
    print(f"# workload {args.workload} seed {args.seed}: {ops} ops per pass, "
          f"{len(run.pass_seconds)} passes, pass seconds "
          + " ".join(f"{s:.3f}" for s in run.pass_seconds))
    print(fmt("ref_ops_per_s", *metrics["ref_ops_per_s"],
              f"at reference speed, from per-op medians of {len(run.pass_seconds)} runs"))
    print(fmt("ref_latency_ms_p50", *metrics["ref_latency_ms_p50"],
              f"at reference speed, median of all {len(lat_ref_ms)} op runs"))
    print(fmt("ops_per_s", len(typical) / sum(typical), "1/s",
              f"wall clock, from per-op medians; {n} op runs in {run.wall:.3f} s "
              "with kernel samples between them"))
    print(fmt("latency_ms_p50", statistics.median(lat_ms), "ms",
              f"wall clock, median of all {n} op runs"))
    if n >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(lat_ms, n=10)[-1]
        beyond = sum(x > p90 for x in lat_ms)
        print(fmt("latency_ms_p90", p90, "ms", f"wall clock, n={n}, {beyond} beyond"))
    else:
        print(f"{'latency_ms_p90':<44} n/a  (n={n} < {P90_MIN_SAMPLES} op runs)")
    print(fmt("fail_ratio", failed / ops, "ratio", f"{failed}/{ops} ops"))
    if checks:
        print(fmt("check_fail_ratio", failing / checks, "ratio", f"{failing}/{checks} checks"))
    else:
        print(f"{'check_fail_ratio':<44} n/a  (no reports on this workload)")
    phases = {k: statistics.median(p[k] for _, _, p in probes) for k in probes[0][2]}
    print(fmt("setup_s", setup_ref, "s", "at reference speed, median of fresh processes "
              + " ".join(f"{s:.3f}" for _, s, _ in probes)))
    print(fmt("setup_s_wall", setup, "s", "wall clock, "
              + " ".join(f"{s:.3f}" for s, _, _ in probes) + "; phases "
              + " ".join(f"{k}={v:.3f}" for k, v in phases.items())))
    print(fmt("peak_rss_mb", *metrics["peak_rss_mb"]))
    for line in fail_lines:
        print(line)
    print(result_line(correct, ops, failed, metrics, "end_to_end"))


def traced(args, workloads, env):
    from tracing import Tracer

    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    tracer = Tracer()
    try:
        wl = workloads.BUILDERS[args.workload](args.seed, str(workdir))
        plain = Passes()
        plain.run(wl.ops, 0.0, min_passes=1)
        run = Passes()
        tracer.install()
        try:
            run.run(wl.ops, args.seconds, min_passes=1, first_pass=1, tracer=tracer)
            entry_calls, n8_ms = workloads.entry_points(tracer, args.seed)
        finally:
            tracer.remove()
        correct, failed, fail_lines, outcomes = verdict(wl, wl.ops, [plain, run])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(run.op_spans)
    op_s = sum(s.seconds for s in run.op_spans)
    calls = collections.Counter()
    for s in run.op_spans:
        calls.update(s.calls)
    lapack_s = sum(s.lapack_s for s in run.op_spans)
    metrics = {f"linalg.{c}_calls": (calls[c] / n, "count") for c in _CALLS}
    metrics["linalg.lapack_ms"] = (1e3 * lapack_s / n, "ms")
    metrics["linalg.lapack_share"] = (lapack_s / op_s, "ratio")
    metrics["linalg.gflop_computed"] = (sum(s.flops for s in run.op_spans) / n / 1e9, "GFLOP")
    for e, count in entry_calls.items():
        metrics[f"linalg.entry_calls.{e}"] = (float(count), "count")
    span_s = {}
    for s in tracer.spans:
        if s.op is not None and s.name in _MS:
            span_s[s.name] = span_s.get(s.name, 0.0) + s.seconds
    for name, total in span_s.items():
        metrics[metric_of_span(name)] = (1e3 * total / n, "ms")
    for name, total in tracer.extra.items():
        metrics[name] = (total / n, PER_LAYER_UNITS[name])

    plain_rate = len(plain.latencies) / sum(plain.latencies)
    traced_rate = n / op_s
    self_s = tracer.self_seconds()

    print(f"# env {json.dumps(env)}")
    print(f"# workload {args.workload} seed {args.seed} traced: {len(wl.ops)} ops per pass, "
          f"1 untraced pass, then traced passes: {len(run.pass_seconds)}; per-op values")
    for name in sorted(PER_LAYER_UNITS, key=lambda m: LAYERS.index(m.split(".")[0])):
        unit = PER_LAYER_UNITS[name]
        if name in metrics:
            print(fmt(name, metrics[name][0], unit))
        else:
            print(f"{name:<44} n/a  (not on this workload's path)")
    for label in sorted({op.label for op in wl.ops if op.span_name == "cli.main"}):
        spans = [s for s in tracer.spans if s.name == "verification.full_report"
                 and wl.ops[s.op % len(wl.ops)].label == label]
        if spans:
            print(fmt(f"verification.full_report_ms[{label}]",
                      1e3 * statistics.median(x.seconds for x in spans), "ms", "median"))
    print(fmt("baseline.full_report_s5_n8_ms", 1e3 * n8_ms, "ms", "median of 5, n=8 rank 4"))
    for layer, secs in sorted(self_s.items()):
        print(fmt(f"self_ms.{layer}", 1e3 * secs / n, "ms", "op and replay spans"))
    print(fmt("trace.untraced_ops_per_s", plain_rate, "1/s", "first pass, op time only"))
    print(fmt("trace.traced_ops_per_s", traced_rate, "1/s"))
    print(fmt("trace.overhead_ops_per_s", plain_rate - traced_rate, "1/s",
              f"{100 * (1 - traced_rate / plain_rate):.2f}% slower traced"))
    for line in fail_lines:
        print(line)

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    meta = {"env": env, "workload": args.workload, "seed": args.seed,
            "ops": [op.label for op in wl.ops],
            "metrics": {k: v[0] for k, v in metrics.items()},
            "self_ms": {k: 1e3 * v / n for k, v in self_s.items()}}
    tracer.write(path, meta)
    print(f"# trace {path.relative_to(ROOT)}: {len(tracer.spans)} spans")
    print(result_line(correct, len(wl.ops), failed, metrics, "per_layer"))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        workloads = load_program()
        env = environment()
        WORK.mkdir(exist_ok=True)
        (traced if args.trace else untraced)(args, workloads, env)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
