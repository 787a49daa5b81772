"""motivix benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 benchmarks/run.py --workload decide_small_g --seed 1 --seconds 60 --trace 0

Runs one workload (see workloads.py) in this process, one thread, closed
loop. Set-up (importing the package and writing the seeded input files)
is repeated SETUP_REPS times. Then passes of the workload's ops repeat
while the next one is expected to end within --seconds, at least
MIN_PASSES times. Every op's output is checked, and its digest must
match the first pass's. A wrong answer or an exception counts as a
failed op.

End-to-end metrics (--trace 0) are in reference seconds: each time is
scaled by REF_S over the time the reference loop took around it. On a
shared 2-vCPU VM the host's speed swings by up to 2x for seconds to
minutes at a time; the scaled figures are what the run would read on a
host where the loop takes REF_S, and they keep still while the raw ones
swing. The context line also gives run_s unscaled, and the loop's
median time.
  run_s, cpu_s   wall and CPU time of the program calls of one pass
                 (checks excluded), median over passes
  op_p50_s       op latency at the median
  op_tail_s      op latency at the highest whole percentile with at least
                 10 ops beyond it; the median when there are fewer than 20
  ops_per_s      ops per second of program time
  setup_s        median set-up time, each set-up scaled as an op is
  peak_rss_mb    peak resident memory of the process
The failure rate is failed / attempted of the result line; it is no
metric of its own because a metric must never read 0.

Per-layer metrics (--trace 1): untraced passes for a third of the run,
then traced passes (see tracing.py). Counts come from the first traced
pass and must repeat on every traced pass; times are medians over traced
passes. Span times are raw seconds. trace.run_s and trace.overhead (the
median traced pass time over the median untraced one) are in reference
seconds.

The last stdout line is the result object. The line before it holds the
run's context: interpreter, CPU count, git sha, seed, op counts, the
percentile behind op_tail_s, and the failure rate. Both also go to
benchmarks/out/, with the raw op latencies and, for a traced run, the
spans.
"""

import argparse
import gzip
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 9
MIN_PASSES = 3
# candidate percentiles for op_tail_s, in whole percents so the choice
# moves smoothly with the op count; the highest with >= 10 ops beyond wins
TAIL_LADDER = (99.9,) + tuple(float(p) for p in range(99, 50, -1))
MODULES = ("exact", "cmlat", "corr", "decomp", "polyring", "fermat", "cli")
# The reference loop's time on the reference host: about its median on a
# 2-vCPU x86-64 VM under CPython 3.11, so reference seconds come out near
# raw seconds there.
REF_S = 0.0025


def reference_loop():
    """Wall time of a fixed exact-rational sum, the stdlib arithmetic the
    program's own exact code rests on. It runs between ops, outside their
    timing, and tracks the host's speed for code like the program's."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(i, i + 1)
    return time.perf_counter() - t0


class HostScale:
    """Turns raw times into reference seconds. scaled() takes the time of
    a call just made, times the reference loop after it, and scales by the
    mean of that loop time and the one before the call."""

    def __init__(self):
        self.before = reference_loop()
        self.loops = [self.before]

    def scaled(self, *raw):
        after = reference_loop()
        self.loops.append(after)
        factor = 2 * REF_S / (self.before + after)
        self.before = after
        return tuple(x * factor for x in raw)


class BenchError(Exception):
    """The benchmark cannot run here."""


def import_package():
    """Import motivix from this checkout's src/, dropping any copy
    already imported. Returns the module dict the ops and tracer use."""
    if not os.path.isfile(os.path.join(SRC, "motivix", "__init__.py")):
        raise BenchError("no motivix package under %s" % SRC)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "motivix" or n.startswith("motivix.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {"motivix": importlib.import_module("motivix")}
    for name in MODULES:
        modules["motivix." + name] = importlib.import_module("motivix." + name)
    origin = os.path.dirname(os.path.abspath(modules["motivix"].__file__))
    if origin != os.path.join(SRC, "motivix"):
        raise BenchError("motivix imported from %s, not from %s" % (origin, SRC))
    return modules


def setup(workload, seed, inputs_dir, small, host):
    """Import the package and generate the inputs; returns what the run
    needs plus the time it took, in reference seconds."""
    t0 = time.perf_counter()
    modules = import_package()
    pkg = workloads.Package(modules)
    inputs, ops = workloads.WORKLOADS[workload](pkg, seed, inputs_dir, small)
    (dt,) = host.scaled(time.perf_counter() - t0)
    return dt, modules, inputs, ops


def tail_percentile(n):
    """The percentile op_tail_s reports for n ops."""
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= 10:
            return p
    return 50.0


def _rank(p, n):
    """1-based nearest rank of percentile p among n sorted values."""
    return max(1, -(-int(round(p * 10)) * n // 1000))


def percentile(sorted_values, p):
    return sorted_values[_rank(p, len(sorted_values)) - 1]


class Runner:
    """Runs passes of a workload's ops and keeps what the metrics need."""

    def __init__(self, ops, host):
        self.ops = ops
        self.host = host
        self.tracer = None
        self.digests = None
        # per pass: wall, cpu, lat (reference seconds), raw_wall,
        # ops (id range), counters
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.op_seq = 0

    def run_pass(self):
        wall = cpu = raw_wall = 0.0
        latencies = []
        digests = []
        counters = {}
        first_op = self.op_seq
        for op in self.ops:
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.begin_op(self.op_seq)
            self.op_seq += 1
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out = op.run()
                error = None
            except Exception:  # an op that raises is a failed op, not a crash
                error = traceback.format_exc()
            t1 = time.perf_counter()
            c1 = time.process_time()
            if self.tracer is not None:
                self.tracer.end_op()
            lat, op_cpu = self.host.scaled(t1 - t0, c1 - c0)
            latencies.append(lat)
            wall += lat
            cpu += op_cpu
            raw_wall += t1 - t0
            digest = None
            if error is None:
                try:
                    digest, extra = op.check(out)
                    for key, value in extra.items():
                        counters[key] = counters.get(key, 0) + value
                except workloads.WrongOutput as exc:
                    error = "wrong output: %s" % exc
                except Exception:
                    error = traceback.format_exc()
            digests.append(digest)
            k = len(digests) - 1
            if error is None and self.digests is not None and self.digests[k] != digest:
                error = "output differs from the first pass"
            if error is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append("%s #%d: %s" % (op.kind, k, error.strip()))
        if self.digests is None:
            self.digests = digests
        self.passes.append(
            {"wall": wall, "cpu": cpu, "lat": latencies, "raw_wall": raw_wall,
             "ops": (first_op, self.op_seq), "counters": counters}
        )
        return wall

    def run_for(self, seconds, min_passes):
        """Start passes while the next one is expected to end in time."""
        t_start = time.perf_counter()
        durations = []
        while True:
            t0 = time.perf_counter()
            self.run_pass()
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - t_start
            if (len(durations) >= min_passes
                    and elapsed + statistics.median(durations) > seconds):
                return elapsed


def end_to_end(runner, setup_s, elapsed):
    lat = sorted(x for p in runner.passes for x in p["lat"])
    tail_p = tail_percentile(len(lat))
    metrics = {
        "run_s": statistics.median(p["wall"] for p in runner.passes),
        "cpu_s": statistics.median(p["cpu"] for p in runner.passes),
        "op_p50_s": percentile(lat, 50.0),
        "op_tail_s": percentile(lat, tail_p),
        "ops_per_s": len(lat) / sum(lat),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    context = {"op_tail_percentile": tail_p, "ops_timed": len(lat),
               "measured_s": elapsed,
               "raw_run_s": statistics.median(p["raw_wall"] for p in runner.passes)}
    return metrics, context


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(runner, tracer, untraced):
    """Per-layer metrics from the traced passes (all but the first
    `untraced`): counts from the first traced pass, times as medians over
    them. Returns the metrics and whether every count repeated on every
    pass."""
    traced = runner.passes[untraced:]
    untraced_wall = statistics.median(p["wall"] for p in runner.passes[:untraced])
    rows = [_pass_layers(tracer.layer_totals(range(*p["ops"])), p["counters"])
            for p in traced]
    counts = [{k: v for k, v in row.items() if not k.endswith("_s")} for row in rows]
    m = dict(counts[0])
    for key in rows[0]:
        if key.endswith("_s"):
            m[key] = statistics.median(row[key] for row in rows)
    m["trace.run_s"] = statistics.median(p["wall"] for p in traced)
    m["trace.overhead"] = m["trace.run_s"] / untraced_wall
    return m, all(c == counts[0] for c in counts)


def _pass_layers(totals, counters):
    row = dict(counters)
    for name, t in totals.items():
        for key, value in t.items():
            row["%s.%s" % (name, key)] = value
    for key in ("decomp.diag_assignments", "decomp.killed_identity",
                "decomp.killed_transpositions", "fermat.degree.primes_drawn",
                "cli.report_bytes"):
        row.setdefault(key, 0)
    integrality = totals[tracing.INTEGRALITY]
    calls = integrality["calls"]
    row["cmlat.is_integral.integral_ratio"] = integrality["integral"] / calls if calls else 0.0
    row["cmlat.is_integral.distinct_ratio"] = integrality["distinct"] / calls if calls else 0.0
    diag = row["decomp.diag_assignments"]
    row["decomp.queries_per_assignment"] = calls / diag if diag else 0.0
    return row


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha():
    """HEAD of the checkout's git repository, read without running git;
    None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def run(workload, seed, seconds, trace, small=False, write=True):
    """One benchmark run; returns (result, context)."""
    os.environ.pop("MOTIVIX_THREADS", None)  # conv-table stays serial
    tag = "%s-seed%d-trace%d" % (workload, seed, int(trace))
    # relative and seed-free, so the CLI reports (which echo the path)
    # have the same size in every checkout and for every seed
    inputs_dir = os.path.relpath(os.path.join(OUT, "inputs", workload))
    host = HostScale()
    times = []
    for _ in range(SETUP_REPS):
        dt, modules, inputs, ops = setup(workload, seed, inputs_dir, small, host)
        times.append(dt)
    setup_s = statistics.median(times)

    tracer = None
    if trace:
        runner = Runner(ops, host)
        t_start = time.perf_counter()
        runner.run_for(seconds / 3, 1)
        untraced = len(runner.passes)
        tracer = tracing.Tracer()
        runner.tracer = tracer
        tracer.install(modules)
        try:
            # at least two traced passes, so counts can be compared
            runner.run_for(seconds - (time.perf_counter() - t_start), 2)
        finally:
            tracer.uninstall()
        metrics, repeat = per_layer(runner, tracer, untraced)
    else:
        runner = Runner(ops, host)
        elapsed = runner.run_for(seconds, MIN_PASSES)
        metrics, extra = end_to_end(runner, setup_s, elapsed)

    context = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "nproc": cpu_count(),
        "git_sha": git_sha(),
        "ops_per_pass": len(ops),
        "passes": len(runner.passes),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failure_rate": runner.failed / runner.attempted,
        "failures": runner.failures,
        "reference_loop_s": statistics.median(host.loops),
    }
    if trace:
        context["counts_repeat_across_passes"] = repeat
        context["spans"] = len(tracer.start)
    else:
        context.update(extra)
    units = declared_units(trace)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError("BENCHMARK.json names metrics the run lacks: %s" % missing)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    if write:
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, "result-%s.json" % tag), "w", encoding="utf-8") as fh:
            passes = [{k: p[k] for k in ("wall", "cpu", "lat", "raw_wall")}
                      for p in runner.passes]
            json.dump({"context": context, "result": result, "inputs": inputs,
                       "passes": passes}, fh, indent=1, sort_keys=True)
        if tracer is not None:
            with gzip.open(os.path.join(OUT, "spans-%s.json.gz" % tag), "wt",
                           encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"],
                           "spans": tracer.spans()}, fh)
    return result, context


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, context = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("benchmark cannot run: %s" % exc, file=sys.stderr)
        return 2
    for line in context.get("failures", ()):
        print(line, file=sys.stderr)
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
