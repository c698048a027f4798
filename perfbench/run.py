#!/usr/bin/env python3
"""tcslat benchmark: run one workload in a single process and print its metrics.

Run from the root of a tcslat checkout (the package is imported from src/):

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

--trace 0 times the workload with no wrapper installed and reports the
end-to-end metrics listed in BENCHMARK.json.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics.  Ops run one after
another in a closed loop; every op's (exit code, output digest) is checked
against perfbench/expected.json.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  --workload all runs
each workload in its own process and prints one table.

End-to-end metrics: setup_s is the median wall time of a fresh interpreter
that imports tcslat.cli and loads the bundled catalogs; pass_s the median
over passes of the summed op times; op_p50_ms and op_p90_ms the 50th and
90th percentiles of all op samples of the run; peak_rss_mb the peak resident
memory of this process, which runs only the one workload.  failed_frac
(failed / attempted) is printed beside them.  Workload notes, exclusions and
predictions are in perfbench/notes.json.

Every time is speed-scaled: a fixed integer kernel of the benchmark's own runs
before each op and each set-up spawn, and each wall time is multiplied by
REF_NOMINAL_S over the median kernel time of its neighbourhood (see
SpeedReference).  The times reported are thus wall times at the machine speed
at which the kernel takes REF_NOMINAL_S; the unscaled wall times are printed
beside them.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# set-up: fresh interpreters that import the CLI and load the bundled catalogs,
# spawned before every pass so the samples spread over the whole run
SETUP_SNIPPET = "import tcslat.cli; tcslat.blocks.all_catalogs()"
SETUP_SPAWNS_PER_PASS = 3

# a run starts another pass only while it is expected to end within --seconds;
# it runs at least MIN_PASSES passes and MIN_OP_SAMPLES ops, so that ten op
# samples lie beyond p90
MIN_PASSES = 2
MIN_OP_SAMPLES = 100

# tracer self-check: an op's wall time and the self time its spans account
# for may differ by the tracing overhead share (floored, because the measured
# share is noisy and can read below zero) plus the entry and exit code of the
# root wrappers and harness glue, which lie outside every span
TRACE_MIN_OVERHEAD = 0.02
TRACE_SLACK_S = 50e-6

# speed reference: kernel repetitions per sample, reference samples on each
# side of an op whose median scales its time, and the kernel time the scaled
# times are expressed at (about what it takes on an idle 2-vCPU x86-64 VM)
REF_REPEATS = 16
REF_WINDOW = 10
REF_NOMINAL_S = 0.12e-3

_perf = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Gate:
    """Compares every op result with the recorded expectation."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # op name -> (got code, got digest)

    def check(self, op, code, digest):
        self.attempted += 1
        if self.expected.get(op.name) != [code, digest]:
            self.failed += 1
            self.failures.setdefault(op.name, (code, digest))


# fixed input of the reference kernel: strictly diagonally dominant, so every
# leading minor, and with it every Bareiss pivot, is nonzero
_REF_MATRIX = tuple(tuple(1000 if i == j else (7 * i + 13 * j) % 50 for j in range(12))
                    for i in range(12))
_REF_DET = 965835388100657593561633500000000000


def _reference_kernel():
    """Determinant of _REF_MATRIX by fraction-free (Bareiss) elimination, builtins only."""
    a = [list(row) for row in _REF_MATRIX]
    n = len(a)
    prev = 1
    for p in range(n - 1):
        pivot_row = a[p]
        pivot = pivot_row[p]
        for i in range(p + 1, n):
            row = a[i]
            lead = row[p]
            for j in range(p + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
    return a[-1][-1]


class SpeedReference:
    """Times a fixed kernel between timed calls, to scale their wall times.

    This process shares a core with other tenants' work, which slows it by up to
    2x for seconds to minutes at a time; timing the same integer kernel before
    every timed call tracks that speed.  A call's wall time is scaled by
    REF_NOMINAL_S over the median of the REF_WINDOW kernel samples on each side
    of it.  The kernel uses builtins only, so no change to tcslat can alter it.
    """

    def __init__(self):
        if _reference_kernel() != _REF_DET:
            raise RuntimeError("speed reference kernel computed a wrong determinant")
        self.samples = []

    def tick(self):
        """Time one reference sample; returns its index."""
        t0 = _perf()
        for _ in range(REF_REPEATS):
            _reference_kernel()
        self.samples.append((_perf() - t0) / REF_REPEATS)
        return len(self.samples) - 1

    def scale(self, index):
        """Factor that takes a wall time measured next to sample ``index`` to nominal speed."""
        window = self.samples[max(0, index - REF_WINDOW):index + REF_WINDOW + 1]
        return REF_NOMINAL_S / statistics.median(window)


def run_pass(ops, order_rng, gate, tracer=None, speed=None):
    """One pass in seeded order; returns (op times, per-op trace gaps).

    With ``speed``, a reference sample is timed before every op and each op
    time is returned as (reference sample index, seconds)."""
    order = list(ops)
    order_rng.shuffle(order)
    times = []
    gaps = []
    for op in order:
        index = speed.tick() if speed else None
        before = tracer.self_total if tracer else 0.0
        code, digest, dt = op.run()
        if tracer:
            gaps.append((op.name, dt, dt - (tracer.self_total - before)))
        gate.check(op, code, digest)
        times.append((index, dt) if speed else dt)
    return times, gaps


class SetupTimer:
    """Wall time of fresh interpreters doing the fixed work of every tcslat call."""

    def __init__(self, speed):
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        self.speed = speed
        self.samples = []  # (reference sample index, seconds)
        self._spawn()  # warms the bytecode and file caches; not a sample

    def _spawn(self):
        t0 = _perf()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=self.env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return _perf() - t0

    def sample(self, n):
        self.samples += [(self.speed.tick(), self._spawn()) for _ in range(n)]


def another_round(start, rounds, seconds):
    """True while one more round, as long as the mean round so far, still ends within seconds."""
    elapsed = _perf() - start
    return not rounds or elapsed + elapsed / rounds <= seconds


def timing_values(setup, passes):
    """The timed end-to-end metrics as {name: (value, sample count)}."""
    op_times = [t for times in passes for t in times]
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "pass_s": (statistics.median(sum(times) for times in passes), len(passes)),
        "op_p50_ms": (1000 * statistics.median(op_times), len(op_times)),
        "op_p90_ms": (1000 * statistics.quantiles(op_times, n=10)[8], len(op_times)),
    }


def untraced_run(ops, args, gate, order_rng):
    """End-to-end metrics as {name: (value, samples, unscaled value or None)}."""
    speed = SpeedReference()
    for _ in range(2 * REF_WINDOW):
        speed.tick()  # warm-up, and a full window before the first timed call
    setup = SetupTimer(speed)
    passes = []
    start = _perf()
    while (another_round(start, len(passes), args.seconds) or len(passes) < MIN_PASSES
           or len(passes) * len(ops) < MIN_OP_SAMPLES):
        setup.sample(SETUP_SPAWNS_PER_PASS)
        passes.append(run_pass(ops, order_rng, gate, speed=speed)[0])
    for _ in range(REF_WINDOW):
        speed.tick()  # a full window after the last timed call

    def scaled(samples):
        return [dt * speed.scale(i) for i, dt in samples]

    def wall(samples):
        return [dt for _, dt in samples]

    values = timing_values(scaled(setup.samples), [scaled(p) for p in passes])
    raw = timing_values(wall(setup.samples), [wall(p) for p in passes])
    values = {name: (value, n, raw[name][0]) for name, (value, n) in values.items()}
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1, None)
    return values, []


def layer_snapshot(tracer):
    """Per-layer metrics of one traced pass."""
    out = {}
    calls, self_s = tracer.layer_totals()
    for layer in tracer.modules:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    for key, _, _, _ in tracer.targets():
        st = tracer.stats.get(key)
        out[f"{key}.calls"] = st.calls if st else 0
        out[f"{key}.self_s"] = st.self_s if st else 0.0
        out[f"{key}.total_s"] = st.total_s if st else 0.0
    c = tracer.counters
    out["exactalg.snf.cells"] = c["exactalg.snf.cells"]
    out["embed.rank_checks"] = c["embed.rank_checks"]
    out["lattice.discriminant_group.distinct_ratio"] = _ratio(
        len(tracer.distinct_grams), out["lattice.discriminant_group.calls"])
    out["embed.construct_embedding.hit_ratio"] = _ratio(
        c["embed.construct_embedding.hits"], out["embed.construct_embedding.calls"])
    out["match.enumerate_pairs.accept_ratio"] = _ratio(
        c["match.enumerate_pairs.accepted"], c["match.enumerate_pairs.candidates"])
    return out


def _ratio(num, den):
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def traced_run(ops, args, gate, order_rng, tcslat, tracer_mod):
    """Alternate untraced and traced passes; per-layer values are pass medians.

    The overhead compares speed-scaled pass times; the self times are unscaled."""
    tracer = tracer_mod.Tracer(tcslat)
    speed = SpeedReference()
    for _ in range(2 * REF_WINDOW):
        speed.tick()
    plain, traced, snapshots, gaps = [], [], [], []
    start = _perf()
    while another_round(start, len(traced), args.seconds):
        plain.append(run_pass(ops, order_rng, gate, speed=speed)[0])
        tracer.install()
        try:
            tracer.reset()
            times, pass_gaps = run_pass(ops, order_rng, gate, tracer, speed)
        finally:
            tracer.uninstall()
        traced.append(times)
        gaps.extend(pass_gaps)
        snapshots.append(layer_snapshot(tracer))
    for _ in range(REF_WINDOW):
        speed.tick()

    def pass_median(passes):
        return statistics.median(sum(dt * speed.scale(i) for i, dt in p) for p in passes)

    overhead = pass_median(traced) / pass_median(plain) - 1
    values = {key: (statistics.median(s[key] for s in snapshots), len(snapshots), None)
              for key in snapshots[0]}
    values["trace.overhead_frac"] = (overhead, len(traced), None)
    tolerance = max(overhead, TRACE_MIN_OVERHEAD)
    problems = [f"trace self-check: {name}: wall {dt:.6f} s, unattributed {gap:.6f} s"
                for name, dt, gap in gaps if abs(gap) > tolerance * dt + TRACE_SLACK_S]
    return values, problems


def environment(load_before):
    import numpy

    nproc = len(os.sched_getaffinity(0))
    load_after = os.getloadavg()[0]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": nproc,
        "load1_before": load_before,
        "load1_after": load_after,
        "overloaded": max(load_before, load_after) > nproc,
    }


def run_workload(args):
    import tcslat
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    load_before = os.getloadavg()[0]
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(EXPECTED, encoding="utf-8") as fh:
        gate = Gate(json.load(fh))
    ops = workloads.pass_ops(args.workload, args.seed)
    order_rng = random.Random(f"order/{args.seed}")
    problems = [f"wrapper left installed: {name}"
                for name in tracer_mod.leftover_wrappers(
                    getattr(tcslat, layer) for layer in tracer_mod.LAYERS)]
    if args.trace:
        values, trace_problems = traced_run(ops, args, gate, order_rng, tcslat, tracer_mod)
        wanted = spec["per_layer"]
    else:
        values, trace_problems = untraced_run(ops, args, gate, order_rng)
        wanted = spec["end_to_end"]
    problems += trace_problems
    problems += [f"output gate: {name}: got exit {code}, sha256 {digest}"
                 for name, (code, digest) in sorted(gate.failures.items())]

    env = environment(load_before)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"ops_per_pass {len(ops)} attempted {gate.attempted}")
    metrics = {}
    samples = {}
    for m in wanted:
        value, n, wall = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        samples[m["name"]] = n
        unscaled = "" if wall is None else f" unscaled {wall:.6g}"
        print(f"  {m['name']:<44} {value:>14.6g} {m['unit']:<6} n={n}{unscaled}")
    failed_frac = gate.failed / gate.attempted
    print(f"  {'failed_frac':<44} {failed_frac:>14.6g} {'ratio':<6} n={gate.attempted}")
    for line in problems:
        print(line, file=sys.stderr)
    if env["overloaded"]:
        print("warning: load average exceeded nproc during this run", file=sys.stderr)
    print("env " + json.dumps(env))
    print("samples " + json.dumps(samples))
    print(json.dumps({"correct": not problems, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process (peak RSS is per process); one table."""
    import workloads

    print(f"{'workload':<11} {'metric':<12} {'value':>12} {'unit':<6} {'samples':>7}")
    ok = True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name:<11} failed (exit {proc.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        samples = json.loads(lines[-2].split(" ", 1)[1])
        for metric, m in result["metrics"].items():
            print(f"{name:<11} {metric:<12} {m['value']:>12.6g} {m['unit']:<6} {samples[metric]:>7}")
        frac = result["failed"] / result["attempted"]
        print(f"{name:<11} {'failed_frac':<12} {frac:>12.6g} {'ratio':<6} {result['attempted']:>7}")
        sys.stderr.write(proc.stderr)
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tcslat", "__init__.py")):
        print(f"run.py: no tcslat sources under {SRC}; run from a tcslat checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    os.environ.pop("TCS_TABLES_DIR", None)  # always the bundled tables
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
