"""agentmesh benchmark: one workload per invocation, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload discovery --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: it runs steps
for ``--seconds`` and at least the digest prefix, reading the machine's speed
around every op (see REFERENCE_PROBE_S), and sets the workload up several
times spread over the run (see SETUP_RUNS). ``--trace 1`` runs the digest
prefix three times -- untraced, traced, traced again -- and reports the
per-layer metrics of the first traced pass; it checks that tracing changes no
output bytes and that every count repeats exactly. See perfbench/README.md.

The last line of standard output is the result object; the line before it
holds details (digest, drift against perfbench/baseline.json, machine, tail
percentile, problems).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

# Fix BLAS threads at or below nproc before anything imports numpy.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MAX_PROBLEMS = 20

# A shared machine runs at more than one speed: for stretches from a few
# hundredths of a second to many minutes, the same work takes 1.3-2x as long,
# and kinds of work slow by different factors. So the benchmark reads the
# machine's speed with a probe -- a fixed mix of the kinds of work agentmesh
# does (interpreter loops, dicts, small numpy vectors, SHA-256, one Ed25519
# verify), about a third of a millisecond, independent of agentmesh -- before
# and after every step and between the ops of a step (see Meter), and reports
# every time at the reference speed: a time measured while the probe took p
# seconds is scaled by REFERENCE_PROBE_S / p, with p the mean of the readings
# just before and just after it. REFERENCE_PROBE_S is about the probe's time
# on a 2-core Xeon at 2.0 GHz in its faster state (Python 3.11, numpy 2.4,
# cryptography 48), so there the reported times are close to CPU times. A
# slower program still reads slower: the probe runs no agentmesh code.
REFERENCE_PROBE_S = 0.35e-3

# Every interval and probe reading is measured in the process's CPU time. The
# benchmark runs one thread and does no I/O, so that is the time a user
# waits, less the time the host gives the CPU to other machines (steal time,
# which on the shared machine reached half of an op's wall time).
clock = time.process_time

# A set-up is scaled like an op, by the readings just before and just after
# it. ``setup_s`` is the median of SETUP_RUNS set-ups spread over the run.
SETUP_RUNS = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    import platform

    import cryptography
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads(),
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_probe():
    """The speed probe: a function returning the seconds its fixed work takes
    right now."""
    import numpy as np
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    key = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
    public, message = key.public_key(), bytes(range(100))
    signature = key.sign(message)
    a, b = np.linspace(-1.0, 1.0, 64), np.linspace(1.0, -1.0, 64)

    def work() -> None:
        acc = 0
        for i in range(1000):
            acc += i * i
        table = {}
        for i in range(150):
            table[str(i)] = (i, [i])
        sorted(table.items())
        for _ in range(8):
            float(np.dot(a, b)) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
        for i in range(60):
            hashlib.sha256(message + i.to_bytes(4, "big")).digest()
        public.verify(signature, message)

    def probe() -> float:
        work()  # an op leaves the caches cold; the first pass warms them
        started = clock()
        work()
        return clock() - started

    return probe


def tail(samples: list[float], tail_ops: int) -> tuple[float, float]:
    """The nearest-rank percentile 100 * (1 - 10 / tail_ops) of the samples,
    and that percentile. With at least tail_ops samples, at least ten lie
    beyond it. The percentile is fixed per workload, not taken from the
    sample count: a faster program runs more ops in a run, and a percentile
    that rose with them would read its tail as worse."""
    ordered = sorted(samples)
    rank = -(-len(ordered) * (tail_ops - 10) // tail_ops)  # ceil, in integers
    return ordered[max(rank, 1) - 1], 100.0 * (tail_ops - 10) / tail_ops


class Meter:
    """Timestamps at op boundaries, each with a speed reading; the probe's own
    time falls between two timestamps of one mark, so it is in no interval."""

    def __init__(self, probe=None) -> None:
        self.probe = probe
        self.marks: list[tuple[float, float, float]] = []  # (reached, reading, resumed)

    def mark(self) -> None:
        reached = clock()
        reading = self.probe() if self.probe else 0.0
        self.marks.append((reached, reading, clock()))


def intervals(marks) -> list[tuple[float, float]]:
    """(CPU seconds, seconds at the reference speed) between consecutive
    marks; an interval is scaled by the mean of its two end readings."""
    out = []
    for (_reached, before, resumed), (reached, after, _resumed) in zip(marks, marks[1:]):
        cpu = reached - resumed
        out.append((cpu, cpu * REFERENCE_PROBE_S / ((before + after) / 2)))
    return out


def total(pieces: list[tuple[float, float]]) -> tuple[float, float]:
    return sum(cpu for cpu, _scaled in pieces), sum(scaled for _cpu, scaled in pieces)


class Pass:
    """One run of steps over one workload state; gathers what the gates and
    metrics need."""

    def __init__(self, workload, state, probe=None) -> None:
        self.workload = workload
        self.state = state
        self.meter = Meter(probe)
        self.steps = []  # (Step or None, the step's meter marks)
        self.failed = 0
        self.problems: list[str] = []
        self.hasher = hashlib.sha256(workload.setup_record(state))

    def run_step(self, i: int, root=None) -> None:
        wl = self.workload
        first = len(self.meter.marks)
        self.meter.mark()
        try:
            if root is None:
                raw = wl.step(self.state, i, self.meter)
            else:
                with root("op"):
                    raw = wl.step(self.state, i, self.meter)
        except Exception as exc:  # a failed op is counted, and the run goes on
            self.meter.mark()
            self.failed += wl.ops_per_step
            self.problems.append(f"step {i} raised {exc!r}")
            self.steps.append((None, self.meter.marks[first:]))
            return
        self.meter.mark()
        step = wl.check(self.state, i, raw)
        self.failed += step.failed
        self.problems += step.problems
        if i < wl.digest_steps:
            self.hasher.update(step.record)
        self.steps.append((step, self.meter.marks[first:]))

    def finish(self) -> None:
        self.problems += self.workload.final_problems(self.state)

    @property
    def attempted(self) -> int:
        return len(self.steps) * self.workload.ops_per_step

    @property
    def digest(self) -> str:
        return self.hasher.hexdigest()

    @property
    def step_times(self) -> list[float]:
        return [marks[-1][0] - marks[0][2] for _step, marks in self.steps]

    def ops(self) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
        """(CPU, reference-speed) latency of every op of every good step, and
        of every good step's time outside its ops."""
        latencies, outside = [], []
        for step, marks in self.steps:
            if step is None:
                continue
            pieces = intervals(marks)
            bounds = step.op_starts + [len(marks) - 1]
            outside.append(total(pieces[: bounds[0]]))
            latencies += [total(pieces[start:end]) for start, end in zip(bounds, bounds[1:])]
        return latencies, outside


def run_untraced(wl, seed: int, seconds: float):
    from perfbench import selftest

    problems = selftest.selftest_standalone()
    probe = make_probe()
    setups, records = [], []

    def timed_setup():
        before = probe()
        started = clock()
        state = wl.setup(seed)
        cpu = clock() - started
        setups.append((cpu, cpu * REFERENCE_PROBE_S / ((before + probe()) / 2)))
        records.append(wl.setup_record(state))
        return state

    # The first set-up's state is measured; the other set-ups are spread over
    # the run, so that they meet the machine at its usual mix of speeds.
    run = Pass(wl, timed_setup(), probe)
    started, started_cpu = time.perf_counter(), clock()
    i = 0
    while i < wl.digest_steps or i * wl.ops_per_step < wl.tail_ops or time.perf_counter() - started < seconds:
        if len(setups) < SETUP_RUNS and time.perf_counter() - started >= len(setups) * seconds / SETUP_RUNS:
            timed_setup()
            gc.collect()  # the dropped state's garbage, outside every op
        run.run_step(i)
        i += 1
    loop_wall, loop_cpu = time.perf_counter() - started, clock() - started_cpu
    while len(setups) < SETUP_RUNS:
        timed_setup()
    run.finish()
    if len(set(records)) != 1:
        problems.append("set-up is not deterministic: repeated set-ups differ")

    ops, outside = run.ops()
    cpu, latencies = ([op[k] for op in ops] for k in (0, 1))
    tail_s, tail_pct = tail(latencies, wl.tail_ops)
    if len(latencies) < wl.tail_ops:
        problems.append(f"{len(latencies)} ops measured; the tail needs {wl.tail_ops}")
    metrics = {
        "setup_s": {"value": statistics.median(scaled for _cpu, scaled in setups), "unit": "s"},
        "ops_per_s": {"value": len(ops) / (sum(latencies) + sum(scaled for _cpu, scaled in outside)), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "latency_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    quartiles = statistics.quantiles([reading for _r, reading, _s in run.meter.marks], n=4)
    cpu_outside = sum(c for c, _scaled in outside)
    details = {
        "steps": len(run.steps),
        "latency_samples": len(ops),
        "latency_tail_percentile": tail_pct,
        "probe_ms": {"q1": quartiles[0] * 1e3, "median": quartiles[1] * 1e3, "q3": quartiles[2] * 1e3},
        # The same figures in CPU time, unscaled, and the share of the timed
        # loop's wall time that the process had the CPU.
        "cpu": {
            "setup_runs_s": [c for c, _scaled in setups],
            "outside_ops_s": cpu_outside,
            "ops_per_s": len(ops) / (sum(cpu) + cpu_outside),
            "latency_p50_ms": statistics.median(cpu) * 1e3,
            "latency_tail_ms": tail(cpu, wl.tail_ops)[0] * 1e3,
            "share_of_wall": loop_cpu / loop_wall,
        },
    }
    return run, problems + run.problems, metrics, details


def run_traced(wl, seed: int):
    from perfbench import layers, selftest
    from perfbench.tracer import Tracer

    problems = []
    reference = Pass(wl, wl.setup(seed))
    for i in range(wl.digest_steps):
        reference.run_step(i)
    reference.finish()
    passes = [reference]
    tracers = []
    for keep_spans in (True, False):
        tracer = Tracer(keep_spans=keep_spans)
        layers.attach(tracer)
        tracer.install()
        try:
            with tracer.root("selftest"):
                problems += selftest.run_selftest(tracer)
            with tracer.root("setup"):
                state = wl.setup(seed)
            run = Pass(wl, state)
            for i in range(wl.digest_steps):
                run.run_step(i, root=tracer.root)
        finally:
            tracer.uninstall()
        problems += selftest.check_bindings(installed=False)
        run.finish()
        passes.append(run)
        tracers.append(tracer)
    for run in passes:
        problems += run.problems
    if len({run.digest for run in passes}) != 1:
        problems.append("tracing changed the output: traced and untraced digests differ")
    first, second = tracers[0].counts(), tracers[1].counts()
    if first != second:
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        problems.append(f"per-layer counts differ between two traced runs: {diff[:5]}")
    # Medians of per-step times, so that a cold first step does not count.
    overhead = statistics.median(passes[1].step_times) / statistics.median(reference.step_times)
    metrics = layers.per_layer_metrics(tracers[0], overhead)
    specs = {spec["name"]: spec for spec in layers.metric_specs()}
    out = {name: {"value": metrics[name], "unit": specs[name]["unit"]} for name in specs}
    totals = layers.layer_self_seconds(tracers[0])
    spans_path = OUT_DIR / f"{wl.name}-seed{seed}.spans.tsv.gz"
    tracers[0].write_spans(spans_path)
    details = {
        "largest_self_time_layer": max(totals, key=totals.get),
        "layer_self_s": totals,
        "spans": len(tracers[0].spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return passes, problems, out, details


def main(argv=None) -> int:
    args = parse_args(argv)
    # Measure the checkout's own source, never an installed copy.
    if not (ROOT / "src" / "agentmesh").is_dir():
        print(f"perfbench: no agentmesh source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        import agentmesh  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import agentmesh from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        passes, problems, metrics, details = run_traced(wl, args.seed)
        digest = passes[0].digest
        attempted = sum(run.attempted for run in passes)
        failed = sum(run.failed for run in passes)
        notes = wl.notes(passes[0].state)
    else:
        run, problems, metrics, details = run_untraced(wl, args.seed, args.seconds)
        digest = run.digest
        attempted, failed = run.attempted, run.failed
        notes = wl.notes(run.state)

    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    recorded = baseline["digests"].get(wl.name, {}).get(str(args.seed))
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "digest": digest,
        "drift": None if recorded is None else recorded != digest,
        "error_rate": failed / attempted if attempted else 1.0,
        "problems": problems[:MAX_PROBLEMS],
        "machine": machine(),
        **details,
        **notes,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
