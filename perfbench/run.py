"""Benchmark of the ``immaculate`` CLI and library, closed loop, one client.

    python3 perfbench/run.py --workload pieri-large --seed 1 --seconds 45 --trace 0

Runs the chosen workload's fixed batch of queries through
``immaculate.cli.main`` again and again until ``--seconds`` have passed (at
least three batches, or one with ``--trace 1``), checks every answer of the
first batch by a second route and every later batch against the first, and
prints a summary, a report line (seed, query mix, size histogram, caches
found) and, last, one JSON result line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced batches and reports the per-layer metrics.
``--workload all`` runs every workload in turn, each in its own process.
Times are scaled to reference speed by ``reference.Speed``.  See README.md
in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# query outputs of this process, removed at exit
SCRATCH = ROOT / ".perfbench" / str(os.getpid())
# cold starts before the first batch, and after every batch
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_BATCH = 1
MIN_BATCHES = 3
EXIT_WRONG = 1
EXIT_USAGE = 2
EXIT_SELFCHECK = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def measure_setup(args, probes: int) -> list:
    """Cold starts: a fresh interpreter imports the package and builds the
    workload's queries, then prints the wall-clock time it was ready.
    Spread over the run, they see the machine at its different speeds.  A
    cold start is too short to scale by the kernel samples around it (they
    run in this process, not the new one); ``setup_s`` scales their median
    by the run's median kernel time instead."""
    times = []
    for _ in range(probes):
        started = time.time()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout) - started)
    return times


class Batch:
    """One pass over the workload's queries, each run once."""

    def __init__(self):
        self.latencies = []  # as measured, less the time spent sampling
        self.spans = []  # (start, end) of each query, perf_counter
        self.scaled = []  # at reference speed, set by rescale
        self.exit_codes = []
        self.digests = []
        self.cache_stats = Counter()

    @property
    def wall_s(self) -> float:
        return sum(self.scaled)

    @property
    def raw_wall_s(self) -> float:
        return sum(self.latencies)

    def rescale(self, speed):
        self.scaled = [t * speed.scale(*span)
                       for t, span in zip(self.latencies, self.spans)]


def median_latencies(batches) -> list:
    """Each query's latency at reference speed: the median of its runs, one
    per batch."""
    return [statistics.median(runs) for runs in zip(*(b.scaled for b in batches))]


def run_batch(queries, caches, cold: bool, outputs: Path | None, speed) -> Batch:
    """Run every query once, closed loop.  Only ``cli.main`` is timed;
    emptying the caches and writing the output file are outside the timed
    region, and so is the kernel sampling when ``speed`` is given.  With
    ``outputs``, query i's output is kept as ``outputs/i``."""
    import immaculate.cli

    batch = Batch()
    if not cold:
        caches.clear()
    shared = SCRATCH / "out"
    sampling = speed.sampling() if speed else contextlib.nullcontext()
    with open(os.devnull, "w") as errors, sampling:
        for i, q in enumerate(queries):
            if cold:
                caches.clear()
            path = outputs / str(i) if outputs else shared
            before = caches.info()
            with open(path, "w") as out, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(errors):
                spent = speed.spent if speed else 0.0
                start = time.perf_counter()
                rc = immaculate.cli.main(q.argv)
                end = time.perf_counter()
                spent = (speed.spent if speed else 0.0) - spent
            batch.latencies.append(end - start - spent)
            batch.spans.append((start, end))
            batch.cache_stats.update(caches.info() - before)
            batch.exit_codes.append(rc)
            batch.digests.append(file_digest(path))
    return batch


def check_answers(queries, first: Batch, others, outputs: Path) -> str | None:
    """None when every answer is right, else the first problem found."""
    from workloads import WrongAnswer

    for i, q in enumerate(queries):
        try:
            q.check(q, first.exit_codes[i], (outputs / str(i)).read_text())
        except WrongAnswer as exc:
            return f"{q.kind} {' '.join(q.argv)}: {exc}"
    for batch in others:
        for i, q in enumerate(queries):
            if (batch.digests[i], batch.exit_codes[i]) != (first.digests[i],
                                                          first.exit_codes[i]):
                return f"{q.kind} {' '.join(q.argv)}: a later run answered differently"
    return None


def emit(correct, attempted, failed, metrics, summary, report):
    for line in summary:
        print(line)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_workload(args, units) -> int:
    import reference
    import tracing
    import workloads

    if args.trace:
        import selfcheck

        failure = selfcheck.run_all()
        if failure:
            print(f"tracing self-check failed: {failure}", file=sys.stderr)
            return EXIT_SELFCHECK
    build, cold = workloads.WORKLOADS[args.workload]
    speed = reference.Speed()
    setup_times = [] if args.trace else measure_setup(args, SETUP_PROBES_FIRST)
    queries = build(args.seed)
    caches = tracing.Caches()
    first_outputs = SCRATCH / "first"
    first_outputs.mkdir(parents=True, exist_ok=True)

    deadline = time.perf_counter() + args.seconds
    plain, traced, layers = [], [], []
    while len(plain) < (1 if args.trace else MIN_BATCHES) or time.perf_counter() < deadline:
        plain.append(run_batch(queries, caches, cold,
                               None if plain else first_outputs, speed))
        if not args.trace:
            setup_times += measure_setup(args, SETUP_PROBES_PER_BATCH)
        if args.trace:
            tracer = tracing.Tracer()
            installed = tracing.Installation(tracer)
            try:  # unsampled, so the sampler shows in no layer's self time
                batch = run_batch(queries, caches, cold, None, None)
            finally:
                installed.remove()
            traced.append(batch)
            layers.append(tracing.layer_metrics(tracer, batch.cache_stats))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for batch in plain:
        batch.rescale(speed)

    problem = check_answers(queries, plain[0], plain[1:] + traced, first_outputs)
    attempted = len(queries) * len(plain)
    failed = sum(rc != 0 for b in plain for rc in b.exit_codes)
    latencies = median_latencies(plain)
    latencies_ms = [t * 1000 for t in latencies]

    if args.trace:
        # every per-layer metric; zero where the workload does not exercise it
        metrics = {name: statistics.median(layer.get(name, 0.0) for layer in layers)
                   for name in units}
        # each traced batch against the untraced batch just before it
        metrics["trace.overhead_ratio"] = statistics.median(
            t.raw_wall_s / b.raw_wall_s for b, t in zip(plain, traced))
        if args.workload == "verify-warm":  # suite times, from untraced batches
            for q, seconds in zip(queries, latencies):
                metrics[f"sweeps.{q.params[0]}.s"] = seconds
    else:
        metrics = {
            "setup_s": statistics.median(setup_times) * reference.REFERENCE_S
                       / statistics.median(speed.took),
            "wall_s": statistics.median(b.wall_s for b in plain),
            "latency_p50_ms": percentile(latencies_ms, 50),
            "latency_p95_ms": percentile(latencies_ms, 95),
            "peak_rss_mb": peak_rss_mb,
            "answered_ratio": (attempted - failed) / attempted,
        }
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in metrics.items()}

    summary = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
        f"{len(plain)} batches of {len(queries)} queries"
        + (f", {len(traced)} traced" if traced else ""),
    ]
    summary += [f"  {name:<48} {m['value']:>14.6g} {m['unit']}"
                for name, m in metrics.items()]
    summary.append(f"  fail_ratio {failed}/{attempted} refused or failed/attempted; "
                   f"latency samples {len(latencies_ms)}; wrong answers "
                   f"{0 if problem is None else 'yes: ' + problem}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "batches": len(plain),
        "traced_batches": len(traced),
        "latency_samples": len(latencies_ms),
        "fail_ratio": {"failed": failed, "attempted": attempted},
        "setup_samples_s": setup_times,
        "batch_wall_s": [b.wall_s for b in plain],
        "batch_raw_wall_s": [b.raw_wall_s for b in plain],
        "reference_s": reference.REFERENCE_S,
        "kernel_s": {"samples": len(speed.took),
                     "quartiles": statistics.quantiles(speed.took, n=4)},
        "caches_cleared": caches.names(),
        **workloads.describe(queries),
    }
    emit(problem is None, attempted, failed, metrics, summary, report)
    if problem is not None:
        print(f"wrong answer: {problem}", file=sys.stderr)
        return EXIT_WRONG
    return 0


def load_units(key: str) -> dict:
    """Metric name -> unit, for the BENCHMARK.json section ``key``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def run_all(args) -> int:
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            timeout=900,
        )
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "immaculate" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'immaculate'} is missing",
              file=sys.stderr)
        return EXIT_USAGE
    sys.path.insert(0, str(SRC))
    import immaculate.cli  # noqa: F401  (the whole package, as the CLI loads it)
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return EXIT_USAGE
    if args.setup_probe:
        workloads.WORKLOADS[args.workload][0](args.seed)
        print(repr(time.time()))
        return 0
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args, load_units("per_layer" if args.trace else "end_to_end"))
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.parent.rmdir()  # only once no other run is using it


if __name__ == "__main__":
    sys.exit(main())
