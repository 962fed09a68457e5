"""One workload in one fresh process: set up, time operations, check them.

Started by run.py, never by hand.  HiGHS and `edgeplan sweep` print to
stdout, so the numbers go to the JSON file named by --out instead.

Untraced runs repeat the operation until --seconds have passed (at least
once), operation k on input k of the workload's cycle.  The fixed
reference kernel of bench/reference.py runs before the first operation and
after each one; an operation's relative time is its wall time over the
mean of the two kernel times beside it.  The run reports the median
relative time and the median wall time.  Traced runs alternate an untraced
and a traced operation instead, all on input 0: the traced ones give the
per-layer metrics, and the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _operate(workload, k, tracer):
    """Run operation k; returns (result or exception, wall s, cpu s, spans)."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            result = workload.run(k)
        else:
            with tracer:
                result = workload.run(k)
    except Exception as exc:  # counted as failed operations, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        result = exc
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return result, wall, cpu, (tracer.take() if tracer is not None else [])


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(SRC))
    import edgeplan
    if Path(edgeplan.__file__).resolve().parent != SRC / "edgeplan":
        raise SystemExit(f"edgeplan imported from {edgeplan.__file__}, not {SRC}")
    import reference
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.toy, args.workdir)
    tracer = tracing.Tracer(edgeplan) if args.trace else None
    if tracer is None:
        workload.setup()
    else:
        with tracer:
            workload.setup()
        setup_layers = tracing.layer_metrics(tracer.take())
    doc = {"setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(doc))
        return 0

    reference.kernel()  # warm-up, outside every measurement
    results, walls, relative, traced_walls, traced_ops = [], [], [], [], []
    start = time.perf_counter()
    refs = [_timed(reference.kernel)]
    while True:
        cycle = time.perf_counter()
        k = 0 if tracer is not None else len(walls)
        result, wall, _, _ = _operate(workload, k, None)
        refs.append(_timed(reference.kernel))
        results.append(result)
        walls.append(wall)
        relative.append(wall / ((refs[-2] + refs[-1]) / 2))
        if len(walls) == 1:
            # later operations only raise the high-water mark by heap fragmentation
            doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result, wall, cpu, spans = _operate(workload, k, tracer)
            refs.append(_timed(reference.kernel))
            results.append(result)
            traced_walls.append(wall)
            traced_ops.append({**tracing.layer_metrics(spans), "process.cpu_s": cpu})
        now = time.perf_counter()
        if now - start + (now - cycle) > args.seconds:
            break
    doc.update(solve_ref=statistics.median(relative), solve_s=statistics.median(walls),
               reference_s=statistics.median(refs), walls=walls, relative=relative)

    outcome = workloads.Outcome(0, 0)
    for result in results:
        outcome = outcome + workloads.check(workload, result)
    doc.update(attempted=outcome.attempted, failed=outcome.failed, notes=outcome.notes[:20])
    if tracer is not None:
        layers = tracing.combine(setup_layers, traced_ops)
        layers["trace.overhead_frac"] = statistics.median(traced_walls) / doc["solve_s"] - 1.0
        layers["process.solve_s"] = doc["solve_s"]
        layers["process.reference_s"] = doc["reference_s"]
        doc["per_layer"] = layers
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
