"""edgeplan benchmark: one workload per call, one JSON result line at the end.

    python3 bench/run.py --workload ccg-10x10 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Each workload runs single-threaded in its own fresh process
(bench/worker.py), so its peak memory is its own.  Set-up time is the median
of three fresh processes: two that only set up, and the measured one.

`--trace 0` reports the end-to-end metrics: setup_s, solve_ref and
peak_rss_mb.  solve_ref is the median time of one operation as a multiple
of the fixed reference kernel's time (bench/reference.py) measured beside
it, because other tenants of the host change raw wall times by up to half
over minutes.  `--trace 1` reports the per-layer metrics of
bench/tracer.py instead, with the raw median wall seconds of an operation
and of the kernel as process.solve_s and process.reference_s.  `attempted` and `failed`
count operations, so failed/attempted is the failure rate; `--workload all`
adds it as `fail_rate` to each workload's line.  A line is printed only for
a workload that ran; the exit code is nonzero otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ccg-10x10", "evaluate-20x20", "sweep-K2")
SETUP_PROBES = 2
DEADLINE_S = 170.0
END_TO_END = {"setup_s": "s", "solve_ref": "x", "peak_rss_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all three in turn (one line each, with fail_rate)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="4x4 instances and 20 scenarios, for the self-test")
    return p.parse_args(argv)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               # the sweep manifest runs `git describe`; keep it from searching above the checkout
               GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    return env


def _spawn(args, workload: str, workdir: Path, tag: str, deadline: float, *,
           setup_only: bool) -> dict:
    out = workdir / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--out", str(out)]
    cmd += ["--toy"] * args.toy + ["--setup-only"] * setup_only
    cmd += ["--spawned-at", repr(time.monotonic())]
    # solver and CLI prints go to stderr, away from the result line
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                          stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(f"{tag} process exited with {proc.returncode}")
    return json.loads(out.read_text())


def _measure(args, workload: str) -> dict:
    """Result document of one workload, with setup_s as the median of all set-ups."""
    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        setups = [_spawn(args, workload, workdir, f"setup{k}", deadline, setup_only=True)
                  ["setup_s"] for k in range(0 if args.trace else SETUP_PROBES)]
        doc = _spawn(args, workload, workdir, "run", deadline, setup_only=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc["setup_s"] = statistics.median(setups + [doc["setup_s"]])
    return doc


def _line(doc: dict, trace: int) -> dict:
    if trace:
        metrics = {name: {"value": doc["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": doc[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": doc["failed"] == 0, "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "edgeplan" / "__init__.py").is_file():
        print(f"no edgeplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            doc = _measure(args, name)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark failed: {name}: {exc}", file=sys.stderr)
            return 1
        print(f"{name}: untraced operations took {doc['walls']} s, "
              f"{doc['relative']} times the reference kernel", file=sys.stderr)
        for note in doc["notes"]:
            print(f"check: {name}: {note}", file=sys.stderr)
        line = _line(doc, args.trace)
        if args.workload == "all":
            line = {"workload": name, **line}
            line["metrics"]["fail_rate"] = {"value": doc["failed"] / doc["attempted"],
                                            "unit": "1"}
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
