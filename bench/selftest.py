"""Self-test of the benchmark; exits nonzero on the first broken property.

    python3 bench/selftest.py          # toy sizes (4x4, 20 scenarios), about a minute
    python3 bench/selftest.py --full   # exact-count repeat at full size, several minutes

It checks that every workload reports every metric of BENCHMARK.json with
its unit and no failure; that the counts bench/design.json marks exact
repeat across two traced runs at seed 0; that a result corrupted by 1%
counts as a failed operation on every workload; and that the benchmark
refuses to report in a directory without the package sources.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((BENCH / "design.json").read_text())


def _run(*flags: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *flags], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def _result(workload: str, trace: int, toy: bool) -> dict:
    flags = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = _run(*flags, *(["--toy"] if toy else []))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_report(workload: str, trace: int, doc: dict) -> None:
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1, \
        f"{workload} trace={trace}: {doc['failed']} of {doc['attempted']} failed"
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert got == expected, f"{workload} trace={trace}: metrics differ: " \
        f"{set(got) ^ set(expected)} or units {[n for n in got if got[n] != expected.get(n)]}"
    for name, m in doc["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)


def _exact(name: str) -> bool:
    return any(name == p or (p.endswith("*") and name.startswith(p[:-1]))
               for p in DESIGN["exact_counts"])


def check_exact_repeat(workload: str, first: dict, second: dict) -> None:
    names = [n for n in first["metrics"] if _exact(n)]
    assert names, "no exact counts reported"
    differ = {n: (first["metrics"][n]["value"], second["metrics"][n]["value"]) for n in names
              if first["metrics"][n]["value"] != second["metrics"][n]["value"]}
    assert not differ, f"{workload}: exact counts moved between runs: {differ}"


def check_corruption(workdir: Path) -> None:
    """A 1% error in one result field turns into a failed operation."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        wl = cls(0, True, str(workdir / name))
        (workdir / name).mkdir()
        wl.setup()
        result = wl.run(1)
        clean = wl.check(result)
        assert clean.failed == 0 and clean.attempted == wl.operations, (name, clean)
        if name == "ccg-10x10":
            k, res = result
            bad = [(k, dataclasses.replace(res, objective=res.objective * 1.01))]
        elif name == "evaluate-20x20":
            b, report = result
            costs = report.recourse_costs.copy()
            costs[next(r for r in wl.sample if r // wl.block == b) - b * wl.block] *= 1.01
            worst = dataclasses.replace(report, certified_worst=report.certified_worst * 1.01)
            bad = [(b, dataclasses.replace(report, recourse_costs=costs)), (b, worst)]
        else:
            rows, problems = workloads.read_sweep(result.outdir)
            assert not problems, problems
            for field in ("objective", "certified_worst"):
                corrupted = [dict(r) for r in rows]
                kkt = next(r for r in corrupted if r["method"] == "ccg-kkt")
                kkt[field] *= 1.01
                outcome = workloads.check_sweep_rows(corrupted)
                assert outcome.failed >= 1, (name, field, outcome)
            with open(Path(result.outdir) / "sweep.csv", "a", encoding="utf-8") as fh:
                fh.write("\n")
            bad = [result]
        for corrupted in bad:
            outcome = wl.check(corrupted)
            assert outcome.failed >= 1, (name, outcome)
        print(f"ok corruption {name}")


def check_bare_directory(workdir: Path) -> None:
    """Without src/ the benchmark fails and prints no result."""
    bare = workdir / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run("--workload", "ccg-10x10", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--full", action="store_true", help="full-size runs instead of toy ones")
    args = p.parse_args(argv)
    toy = not args.full
    for w in SPEC["workloads"]:
        name = w["name"]
        check_report(name, 0, _result(name, 0, toy))
        first = _result(name, 1, toy)
        check_report(name, 1, first)
        check_exact_repeat(name, first, _result(name, 1, toy))
        print(f"ok report and exact counts {name}")
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work"))
    try:
        check_corruption(workdir)
        check_bare_directory(workdir)
        print("ok bare directory")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
