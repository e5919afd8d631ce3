#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny input sizes (about 15 s).

    python3 perfbench/selftest.py

For every workload it checks that a run names every metric with its unit,
traced and untraced, and that a clean run fails no op.  It then proves
that the checks can fail: a corrupted reference, or a wrong top 10 handed
to the retrieval oracle, must drive the error rate above 0.  Last, the
benchmark must refuse to run in a directory without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def corrupt(workload, observed):
    bad = json.loads(json.dumps(observed))
    if workload == "experiment":
        bad["report"]["accuracy"] += 0.01
    elif workload == "retrieval":
        bad["ranks"][0] = 11
    else:
        bad["decisions"] = ("0" if bad["decisions"][0] == "1" else "1") + bad["decisions"][1:]
    return bad


def tiny(workload, seed, trace=0, **kwargs):
    return run.run_workload(workload, seed, 0.2, trace, size_name="tiny", **kwargs)


def main():
    full = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    check(set(full) == set(run.WORKLOADS), "reference.json lacks a workload")
    for workload in run.WORKLOADS:
        # Recorded at one seed and checked at another: only the order differs.
        _, _, observed = tiny(workload, 1, reference=None)
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            result, stamps, _ = tiny(workload, 2, trace, reference=observed)
            units = {name: metric["unit"] for name, metric in result["metrics"].items()}
            check(units == table, f"{workload} trace={trace} metrics or units differ")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace} clean run failed: {stamps['problems']}")
            check(result["attempted"] >= 1, f"{workload} attempted nothing")
        _, stamps, _ = tiny(workload, 2, reference=corrupt(workload, observed))
        check(stamps["error_rate"] > 0, f"{workload}: a corrupted reference went unnoticed")
        print(f"selftest: {workload} ok")
    _, stamps, _ = tiny("retrieval", 2, reference=None, oracle_tamper=lambda top: top[::-1])
    check(stamps["error_rate"] > 0, "retrieval: a wrong oracle top 10 went unnoticed")
    print("selftest: oracle comparison ok")

    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "experiment",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and not done.stdout.strip(),
          "without the program the benchmark must fail and print no result")
    print("selftest: refuses to run without the program")
    print("selftest: all ok")


if __name__ == "__main__":
    main()
