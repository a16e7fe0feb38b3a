#!/usr/bin/env python3
"""Self-test of the replay benchmark, on tiny cells.

    python3 perfbench/selftest.py

Checks that
  * every workload runs untraced and traced, passes the gate, and emits
    exactly the metrics BENCHMARK.json names, each with its unit;
  * the traced pass writes a span file whose spans nest;
  * the gate trips on a truncated horizon (--max-cycles) and on a
    perturbed pinned reference;
  * in a directory holding only BENCHMARK.json and the benchmark, the
    benchmark fails without printing a result.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
failures = []


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}: {what}", flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def expected_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def spans_nest(path):
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if not {"name", "start_ns", "end_ns", "id", "parent", "workload"} <= s.keys():
            return False
        parent = by_id.get(s["parent"])
        if s["parent"] != -1 and (parent is None or s["start_ns"] < parent["start_ns"]
                                  or s["end_ns"] > parent["end_ns"]):
            return False
    return bool(spans)


def main():
    tiny = ["--size", "tiny", "--seconds", "1"]
    for workload in WORKLOADS:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            code, result = run(["--workload", workload, "--trace", trace] + tiny)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace}: runs and passes the gate")
            units = {name: m["unit"] for name, m in (result or {}).get("metrics", {}).items()}
            check(units == expected_units(kind),
                  f"{workload} trace {trace}: emits every {kind} metric with its unit")
        spans = ROOT / ".bench_out" / f"spans-{workload}-seed8-tiny-trace1.jsonl"
        check(spans.is_file() and spans_nest(spans), f"{workload}: span file nests")

    for workload in WORKLOADS:
        code, result = run(["--workload", workload, "--max-cycles", "1000"] + tiny)
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] == result["attempted"],
              f"{workload}: gate trips on a truncated horizon")
        code, result = run(["--workload", workload, "--perturb-reference"] + tiny)
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] == result["attempted"],
              f"{workload}: gate trips on a perturbed pinned reference")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench")
    code, result = run(["--workload", WORKLOADS[0]] + tiny, cwd=bare)
    check(code != 0 and result is None, "fails without a result outside a checkout")
    shutil.rmtree(bare)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
