#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (bench_e2e).

One run:

    python3 perfbench/run.py --workload replay_wire --seed 9100 \\
        --seconds 30 --trace 0

builds bench_e2e in .bench_build (Release, only the first time does real
work), runs one workload and prints the binary's output. The last stdout
line is the result object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
The metric names are checked against BENCHMARK.json. The exit status is 0
only when the run completed, its outputs were correct and no op failed.

A series of runs (each workload --runs times in alternating order, then
one traced run each), and a comparison of two series (see BENCHMARK.md):

    python3 perfbench/run.py --suite [--runs 5] [--vary-seeds] [--out F]
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
# The workloads' default seeds; --vary-seeds counts up from them.
DEFAULT_SEEDS = {"replay_wire": 9100, "fleet_ingest": 1, "diagnose_1k": 42}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# --compare lets setup_s get worse by its bound or by this much, whichever
# is larger: a few milliseconds more on a set-up of a few milliseconds is
# not a regression.
SETUP_FLOOR_S = 0.25


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then brings bench_e2e up to date. Returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no src/ next to perfbench/: nothing to build")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "bench_e2e", "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD_DIR / "bench_e2e"


def check_result(line, trace, spec):
    """Parses the result line and checks it against BENCHMARK.json."""
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(got) != sorted(names):
        missing = sorted(set(names) - set(got))
        extra = sorted(set(got) - set(names))
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            raise ValueError(f"{m['name']}: unit {got[m['name']]['unit']}")
        if not trace and not got[m["name"]]["value"] > 0:
            raise ValueError(f"{m['name']} is not positive")
    if result["attempted"] < 1:
        raise ValueError("no op attempted")
    return result


def run_once(binary, workload, seed, seconds, trace, spec, echo=True):
    """One bench_e2e run, as a results-file record."""
    workdir = binary.parent / "work"
    trace_out = binary.parent / f"trace-{workload}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--workdir", str(workdir)]
    if trace:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall = time.monotonic() - t0
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench_e2e exited with {proc.returncode}")
    rec = {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
           "result": check_result(lines[-1], trace, spec)}
    if trace:
        with open(str(trace_out) + ".ledger.json") as f:
            rec["ledger"] = json.load(f)
    return rec


def single(args, spec):
    try:
        binary = Path(args.binary) if args.binary else build()
        result = run_once(binary, args.workload, args.seed, args.seconds,
                          args.trace, spec)["result"]
    except (RuntimeError, ValueError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log(f"run.py: {e}")
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and result["failed"] == 0 else 1


# --- series of runs ------------------------------------------------------


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def suite(args, spec):
    binary = Path(args.binary) if args.binary else build()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    out = Path(args.out or
               BUILD_DIR / time.strftime("results-%Y%m%d-%H%M%S.jsonl"))
    plan = []
    for i in range(args.runs):
        # Alternate the order so no workload always runs first.
        for w in workloads if i % 2 == 0 else workloads[::-1]:
            seed = DEFAULT_SEEDS[w] + (i if args.vary_seeds else 0)
            plan.append((f"{i + 1}/{args.runs}", w, seed, 0))
    for w in workloads:
        plan.append(("traced", w, DEFAULT_SEEDS[w], 1))
    records = []
    with open(out, "a") as f:
        for label, w, seed, trace in plan:
            log(f"[{label}] {w} seed {seed}{' traced' if trace else ''}")
            rec = run_once(binary, w, seed, seconds, trace, spec, echo=False)
            records.append(rec)
            f.write(json.dumps(rec) + "\n")
            f.flush()
    log(f"results appended to {out}")
    report(records, spec)
    bad = [r for r in records
           if not r["result"]["correct"] or r["result"]["failed"]]
    return 1 if bad else 0


def report(records, spec):
    print("\nEnd-to-end metrics: median [q1, q3], spread = (q3 - q1) / median")
    print(f"  {'workload':13} {'metric':13} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6} unit")
    plain = [r for r in records if r["trace"] == 0]
    medians = {}
    for w in dict.fromkeys(r["workload"] for r in plain):
        runs = [r["result"] for r in plain if r["workload"] == w]
        ok = all(r["correct"] and r["failed"] == 0 for r in runs)
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, s = spread(vals)
            medians[(w, m["name"])] = med
            print(f"  {w:13} {m['name']:13} {med:12.4f} {q1:12.4f} "
                  f"{q3:12.4f} {s:7.3f} {m['bound']:6.2f} {m['unit']}")
        print(f"  {w:13} {len(runs)} runs, ops_failed "
              f"{sum(r['failed'] for r in runs)}, correct: "
              f"{'yes' if ok else 'NO'}")
    traced = [r for r in records if r["trace"] == 1]
    if traced:
        print("\nTraced runs: the op-path ledger rows add up to the traced "
              "pass time (us);\nplain passes of the same run give the "
              "tracing overhead")
    for r in traced:
        w = r["workload"]
        m = r["result"]["metrics"]
        rows = m["trace.pass_us"]["value"]
        plain = m["trace.plain_pass_us"]["value"]
        p50 = medians.get((w, "op_p50_ms"), 0.0) * 1000
        print(f"  {w:13} rows {rows:10.1f}, plain pass {plain:10.1f} "
              f"({(rows / plain - 1) * 100:+.1f}%); untraced op p50 "
              f"{p50:10.1f}")
        op = r["ledger"].get("op", {})
        for row in sorted(op.get("rows", []),
                          key=lambda x: -x["self_us_per_pass"])[:8]:
            print(f"      {row['row']:18} {row['self_us_per_pass']:10.1f} us"
                  f" {row['share'] * 100:6.1f}%")


def compare(args, spec):
    """Applies the bound rule to a parent series A and a change series B."""
    def load(path):
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]
    a, b = load(args.compare[0]), load(args.compare[1])
    regressions = 0
    print(f"  {'workload':13} {'metric':13} {'parent':>12} {'change':>12} "
          f"{'worse':>7} {'bound':>6} verdict")
    for w in dict.fromkeys(r["workload"] for r in a if r["trace"] == 0):
        ra = [r["result"] for r in a if r["workload"] == w and r["trace"] == 0]
        rb = [r["result"] for r in b if r["workload"] == w and r["trace"] == 0]
        if not rb:
            continue
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in ra]
            vb = [r["metrics"][m["name"]]["value"] for r in rb]
            ma, _, _, sa = spread(va)
            mb, _, _, sb = spread(vb)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma
            bound = m["bound"]
            if m["name"] == "setup_s":
                bound = max(bound, SETUP_FLOOR_S / ma)
            all_better = all(sign * (y - x) < 0 for x in va for y in vb)
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif max(sa, sb) > bound and not all_better:
                verdict = "unresolved (spread wider than the bound)"
            elif worse > max(sa, sb):
                # The bound is one number for every workload; a steadier
                # workload shows a smaller loss than it as more than noise.
                verdict = "ok, but worse by more than either side's spread"
            else:
                verdict = "ok"
            print(f"  {w:13} {m['name']:13} {ma:12.4f} {mb:12.4f} "
                  f"{worse:+7.3f} {bound:6.2f} {verdict}")
    return 1 if regressions else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--binary", help="use this bench_e2e instead of building")
    p.add_argument("--suite", action="store_true",
                   help="run every workload --runs times, alternating order")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--vary-seeds", action="store_true",
                   help="give every suite run another seed")
    p.add_argument("--out", help="suite results file (JSON lines)")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = p.parse_args()
    try:
        spec = load_spec()
    except OSError as e:
        log(f"run.py: {e}")
        return 2
    if args.compare:
        return compare(args, spec)
    if args.suite:
        return suite(args, spec)
    if not args.workload:
        p.error("--workload is required")
    if args.seed is None:
        args.seed = DEFAULT_SEEDS.get(args.workload, 1)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
