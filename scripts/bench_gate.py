#!/usr/bin/env python3
"""The bench gates: build Release benches, run them, judge their checks.

    python3 scripts/bench_gate.py GATE [SRC] [WORK]

GATE names a row of GATES: scale, svc, plan or overhead. SRC (default .)
is the source tree to build; WORK (default GATE_gate_work) holds the
build trees and each run's records.

Every check holds a within-run number against a limit: a speedup of two
implementations compiled into one binary, a ratio of two reads, planned
against random placement in one run, or, for overhead, the instrumented
tree's wall time over the compiled-out tree's in one back-to-back pair.
So the gates hold on any machine. The one absolute number, plan's 10k-AS
wall time, has ~2000x headroom on a laptop.

A gate runs its benches `runs` times; with two trees a run is a pair
that times both trees back to back, the first tree first on even pairs
and last on odd ones, so slow host drift cancels inside the pair. Each
check then has a series, one value per run, and judge() gives it one
verdict. The last line printed is the gate's verdict, and the exit status
matches it: 0 PASS, 1 FAIL, 3 UNRESOLVED. Importing this module builds
and runs nothing.
"""

import dataclasses
import json
import operator
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt,
       "<": operator.lt}
EXIT = {"PASS": 0, "FAIL": 1, "UNRESOLVED": 3}


@dataclass(frozen=True)
class Base:
    """A limit of `share` times the committed baseline record's value."""
    share: float


@dataclass(frozen=True)
class Minus:
    """Judges the checked field minus `other`, of the same record, against
    a limit of 0."""
    other: str


@dataclass(frozen=True)
class Check:
    """`field` of `record` ("*": every record) on the `op` side of `limit`:
    a number, a Base or a Minus. `tolerance` bounds the series' spread."""
    record: str
    field: str
    op: str
    limit: object
    tolerance: float = 0.0


@dataclass(frozen=True)
class Gate:
    """Build trees (name -> extra cmake definitions), the bench targets
    each run executes with `env`, the run count, the checks, and the
    committed baseline file Base limits read, if any. With two trees a
    check's value is the first tree's over the second's."""
    trees: dict
    targets: tuple
    runs: int
    checks: tuple
    env: dict = dataclasses.field(default_factory=dict)
    baseline: str = ""


GATES = {
    "scale": Gate(
        trees={"build": ()}, targets=("bench_scale",), runs=5,
        baseline="BENCH_scale.json",
        checks=(Check("*", "speedup", ">=", Base(0.8), 0.20),)),
    "svc": Gate(
        trees={"build": ()}, targets=("bench_svc",), runs=5,
        baseline="BENCH_svc.json",
        checks=(Check("svc_codec_reparse", "speedup", ">=", Base(0.8), 0.20),
                Check("log_tail_read", "fill_ratio", "<=", 2, 0.20))),
    # Every value plan checks is seeded, so one run is the whole series.
    "plan": Gate(
        trees={"build": ()}, targets=("bench_plan",), runs=1,
        checks=tuple(Check(r, f"planned_{m}", ">", Minus(f"random_{m}"))
                     for r in ("plan_3link", "plan_sparse")
                     for m in ("sens", "spec")) +
               (Check("plan_inet10000", "wall_ms", "<", 10000),
                Check("plan_inet10000", "objective", ">",
                      Minus("random_objective")))),
    # ND_BENCH_TRACE=1 arms the span sink and the event ring, so the gate
    # prices tracing on the hot path; the OFF tree compiles both out.
    "overhead": Gate(
        trees={"on": ("-DNETD_OBS=ON",), "off": ("-DNETD_OBS=OFF",)},
        targets=("bench_svc", "bench_fig6_tomo"), runs=10,
        env={"ND_PLACEMENTS": "2", "ND_TRIALS": "8", "ND_THREADS": "2",
             "ND_BENCH_TRACE": "1"},
        checks=(Check("*", "wall_ms", "<=", 1.05, 0.05),)),
}


# --- the rule ------------------------------------------------------------


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def judge(values, op, limit, tolerance):
    """The verdict on one series, ok, FAIL or UNRESOLVED; a None series
    (some run lacks it) fails. A series whose spread is inside the
    tolerance is judged by its median; a wider one is ok when every value
    is, FAIL when none is, and unresolved otherwise."""
    if not values:
        return "FAIL"
    good = OPS[op]
    med, _, _, width = spread(values)
    if width <= tolerance:
        return "ok" if good(med, limit) else "FAIL"
    passed = sum(1 for v in values if good(v, limit))
    if passed == len(values):
        return "ok"
    return "FAIL" if passed == 0 else "UNRESOLVED"


def verdict(verdicts):
    """The gate's verdict over its checks' verdicts."""
    if not verdicts or "FAIL" in verdicts:
        return "FAIL"
    return "UNRESOLVED" if "UNRESOLVED" in verdicts else "PASS"


# --- from records to series ----------------------------------------------


def value(rec, check):
    """The number `check` judges in one record; None if a field is absent."""
    v = rec.get(check.field)
    if isinstance(check.limit, Minus):
        other = rec.get(check.limit.other)
        return None if v is None or other is None else v - other
    return v


def series(gate, check, record, runs):
    """One value per run, or None when any run lacks the record or field
    (or a pair's second tree reads 0). `runs` holds one {tree: {record:
    fields}} per run."""
    out = []
    for run in runs:
        recs = [run[tree].get(record) for tree in gate.trees]
        vals = [None if r is None else value(r, check) for r in recs]
        if None in vals or (len(vals) == 2 and not vals[1]):
            return None
        out.append(vals[0] / vals[1] if len(vals) == 2 else vals[0])
    return out


def limit_of(check, record, baseline):
    """(limit, its description), or (None, why) when the baseline lacks it."""
    if isinstance(check.limit, Base):
        base = baseline.get(record, {}).get(check.field)
        if base is None:
            return None, "not in the committed baseline"
        return (check.limit.share * base,
                f"{check.limit.share:g} x {base:.4g} committed")
    if isinstance(check.limit, Minus):
        return 0, ""
    return check.limit, ""


@dataclass(frozen=True)
class Row:
    """One judged check: what it reads, its limit, its series, its verdict."""
    label: str
    limit_text: str
    values: list
    tolerance: float
    verdict: str


def evaluate(gate, runs, baseline):
    """Judges every check of `gate` over `runs`; one Row per record."""
    names = dict.fromkeys(baseline)  # an ordered set: first sight first
    for run in runs:
        for tree in gate.trees:
            names.update(dict.fromkeys(run[tree]))
    rows = []
    for check in gate.checks:
        for record in names if check.record == "*" else [check.record]:
            label = f"{record} {check.field}"
            if isinstance(check.limit, Minus):
                label += f" - {check.limit.other}"
            elif len(gate.trees) == 2:
                label += " {}/{}".format(*gate.trees)
            values = series(gate, check, record, runs)
            limit, why = limit_of(check, record, baseline)
            if limit is None:
                text, v = why, "FAIL"
            else:
                text = f"{check.op} {limit:.6g}" + (f" ({why})" if why else "")
                v = judge(values, check.op, limit, check.tolerance)
            rows.append(Row(label, text, values, check.tolerance, v))
    return rows


def report(rows):
    """Prints one line per check and the verdict line; returns the verdict."""
    width = max((len(r.label) for r in rows), default=0)
    limit_width = max((len(r.limit_text) for r in rows), default=0)
    for r in rows:
        if r.values:
            med, q1, q3, sp = spread(r.values)
            stats = (f"median {med:.4g} [{q1:.4g}, {q3:.4g}]  "
                     f"spread {sp:.3f} (tolerance {r.tolerance:g})")
        else:
            stats = "missing from a run"
        print(f"{r.label:<{width}}  {r.limit_text:<{limit_width}}  {stats}  "
              f"{r.verdict}")
        if r.verdict != "ok" and r.values:
            print("    series: " + " ".join(f"{x:.4g}" for x in r.values))
    result = verdict([r.verdict for r in rows])
    print(result, flush=True)
    return result


# --- building and running ------------------------------------------------


def load_records(path):
    """{bench name: record} of a JSON-lines file."""
    with open(path) as f:
        recs = [json.loads(line) for line in f if line.strip()]
    return {r["bench"]: r for r in recs if "bench" in r}


def sh(cmd):
    """Runs `cmd` quietly; on failure prints its output and raises."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"{cmd[0]} exited with {proc.returncode}")


def build(gate, src, work):
    jobs = str(min(4, os.cpu_count() or 1))
    for tree, defs in gate.trees.items():
        log(f"building Release {' '.join(gate.targets)} in {work / tree}")
        cmd = ["cmake", "-S", str(src), "-B", str(work / tree),
               "-DCMAKE_BUILD_TYPE=Release", *defs]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        sh(cmd)
        sh(["cmake", "--build", str(work / tree), "-j", jobs, "--target",
            *gate.targets])


def run_benches(gate, work):
    """Runs every target on every tree, `gate.runs` times; returns the runs'
    records."""
    runs = []
    for i in range(gate.runs):
        log(f"run {i + 1}/{gate.runs}")
        trees = list(gate.trees)
        run = {}
        for tree in trees if i % 2 == 0 else trees[::-1]:
            out = work / f"{tree}-{i + 1}.jsonl"
            out.unlink(missing_ok=True)
            env = dict(os.environ, **gate.env, ND_PERF_JSON=str(out))
            with open(work / f"{tree}-{i + 1}.log", "w") as logf:
                for target in gate.targets:
                    rc = subprocess.run([str(work / tree / "bench" / target)],
                                        env=env, stdout=logf,
                                        stderr=subprocess.STDOUT).returncode
                    if rc != 0:
                        raise RuntimeError(f"{tree}/{target} exited with "
                                           f"{rc}; see {logf.name}")
            run[tree] = load_records(out)
        runs.append(run)
    return runs


def log(msg):
    print(f"bench_gate: {msg}", file=sys.stderr, flush=True)


def main(argv):
    if len(argv) not in (2, 3, 4) or argv[1] not in GATES:
        print(f"usage: {argv[0]} {{{','.join(GATES)}}} [SRC] [WORK]",
              file=sys.stderr)
        return 2
    name = argv[1]
    gate = GATES[name]
    src = Path(argv[2] if len(argv) > 2 else ".").resolve()
    work = Path(argv[3] if len(argv) > 3 else f"{name}_gate_work").resolve()
    try:
        baseline = load_records(src / gate.baseline) if gate.baseline else {}
        work.mkdir(parents=True, exist_ok=True)
        build(gate, src, work)
        runs = run_benches(gate, work)
    except (OSError, RuntimeError, ValueError) as e:
        log(str(e))
        print("FAIL")
        return EXIT["FAIL"]
    return EXIT[report(evaluate(gate, runs, baseline))]


if __name__ == "__main__":
    sys.exit(main(sys.argv))
