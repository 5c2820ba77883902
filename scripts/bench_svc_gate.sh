#!/usr/bin/env bash
# Wire codec regression gate: runs bench_svc and compares the
# svc_codec_reparse record's speedup (the DOM oracle's time over the typed
# codec's, both decoding and re-encoding every line of the same recorded
# trace in one process) against the committed baseline BENCH_svc.json.
# Fails when the speedup falls by more than ND_GATE_LIMIT_PCT percent
# (default 20), and when the log_tail_read record's fill_ratio (reading
# the newest 24 KB record of a segment holding 160 records, over the same
# read with 1) exceeds 2.
#
# Both are within-run ratios, so they hold on any machine. The speedup
# compares two codecs compiled into the same binary and fed identical
# bytes; a drop means the typed codec itself got slower relative to the
# DOM it replaced. A fill_ratio above 2 means a segment-log read again
# pays for the records it skips, not only for the one it delivers.
#
# Usage: bench_svc_gate.sh [source-dir] [workdir]
set -eu

SRC=${1:-.}
WORK=${2:-bench_svc_gate_work}
LIMIT=${ND_GATE_LIMIT_PCT:-20}
GEN=${ND_GATE_GENERATOR:-Ninja}
BASELINE="$SRC/BENCH_svc.json"

[ -f "$BASELINE" ] || { echo "bench_svc_gate: missing $BASELINE"; exit 1; }

mkdir -p "$WORK"
echo "bench_svc_gate: building Release bench_svc"
cmake -B "$WORK/build" -S "$SRC" -G "$GEN" -DCMAKE_BUILD_TYPE=Release \
      >/dev/null
cmake --build "$WORK/build" --target bench_svc >/dev/null
echo "bench_svc_gate: recording, re-encoding and replaying a trace"
rm -f "$WORK/perf.jsonl"
ND_PERF_JSON="$WORK/perf.jsonl" "$WORK/build/bench/bench_svc"

awk -v limit="$LIMIT" -v max_fill=2 -v base_file="$BASELINE" '
  {
    if (match($0, /"bench":"[^"]*"/) == 0) next
    name = substr($0, RSTART + 9, RLENGTH - 10)
    key = (FILENAME == base_file) ? "base" : "new"
    if (key == "new" && match($0, /"fill_ratio":[0-9.eE+-]+/) > 0) {
      fill[name] = substr($0, RSTART + 13, RLENGTH - 13) + 0
    }
    if (match($0, /"speedup":[0-9.eE+-]+/) == 0) next
    sp = substr($0, RSTART + 10, RLENGTH - 10) + 0
    best[key, name] = sp
    names[name] = 1
  }
  END {
    fail = 0
    compared = 0
    for (name in names) {
      if (!(("base", name) in best) || !(("new", name) in best)) {
        printf "bench_svc_gate: %s missing from one side\n", name
        fail = 1
        continue
      }
      b = best["base", name]; n = best["new", name]
      pct = b > 0 ? (b - n) / b * 100 : 0
      printf "bench_svc_gate: %-20s base=%6.2fx new=%6.2fx  %+.1f%%\n", \
             name, b, n, -pct
      compared++
      if (pct > limit) {
        printf "bench_svc_gate: FAIL %s speedup fell more than %s%%\n", \
               name, limit
        fail = 1
      }
    }
    if (compared == 0) {
      print "bench_svc_gate: FAIL no bench records compared"
      fail = 1
    }
    filled = 0
    for (name in fill) {
      printf "bench_svc_gate: %-20s fill_ratio=%.2f (max %s)\n", \
             name, fill[name], max_fill
      filled++
      if (fill[name] > max_fill) {
        printf "bench_svc_gate: FAIL %s fill_ratio above %s\n", \
               name, max_fill
        fail = 1
      }
    }
    if (filled == 0) {
      print "bench_svc_gate: FAIL no fill_ratio record"
      fail = 1
    }
    exit fail
  }
' "$BASELINE" "$WORK/perf.jsonl"

echo "bench_svc_gate: PASS (limit ${LIMIT}%, fill_ratio at most 2)"
