#!/usr/bin/env bash
# Kill-resume crash drill: start a checkpointed campaign, SIGKILL it
# mid-flight, resume it to completion, and require the final CSV and
# event trace to be byte-identical to an uninterrupted reference run.
#
# Usage: kill_resume_test.sh <path-to-netdiag> [workdir]
set -u

NETDIAG=${1:?usage: kill_resume_test.sh <path-to-netdiag> [workdir]}
NETDIAG=$(realpath "$NETDIAG")  # the script cds into the workdir below
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"
cd "$WORK"

TOPO="--ases 30 --stubs 60 --tier2 8"
SCEN="$TOPO --placements 4 --trials 4 --failures 1 --seed 2026"

fail() { echo "kill_resume_test: FAIL: $*" >&2; exit 1; }

# Starts "$@" in the background and SIGKILLs it once the checkpoint shows
# progress (or after ~10s); returns once the process is gone. Killing
# after the first committed placement exercises a genuine mid-campaign
# resume; a kill before any commit degrades to a fresh start, which the
# resume path must also survive.
kill_mid_flight() {
  local ck=$1; shift
  "$@" >/dev/null 2>&1 &
  local pid=$!
  for _ in $(seq 1 100); do
    if [ -s "$ck" ] && ! kill -0 "$pid" 2>/dev/null; then
      break  # finished before we could kill it — resume is then a no-op
    fi
    if [ -s "$ck" ]; then
      kill -KILL "$pid" 2>/dev/null
      break
    fi
    sleep 0.1
  done
  kill -KILL "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null
  return 0
}

echo "== reference runs (uninterrupted) =="
$NETDIAG run $SCEN --threads 1 --csv ref.csv \
  --checkpoint ref.ck.json >/dev/null || fail "reference score run"
$NETDIAG run $SCEN --threads 1 --record ref.jsonl --threshold 2 \
  --checkpoint ref_rec.ck.json >/dev/null || fail "reference record run"
$NETDIAG run $SCEN --threads 2 --record plain.jsonl --threshold 2 \
  >/dev/null || fail "plain record run"
cmp ref.jsonl plain.jsonl || fail "plain recording differs from reference"
echo "   plain recording byte-identical to the checkpointed one"

echo "== score mode: kill mid-campaign, then resume =="
kill_mid_flight crash.ck.json \
  $NETDIAG run $SCEN --threads 2 --checkpoint crash.ck.json --csv crash.csv
$NETDIAG run $SCEN --threads 2 --checkpoint crash.ck.json --resume \
  --csv crash.csv >/dev/null || fail "score resume"
cmp ref.csv crash.csv || fail "resumed CSV differs from reference"
echo "   CSV byte-identical after SIGKILL + resume"

echo "== record mode: kill mid-campaign, corrupt the tail, resume =="
kill_mid_flight crash_rec.ck.json \
  $NETDIAG run $SCEN --threads 2 --record crash.jsonl --threshold 2 \
  --checkpoint crash_rec.ck.json
# A crash can leave a torn trailing line; make sure one is there.
printf '{"v":1,"type":"round","mesh":{"torn' >> crash.jsonl
$NETDIAG run $SCEN --threads 2 --record crash.jsonl --threshold 2 \
  --checkpoint crash_rec.ck.json --resume >/dev/null || fail "record resume"
cmp ref.jsonl crash.jsonl || fail "resumed trace differs from reference"
echo "   trace byte-identical after SIGKILL + torn tail + resume"

$NETDIAG replay crash.jsonl >/dev/null || fail "resumed trace replay"
echo "   resumed trace replays cleanly"

echo "kill_resume_test: PASS"
