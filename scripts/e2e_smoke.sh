#!/bin/sh
# Short end-to-end benchmark runs, run as CI's e2e-smoke job: every
# workload of e2ebench/ for a few seconds untraced, and small_read traced
# (the in-process replay with its drift guard and layer-sum check).  Each
# run must report "correct": true with no failed operation; the timings
# are not judged here.
#
#   sh scripts/e2e_smoke.sh [SECONDS]     (default 3)
set -eu
cd "$(dirname "$0")/.."

secs=${1:-3}
out=$(mktemp)
trap 'rm -f "$out"' EXIT INT TERM

check() {
  workload=$1
  trace=$2
  python3 e2ebench/run.py --workload "$workload" --seed 1 --seconds "$secs" \
    --trace "$trace" >"$out" || {
    echo "e2e-smoke: FAIL: $workload --trace $trace exited non-zero" >&2
    exit 1
  }
  tail -n 1 "$out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
ok = r.get("correct") is True and r.get("failed") == 0
print("e2e-smoke: %s --trace %s: correct=%s attempted=%s failed=%s"
      % (sys.argv[1], sys.argv[2], r.get("correct"), r.get("attempted"), r.get("failed")))
sys.exit(0 if ok else 1)
' "$workload" "$trace" || {
    echo "e2e-smoke: FAIL: $workload --trace $trace: $(tail -n 1 "$out")" >&2
    exit 1
  }
}

for w in small_read heavy_eval write_mix; do
  check "$w" 0
done
check small_read 1
echo "e2e-smoke: ok"
