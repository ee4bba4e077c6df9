#!/bin/sh
# End-to-end smoke test for balgd, run as CI's server-smoke job: start a
# server over a persistent store, hammer it with concurrent clients,
# scrape /metrics, kill -9 it mid-load, restart, and assert that every
# acknowledged write survived WAL recovery.
set -eu
cd "$(dirname "$0")/.."

dune build bin/balgd.exe bin/balgi.exe
BALGD=_build/default/bin/balgd.exe
BALGI=_build/default/bin/balgi.exe

tmp=$(mktemp -d)
pid=
cleanup() {
  [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
  echo "smoke: FAIL: $1" >&2
  [ -f "$tmp/balgd.out" ] && sed 's/^/  balgd: /' "$tmp/balgd.out" >&2
  exit 1
}

# start the server on an ephemeral port and wait for the announce line
start_server() {
  : >"$tmp/balgd.out"
  "$BALGD" --port 0 --store "$tmp/store" >"$tmp/balgd.out" 2>&1 &
  pid=$!
  port=
  i=0
  while [ $i -lt 100 ]; do
    port=$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\)$/\1/p' "$tmp/balgd.out")
    [ -n "$port" ] && return 0
    kill -0 "$pid" 2>/dev/null || fail "balgd exited during startup"
    sleep 0.1
    i=$((i + 1))
  done
  fail "balgd never announced its port"
}

start_server
echo "smoke: balgd up on port $port"

# a seed relation, acknowledged
"$BALGI" client --port "$port" -e "def bag R : {{<U>}} = {{ <'a>, <'b>:2 }}" \
  | grep -q "ok defined R" || fail "def not acknowledged"

# 8 concurrent clients evaluating the same query must all get the
# bit-identical answer the first client got
want=$("$BALGI" client --port "$port" -e "eval R ++ R")
case "$want" in ok\ *) ;; *) fail "reference eval failed: $want" ;; esac
cpids=
for i in 1 2 3 4 5 6 7 8; do
  "$BALGI" client --port "$port" -e "eval R ++ R" >"$tmp/c$i.out" 2>&1 &
  cpids="$cpids $!"
done
for p in $cpids; do
  wait "$p" || fail "a concurrent client exited non-zero"
done
for i in 1 2 3 4 5 6 7 8; do
  [ "$(cat "$tmp/c$i.out")" = "$want" ] \
    || fail "client $i diverged: $(cat "$tmp/c$i.out") != $want"
done
echo "smoke: 8 concurrent clients agree: $want"

# the Prometheus endpoint answers on the same port
"$BALGI" client --port "$port" --http-get /metrics >"$tmp/metrics.txt" \
  || fail "GET /metrics failed"
grep -q "balg_server_sessions_total" "$tmp/metrics.txt" \
  || fail "/metrics is missing server counters"
grep -q "balg_server_wal_appends_total" "$tmp/metrics.txt" \
  || fail "/metrics is missing WAL counters"
echo "smoke: /metrics scrape ok"

# five acknowledged writes: after the kill -9 below, each MUST survive
# (the WAL is appended and flushed before the ok is sent)
for i in 1 2 3 4 5; do
  "$BALGI" client --port "$port" -e "def bag W$i : {{<U>}} = {{ <'w>:$i }}" \
    | grep -q "ok defined W$i" || fail "write W$i not acknowledged"
done

# kill -9 mid-load: a background writer is re-defining a bag when the
# server dies; its in-flight write may or may not survive, the five
# acknowledged ones must
(
  j=0
  while [ $j -lt 200 ]; do
    "$BALGI" client --port "$port" -e "def bag K : {{<U>}} = {{ <'k>:$((j + 1)) }}" \
      >/dev/null 2>&1 || exit 0
    j=$((j + 1))
  done
) &
writer=$!
sleep 0.3
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
pid=
wait "$writer" 2>/dev/null || true
echo "smoke: killed balgd mid-load"

# restart over the same store: recovery must replay the surviving WAL
# prefix through the validating loader
start_server
echo "smoke: balgd restarted on port $port"
names=$("$BALGI" client --port "$port" -e list) || fail "list after restart"
for i in 1 2 3 4 5; do
  case " $names " in
  *" W$i "* | *" W$i") ;;
  *) fail "acknowledged write W$i lost across kill -9 (have: $names)" ;;
  esac
done
got=$("$BALGI" client --port "$port" -e "eval R ++ R") \
  || fail "eval after restart"
[ "$got" = "$want" ] || fail "recovered store diverged: $got != $want"
echo "smoke: all acknowledged writes survived recovery"

# graceful shutdown on SIGTERM
kill -TERM "$pid"
i=0
while kill -0 "$pid" 2>/dev/null && [ $i -lt 50 ]; do
  sleep 0.1
  i=$((i + 1))
done
kill -0 "$pid" 2>/dev/null && fail "balgd ignored SIGTERM"
pid=

# a supervisor that stops reading stdout must not wedge or crash the
# server: with its stdout pipe closed after the announce line, balgd
# survives a SIGUSR1 status line, still exits 0 on SIGTERM within 5 s,
# and writes its trace on the way out
mkfifo "$tmp/stdout.fifo"
"$BALGD" --port 0 --trace-out "$tmp/closed.trace.json" \
  >"$tmp/stdout.fifo" 2>"$tmp/balgd.out" &
pid=$!
exec 3<"$tmp/stdout.fifo"
read -r announce <&3 || fail "no announce line on the stdout pipe"
exec 3<&-
case "$announce" in *listening*) ;; *) fail "bad announce: $announce" ;; esac
kill -USR1 "$pid"
sleep 0.3
kill -TERM "$pid"
i=0
while kill -0 "$pid" 2>/dev/null && [ $i -lt 50 ]; do
  sleep 0.1
  i=$((i + 1))
done
kill -0 "$pid" 2>/dev/null && fail "balgd with a closed stdout ignored SIGTERM"
rc=0
wait "$pid" || rc=$?
pid=
[ "$rc" -eq 0 ] || fail "balgd with a closed stdout exited $rc"
[ -s "$tmp/closed.trace.json" ] \
  || fail "balgd with a closed stdout wrote no trace"
echo "smoke: closed stdout survives SIGUSR1 and exits 0 on SIGTERM"
echo "smoke: ok"
