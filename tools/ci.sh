#!/bin/sh
# One-command CI gate: `dune build @ci` (build + tests + verifier sweep
# with zero incidents + the fault-injection smoke matrix + the
# serial-vs-parallel-vs-warm-cache determinism check on a 2-domain
# pool), followed by the compile-service smoke — boot nascentd, drive
# it with the real client (plain compile, status, injected fault,
# deadline-exceeded), then prove the SIGTERM drain exits 0. Every
# client step runs under `timeout`, so a wedged daemon fails the gate
# instead of hanging it.
set -eu
cd "$(dirname "$0")/.."

dune build @ci

# --- compile-service smoke --------------------------------------------

SOCK="${TMPDIR:-/tmp}/nascent-ci-$$.sock"
LOG="${TMPDIR:-/tmp}/nascent-ci-$$.log"

fail() {
    echo "FAIL: $1" >&2
    [ -f "$LOG" ] && sed 's/^/  nascentd: /' "$LOG" >&2
    exit 1
}

./_build/default/bin/nascentd.exe --socket "$SOCK" --jobs 2 >"$LOG" 2>&1 &
DAEMON=$!
trap 'kill "$DAEMON" 2>/dev/null || true; rm -f "$SOCK" "$LOG"' EXIT INT TERM

client() {
    timeout 30 ./_build/default/bin/nascentc.exe client --connect "$SOCK" "$@"
}

i=0
while [ ! -S "$SOCK" ]; do
    kill -0 "$DAEMON" 2>/dev/null || fail "nascentd died on startup"
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "nascentd never bound $SOCK"
    sleep 0.1
done

# plain compile answers ok (exit 0)
client vortex >/dev/null || fail "service compile exited $?, want 0"

# tiered compilation: a cold miss answers instantly from the NI floor...
OUT=$(client qcd -s LLS) || fail "cold tier compile exited $?, want 0"
echo "$OUT" | grep -q '"tier":"floor"' \
    || fail "cold miss did not serve the floor tier: $OUT"
echo "$OUT" | grep -q '"scheme_used":"NI"' \
    || fail "floor response not compiled at NI: $OUT"
# ...and the background upgrade hot-swaps in the optimized artifact
i=0
until client qcd -s LLS | grep -q '"tier":"optimized"'; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "background upgrade to tier:optimized never landed"
    sleep 0.1
done

# an oracle compile (pinned synchronous) carries its validation certificate
OUT=$(client trfd --oracle --tier sync) || fail "oracle compile exited $?, want 0"
echo "$OUT" | grep -q '"validated":true' \
    || fail "oracle compile response lacks \"validated\":true: $OUT"

# status answers inline (exit 0)
client --status >/dev/null || fail "service status exited $?, want 0"

# an injected fault compiles degraded, with incident records (exit 4);
# --tier sync pins the faulted scheme on the live request — in auto
# mode the client would get the clean NI floor while the fault is
# contained in the background upgrade
rc=0; client vortex -s CS --inject-fault drop-check:7 --tier sync >/dev/null || rc=$?
[ "$rc" -eq 4 ] || fail "injected-fault compile exited $rc, want 4"

# a hung request is cut off by its deadline (exit 6), worker freed
rc=0; client --burn --deadline-ms 300 >/dev/null || rc=$?
[ "$rc" -eq 6 ] || fail "deadline-exceeded request exited $rc, want 6"

# ...freed enough to keep serving
client vortex >/dev/null || fail "compile after deadline exited $?, want 0"

# SIGTERM drains gracefully: prompt exit, code 0
kill -TERM "$DAEMON"
i=0
while kill -0 "$DAEMON" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "nascentd did not drain within 10s of SIGTERM"
    sleep 0.1
done
rc=0; wait "$DAEMON" || rc=$?
[ "$rc" -eq 0 ] || fail "nascentd exited $rc after SIGTERM drain, want 0"

trap - EXIT INT TERM
rm -f "$SOCK" "$LOG"
echo "service smoke OK: compile, tier floor->optimized, status, fault->4, deadline->6, SIGTERM drain->0"

# --- chaos smoke: supervision + journal replay ------------------------
# Boot a supervised, journaled daemon; prove a second daemon on the
# same journal is refused; kill -9 the serving child mid-request; the
# supervisor restarts it, the journal replays the orphaned request
# exactly once, and clients ride through the restart on retries.

CSOCK="${TMPDIR:-/tmp}/nascent-chaos-$$.sock"
CLOG="${TMPDIR:-/tmp}/nascent-chaos-$$.log"
CJDIR="${TMPDIR:-/tmp}/nascent-chaos-$$.journal"
BURNOUT="${TMPDIR:-/tmp}/nascent-chaos-$$.burn"

cfail() {
    echo "FAIL: $1" >&2
    [ -f "$CLOG" ] && sed 's/^/  nascentd: /' "$CLOG" >&2
    exit 1
}

./_build/default/bin/nascentd.exe --socket "$CSOCK" --jobs 2 \
    --supervise --journal-dir "$CJDIR" >"$CLOG" 2>&1 &
SUPER=$!
trap 'kill "$SUPER" 2>/dev/null || true; rm -rf "$CSOCK" "$CLOG" "$CJDIR" "$BURNOUT"' EXIT INT TERM

cclient() {
    timeout 60 ./_build/default/bin/nascentc.exe client --connect "$CSOCK" "$@"
}

i=0
while [ ! -S "$CSOCK" ]; do
    kill -0 "$SUPER" 2>/dev/null || cfail "supervised nascentd died on startup"
    i=$((i + 1))
    [ "$i" -le 100 ] || cfail "supervised nascentd never bound $CSOCK"
    sleep 0.1
done

# a second daemon on the same journal directory is refused promptly
rc=0
timeout 10 ./_build/default/bin/nascentd.exe \
    --socket "$CSOCK.dup" --journal-dir "$CJDIR" >/dev/null 2>&1 || rc=$?
[ "$rc" -ne 0 ] || cfail "second daemon on a locked journal dir exited 0, want nonzero"

# park a long request so the kill orphans an admitted journal entry;
# its client rides the restart on retries and still ends at its own
# deadline (exit 6), not at a connection error
( rc=0; cclient --burn --deadline-ms 4000 --retries 10 --max-wait-ms 40000 \
      >/dev/null 2>&1 || rc=$?; echo "$rc" >"$BURNOUT" ) &
BURNER=$!
sleep 0.5

# kill -9 the serving child (its pid is in the supervisor's log)
CHILD=$(awk '/serving pid/ { pid = $(NF-1) } END { print pid }' "$CLOG")
case "$CHILD" in *[!0-9]*|"") cfail "could not parse serving pid from log" ;; esac
kill -9 "$CHILD" 2>/dev/null || cfail "serving child $CHILD already gone"

# clients ride through the restart: retries + total-elapsed budget
for bench in vortex trfd qcd mdg simple; do
    cclient "$bench" --retries 12 --max-wait-ms 40000 >/dev/null \
        || cfail "compile of $bench across restart exited $?, want 0"
done

# the parked burn client finished with its own deadline, not a transport error
wait "$BURNER" 2>/dev/null || true
[ -f "$BURNOUT" ] || cfail "burn client never finished"
[ "$(cat "$BURNOUT")" = "6" ] || cfail "burn client across restart exited $(cat "$BURNOUT"), want 6"

# status shows exactly one restart and the replayed orphan
STATUS=$(cclient --status) || cfail "status after restart exited $?"
echo "$STATUS" | grep -q '"restarts":1' \
    || cfail "status lacks \"restarts\":1: $STATUS"
echo "$STATUS" | grep -Eq '"replayed":[1-9]' \
    || cfail "status lacks a nonzero \"replayed\": $STATUS"
echo "$STATUS" | grep -q '"journal_pending":0' \
    || cfail "journal not drained after replay: $STATUS"

# --- kill -9 mid-upgrade: the journaled upgrade survives the restart --
# Trip the CS breaker (3 synchronous faulted compiles), then request a
# clean tiered CS compile: the client gets the floor at once, while the
# background upgrade is deferred by the open breaker — a deterministic
# window in which its journal entry is pending. kill -9 in that window;
# the restarted child replays the upgrade onto the background lane and,
# once the restored breaker's cooldown passes, completes it.
for n in 1 2 3; do
    rc=0; cclient vortex -s CS --inject-fault drop-check:7 --tier sync \
        --retries 12 --max-wait-ms 40000 >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 4 ] || cfail "breaker-trip compile $n exited $rc, want 4"
done
OUT=$(cclient qcd -s CS --retries 12 --max-wait-ms 40000) || true
echo "$OUT" | grep -q '"tier":"floor"' \
    || cfail "tiered compile under an open breaker did not serve the floor: $OUT"
sleep 0.3
CHILD=$(awk '/serving pid/ { pid = $(NF-1) } END { print pid }' "$CLOG")
case "$CHILD" in *[!0-9]*|"") cfail "could not parse serving pid for mid-upgrade kill" ;; esac
kill -9 "$CHILD" 2>/dev/null || cfail "serving child $CHILD already gone before mid-upgrade kill"
i=0
until OUT=$(cclient qcd -s CS --retries 12 --max-wait-ms 40000 2>/dev/null) \
    && echo "$OUT" | grep -q '"tier":"optimized"'; do
    i=$((i + 1))
    [ "$i" -le 200 ] || cfail "recovered upgrade never reached tier:optimized: $OUT"
    sleep 0.1
done
STATUS=$(cclient --status --retries 12 --max-wait-ms 40000) \
    || cfail "status after mid-upgrade restart exited $?"
echo "$STATUS" | grep -q '"restarts":2' \
    || cfail "status lacks \"restarts\":2 after the mid-upgrade kill: $STATUS"
echo "$STATUS" | grep -Eq '"done":[1-9]' \
    || cfail "no completed upgrade recorded after the restart: $STATUS"
# the replayed entry and the live resubmission dedup to one swap; the
# loser resolves as a noop on its next backoff tick — poll for the drain
i=0
until cclient --status --retries 12 --max-wait-ms 40000 \
    | grep -q '"journal_pending":0'; do
    i=$((i + 1))
    [ "$i" -le 100 ] || cfail "upgrade journal entry not drained after recovery"
    sleep 0.1
done

# SIGTERM on the supervisor passes through: child drains, both exit 0
kill -TERM "$SUPER"
i=0
while kill -0 "$SUPER" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || cfail "supervisor did not drain within 10s of SIGTERM"
    sleep 0.1
done
rc=0; wait "$SUPER" || rc=$?
[ "$rc" -eq 0 ] || cfail "supervisor exited $rc after SIGTERM drain, want 0"

trap - EXIT INT TERM
rm -rf "$CSOCK" "$CLOG" "$CJDIR" "$BURNOUT"
echo "chaos smoke OK: double-daemon refused, kill -9 -> restart, journal replay, kill -9 mid-upgrade -> upgrade completes, clients ride through, SIGTERM drain->0"

# --- shard smoke: framed TCP, router, chaos proxy, kill -9 a shard ----
# Three shards behind a consistent-hash router on a framed TCP port,
# with a torn-frame chaos proxy in front. A client batch runs through
# the proxy while one (supervised) shard is kill -9'd mid-burst: every
# request must still exit 0 — the dead shard costs failovers and
# retries, never a client-visible error — and the restarted shard must
# rejoin the ring. A second torn-frame proxy on a Unix socket proves
# that transport catches torn bytes too. Finally, a quick open-loop
# load run must emit a well-formed BENCH_load.json with a zero-error
# chaos rung.

ROOT=$(pwd)
SBASE="${TMPDIR:-/tmp}/nascent-shard-$$"
S0="$SBASE-s0.sock"; S1="$SBASE-s1.sock"; S2="$SBASE-s2.sock"
RSOCK="$SBASE-router.sock"
USOCK="$SBASE-uproxy.sock"
S1LOG="$SBASE-s1.log"; RLOG="$SBASE-router.log"; PLOG="$SBASE-proxy.log"
UPLOG="$SBASE-uproxy.log"
BOUT="$SBASE-batch.out"

sfail() {
    echo "FAIL: $1" >&2
    for f in "$S1LOG" "$RLOG" "$PLOG" "$UPLOG"; do
        [ -f "$f" ] && sed "s|^|  $(basename "$f"): |" "$f" >&2
    done
    exit 1
}

./_build/default/bin/nascentd.exe --socket "$S0" -j 1 --shard-name s0 \
    >/dev/null 2>&1 &
SH0=$!
./_build/default/bin/nascentd.exe --socket "$S1" -j 1 --shard-name s1 \
    --supervise >"$S1LOG" 2>&1 &
SH1=$!
./_build/default/bin/nascentd.exe --socket "$S2" -j 1 --shard-name s2 \
    >/dev/null 2>&1 &
SH2=$!
trap 'kill "$SH0" "$SH1" "$SH2" "$ROUTER" "$PROXY" "$UPROXY" 2>/dev/null || true; rm -f "$SBASE"-*' EXIT INT TERM
ROUTER=""; PROXY=""; UPROXY=""

for s in "$S0" "$S1" "$S2"; do
    i=0
    while [ ! -S "$s" ]; do
        i=$((i + 1)); [ "$i" -le 100 ] || sfail "shard never bound $s"
        sleep 0.1
    done
done

./_build/default/bin/nascentd.exe --socket "$RSOCK" --tcp 127.0.0.1:0 \
    --router --shard s0="$S0" --shard s1="$S1" --shard s2="$S2" \
    --probe-interval-s 0.2 >"$RLOG" 2>&1 &
ROUTER=$!
i=0
while [ ! -S "$RSOCK" ]; do
    kill -0 "$ROUTER" 2>/dev/null || sfail "router died on startup"
    i=$((i + 1)); [ "$i" -le 100 ] || sfail "router never bound $RSOCK"
    sleep 0.1
done

rstatus() {
    timeout 30 ./_build/default/bin/nascentc.exe client --connect "$RSOCK" --status
}

RPORT=$(rstatus | grep -o '"tcp_port":[0-9]*' | cut -d: -f2)
case "$RPORT" in *[!0-9]*|"") sfail "router status reported no tcp_port" ;; esac

# the chaos proxy tears one framed connection in three
CPORT=$((20000 + $$ % 20000))
./_build/default/bin/nascentd.exe --chaos torn-frame:1 \
    --tcp "127.0.0.1:$CPORT" --upstream "127.0.0.1:$RPORT" >"$PLOG" 2>&1 &
PROXY=$!
sleep 0.3
kill -0 "$PROXY" 2>/dev/null || sfail "chaos proxy died on startup"

pclient() {
    timeout 60 ./_build/default/bin/nascentc.exe client \
        --connect "127.0.0.1:$CPORT" --retries 12 --max-wait-ms 40000 \
        --recv-timeout-ms 5000 "$@"
}

# warm the path through proxy -> router -> shards
pclient vortex >/dev/null || sfail "compile through chaos proxy exited $?, want 0"

# full batch in the background; kill -9 the supervised shard mid-burst
( rc=0
  for bench in vortex arc2d bdna dyfesm mdg qcd spec77 trfd linpackd simple; do
      pclient "$bench" >/dev/null 2>&1 || { rc=$?; break; }
  done
  echo "$rc" >"$BOUT" ) &
BATCH=$!
sleep 0.4
CHILD=$(awk '/serving pid/ { pid = $(NF-1) } END { print pid }' "$S1LOG")
case "$CHILD" in *[!0-9]*|"") sfail "could not parse s1 serving pid" ;; esac
kill -9 "$CHILD" 2>/dev/null || sfail "s1 serving child $CHILD already gone"
wait "$BATCH" 2>/dev/null || true
[ -f "$BOUT" ] || sfail "client batch never finished"
[ "$(cat "$BOUT")" = "0" ] \
    || sfail "client batch across shard kill exited $(cat "$BOUT"), want 0"

# the supervisor restarted s1 and it rejoined the ring
S1STATUS=$(timeout 30 ./_build/default/bin/nascentc.exe client \
    --connect "$S1" --status --retries 12 --max-wait-ms 40000) \
    || sfail "s1 status after restart exited $?"
echo "$S1STATUS" | grep -q '"restarts":1' \
    || sfail "s1 status lacks \"restarts\":1: $S1STATUS"
i=0
until rstatus | grep -Eq '"name":"s1"[^}]*"state":"closed"'; do
    i=$((i + 1)); [ "$i" -le 100 ] || sfail "s1 never re-admitted to the ring"
    sleep 0.1
done

# the same fault class on a Unix socket: every connection there opens
# with the NF1 hello too, so a torn request fails its frame CRC at the
# router (frame_errors rises) and the client rides it out on a retry
ferrs() { rstatus | grep -o '"frame_errors":[0-9]*' | cut -d: -f2; }
FERR0=$(ferrs)
./_build/default/bin/nascentd.exe --chaos torn-frame:1 \
    --socket "$USOCK" --upstream "$RSOCK" >"$UPLOG" 2>&1 &
UPROXY=$!
i=0
while [ ! -S "$USOCK" ]; do
    kill -0 "$UPROXY" 2>/dev/null || sfail "unix-socket chaos proxy died on startup"
    i=$((i + 1)); [ "$i" -le 100 ] || sfail "unix-socket chaos proxy never bound $USOCK"
    sleep 0.1
done
for bench in vortex trfd qcd; do
    timeout 60 ./_build/default/bin/nascentc.exe client --connect "$USOCK" \
        --retries 12 --max-wait-ms 40000 --recv-timeout-ms 5000 "$bench" >/dev/null \
        || sfail "compile of $bench through the unix-socket chaos proxy exited $?, want 0"
done
[ "$(ferrs)" -gt "$FERR0" ] \
    || sfail "no torn frame reached the router through the unix-socket proxy"

# drain everything: proxies, router and shards all exit 0 on SIGTERM
for p in "$UPROXY" "$PROXY" "$ROUTER" "$SH0" "$SH1" "$SH2"; do
    kill -TERM "$p" 2>/dev/null || sfail "process $p already dead at drain"
done
for p in "$UPROXY" "$PROXY" "$ROUTER" "$SH0" "$SH1" "$SH2"; do
    i=0
    while kill -0 "$p" 2>/dev/null; do
        i=$((i + 1)); [ "$i" -le 100 ] || sfail "pid $p did not drain in 10s"
        sleep 0.1
    done
    rc=0; wait "$p" || rc=$?
    [ "$rc" -eq 0 ] || sfail "pid $p exited $rc after SIGTERM, want 0"
done

trap - EXIT INT TERM
rm -f "$SBASE"-*
echo "shard smoke OK: chaos proxy batch->0 errors, kill -9 shard mid-burst ridden out, supervised shard rejoined, unix-socket torn-frame batch->0 errors, drains->0"

# --- quick open-loop load run -----------------------------------------
# A shrunk ladder (NASCENT_LOAD_QUICK=1) in a scratch directory, so the
# committed full-ladder BENCH_load.json is not clobbered. The bench
# itself exits nonzero if the chaos rung sees any client error.

LTMP=$(mktemp -d "${TMPDIR:-/tmp}/nascent-load-XXXXXX")
trap 'rm -rf "$LTMP"' EXIT INT TERM
( cd "$LTMP" && NASCENT_LOAD_QUICK=1 timeout 300 \
      "$ROOT/_build/default/bench/main.exe" load >load.log 2>&1 ) \
    || { sed 's/^/  bench load: /' "$LTMP/load.log" >&2
         echo "FAIL: quick bench load exited nonzero" >&2; exit 1; }
for key in '"one_shard"' '"three_shards"' '"chaos"' '"max_sustained_rps"'; do
    grep -q "$key" "$LTMP/BENCH_load.json" \
        || { echo "FAIL: BENCH_load.json lacks $key" >&2; exit 1; }
done
trap - EXIT INT TERM
rm -rf "$LTMP"
echo "load smoke OK: quick ladder + zero-error chaos rung, BENCH_load.json well-formed"
