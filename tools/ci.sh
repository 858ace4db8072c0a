#!/bin/sh
# One-command CI gate: `dune build @ci` (build + tests + verifier sweep
# with zero incidents + the fault-injection smoke matrix + the
# serial-vs-parallel determinism check on a 2-domain pool), followed by the compile-service smoke — boot nascentd, drive
# it with the real client (plain compile, status, injected fault,
# deadline-exceeded), then prove the SIGTERM drain exits 0. Every
# client step runs under `timeout`, so a wedged daemon fails the gate
# instead of hanging it.
set -eu
cd "$(dirname "$0")/.."

dune build @ci

# --- serving-stack size bar -------------------------------------------
# ROADMAP item 5's bar on the serving stack, counted as
# `wc -l lib/support/*.ml lib/support/*.mli lib/harness/service.ml bin/*.ml`.

STACK=$(cat lib/support/*.ml lib/support/*.mli lib/harness/service.ml bin/*.ml | wc -l)
[ "$STACK" -le 5700 ] \
    || { echo "FAIL: the serving stack is $STACK lines, over the 5,700-line bar" >&2; exit 1; }
echo "serving stack OK: $STACK lines (bar 5,700)"

# --- optimizer-core size bar ------------------------------------------
# ROADMAP item 10's bar on the optimizer core (lowered when the check
# implication graph went, when one check table per compile replaced
# the per-pass universes, when the certificate took its inputs as
# arguments and lost its copy of the walk, and again when the passes
# shared one counts record and the natural loop was computed once),
# counted as
# `cat lib/checks/*.ml* lib/ir/*.ml* lib/analysis/*.ml* lib/core/*.ml* | wc -l`.
# lib/checks is counted too, so code moved between the check table and
# the passes cannot lower the count. A new data-flow problem arrives as
# an instance of the fixpoint engine (lib/ir/fixpoint.ml), not as
# another hand-written loop.

CORE=$(cat lib/checks/*.ml* lib/ir/*.ml* lib/analysis/*.ml* lib/core/*.ml* | wc -l)
[ "$CORE" -le 8318 ] \
    || { echo "FAIL: the optimizer core is $CORE lines, over the 8,318-line bar" >&2; exit 1; }
echo "optimizer core OK: $CORE lines (bar 8,318)"

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

# an oracle compile carries its validation certificate
OUT=$(client trfd --oracle) || fail "oracle compile exited $?, want 0"
echo "$OUT" | grep -q '"validated":true' \
    || fail "oracle compile response lacks \"validated\":true: $OUT"

# status answers inline (exit 0)
client --status >/dev/null || fail "service status exited $?, want 0"

# an injected fault compiles degraded, with incident records (exit 4)
rc=0; client vortex -s CS --inject-fault drop-check:7 >/dev/null || rc=$?
[ "$rc" -eq 4 ] || fail "injected-fault compile exited $rc, want 4"

# a hung request is cut off by its deadline (exit 6), worker freed
rc=0; client --burn --deadline-ms 300 >/dev/null || rc=$?
[ "$rc" -eq 6 ] || fail "deadline-exceeded request exited $rc, want 6"

# ...freed enough to keep serving
client vortex >/dev/null || fail "compile after deadline exited $?, want 0"

# the bounded memo holds one result per miss (far below its bound)
STATUS=$(client --status) || fail "status after compiles exited $?"
ENTRIES=$(echo "$STATUS" | grep -o '"entries":[0-9]*' | cut -d: -f2)
MISSES=$(echo "$STATUS" | grep -o '"misses":[0-9]*' | cut -d: -f2)
case "$ENTRIES" in *[!0-9]*|"") fail "status reports no cache entries: $STATUS" ;; esac
[ "$ENTRIES" -eq "$MISSES" ] && [ "$MISSES" -gt 0 ] \
    || fail "cache holds $ENTRIES entries after $MISSES misses, want equal: $STATUS"

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
echo "service smoke OK: compile, oracle certificate, status, fault->4, deadline->6, cache entries = misses, SIGTERM drain->0"

# --- fixed serving bounds ---------------------------------------------
# Queue depth, deadline, fuel, breaker, I/O deadline and probe cadence
# are constants, the idle reaper and both binaries' --trace are gone,
# and so are the client's jitter seed, prewarm and response file: each
# old flag is an unknown option (cmdliner's usage error), and a daemon
# that refuses one binds nothing.

XSOCK="${TMPDIR:-/tmp}/nascent-flags-$$.sock"
for flag in --queue-depth --deadline-ms --request-fuel --breaker-threshold \
    --breaker-cooldown-ms --io-deadline-s --probe-interval-s --idle-timeout-s; do
    rc=0
    OUT=$(timeout 5 ./_build/default/bin/nascentd.exe "$flag" 4 --socket "$XSOCK" 2>&1) \
        || rc=$?
    if ! echo "$OUT" | grep -q "unknown option '$flag'" || [ -e "$XSOCK" ]; then
        rm -f "$XSOCK"
        echo "FAIL: nascentd $flag 4 was not refused as an unknown option (exit $rc): $OUT" >&2
        exit 1
    fi
done
# --trace takes no value
rc=0
OUT=$(timeout 5 ./_build/default/bin/nascentd.exe --trace --socket "$XSOCK" 2>&1) || rc=$?
if ! echo "$OUT" | grep -q "unknown option '--trace'" || [ -e "$XSOCK" ]; then
    rm -f "$XSOCK"
    echo "FAIL: nascentd --trace was not refused as an unknown option (exit $rc): $OUT" >&2
    exit 1
fi
# the optimizer reports through --stats-json and dump's per-pass lines
rc=0
OUT=$(timeout 5 ./_build/default/bin/nascentc.exe dump vortex --trace 2>&1) || rc=$?
echo "$OUT" | grep -q "unknown option '--trace'" \
    || { echo "FAIL: nascentc dump --trace was not refused as an unknown option (exit $rc): $OUT" >&2
         exit 1; }
for flag in --seed=1 --stats-json=/dev/null --prewarm; do
    rc=0
    OUT=$(timeout 5 ./_build/default/bin/nascentc.exe client "$flag" --status \
        --connect "$XSOCK" 2>&1) || rc=$?
    echo "$OUT" | grep -q "unknown option '${flag%%=*}'" \
        || { echo "FAIL: nascentc client $flag was not refused as an unknown option (exit $rc): $OUT" >&2
             exit 1; }
done
# the bench harness has no load target: it refuses the name and writes
# nothing (no BENCH_load.json) where it runs
LTMP=$(mktemp -d "${TMPDIR:-/tmp}/nascent-load-XXXXXX")
BENCHEXE="$(pwd)/_build/default/bench/main.exe"
rc=0
OUT=$(cd "$LTMP" && timeout 10 "$BENCHEXE" load 2>&1) || rc=$?
LEFT=$(ls -A "$LTMP"); rm -rf "$LTMP"
if [ "$rc" -eq 0 ] || ! echo "$OUT" | grep -q "unknown target load" || [ -n "$LEFT" ]; then
    echo "FAIL: bench/main.exe load was not refused as an unknown target (exit $rc, left '$LEFT'): $OUT" >&2
    exit 1
fi
echo "fixed-bounds smoke OK: 9 removed nascentd flags and 4 removed nascentc flags are unknown options, bench load is an unknown target"

# --- chaos smoke: supervision + restart differential -----------------
# A supervised child that never binds ends supervision instead of
# looping. Then boot a supervised daemon; prove a second daemon on the same socket is
# refused and the first keeps answering; kill -9 the serving child
# mid-request; the supervisor restarts it clean and clients ride
# through the restart on retries. A compile is pure and the cache lives
# in memory, so nothing is replayed: the restarted daemon recomputes
# and must answer byte-for-byte as its predecessor did, timing aside.

CSOCK="${TMPDIR:-/tmp}/nascent-chaos-$$.sock"
CLOG="${TMPDIR:-/tmp}/nascent-chaos-$$.log"
CBASE="${TMPDIR:-/tmp}/nascent-chaos-$$"
BURNOUT="$CBASE.burn"

cfail() {
    echo "FAIL: $1" >&2
    [ -f "$CLOG" ] && sed 's/^/  nascentd: /' "$CLOG" >&2
    exit 1
}

# a serving process that exits before it binds is not restarted: a
# router with no shard exits 1 under --supervise (124 means the
# supervisor is restarting it in a loop)
rc=0
timeout 5 ./_build/default/bin/nascentd.exe --router --supervise \
    --socket "$CSOCK" >"$CLOG" 2>&1 || rc=$?
[ "$rc" -eq 1 ] || cfail "supervised router with no shard exited $rc, want 1"

./_build/default/bin/nascentd.exe --socket "$CSOCK" \
    --jobs 2 --supervise >"$CLOG" 2>&1 &
SUPER=$!
trap 'kill "$SUPER" 2>/dev/null || true; rm -rf "$CSOCK" "$CLOG" "$CBASE".*' EXIT INT TERM

cclient() {
    timeout 60 ./_build/default/bin/nascentc.exe client --connect "$CSOCK" "$@"
}

# a compile response without its timing and cache provenance
volatile_free() {
    sed -E 's/,"cached":(true|false)//; s/,"elapsed_ms":[0-9.eE+-]*//'
}

i=0
while [ ! -S "$CSOCK" ]; do
    kill -0 "$SUPER" 2>/dev/null || cfail "supervised nascentd died on startup"
    i=$((i + 1))
    [ "$i" -le 100 ] || cfail "supervised nascentd never bound $CSOCK"
    sleep 0.1
done

# a second daemon on the live socket is refused promptly, and the
# first one still owns the socket and answers
rc=0
timeout 10 ./_build/default/bin/nascentd.exe --socket "$CSOCK" >/dev/null 2>&1 || rc=$?
[ "$rc" -ne 0 ] || cfail "second daemon on a live socket exited 0, want nonzero"
[ "$rc" -ne 124 ] || cfail "second daemon on a live socket was not refused within 10s"
STATUS=$(cclient --status) || cfail "status after the refused second daemon exited $?"
echo "$STATUS" | grep -q '"restarts":0' \
    || cfail "supervised daemon does not answer after the refused second daemon: $STATUS"

CBENCHES="vortex trfd qcd mdg simple"

# the answers before the kill
for bench in $CBENCHES; do
    cclient "$bench" --run >"$CBASE.before.$bench" \
        || cfail "compile of $bench before the kill exited $?, want 0"
done

# park a long request so the kill orphans admitted work; its client
# rides the restart on retries and still ends at its own deadline
# (exit 6), not at a connection error
( rc=0; cclient --burn --deadline-ms 4000 --retries 10 --max-wait-ms 40000 \
      >/dev/null 2>&1 || rc=$?; echo "$rc" >"$BURNOUT" ) &
BURNER=$!
sleep 0.5

# kill -9 the serving child (its pid is in the supervisor's log); its
# successor starts with an empty cache and must recompute every answer
CHILD=$(awk '/serving pid/ { pid = $(NF-1) } END { print pid }' "$CLOG")
case "$CHILD" in *[!0-9]*|"") cfail "could not parse serving pid from log" ;; esac
kill -9 "$CHILD" 2>/dev/null || cfail "serving child $CHILD already gone"

# clients ride through the restart (retries + total-elapsed budget),
# and the recomputed answers match the ones given before the kill
for bench in $CBENCHES; do
    cclient "$bench" --run --retries 12 --max-wait-ms 40000 >"$CBASE.after.$bench" \
        || cfail "compile of $bench across restart exited $?, want 0"
    grep -q '"cached":false' "$CBASE.after.$bench" \
        || cfail "$bench after the restart was not recomputed: $(cat "$CBASE.after.$bench")"
    [ "$(volatile_free <"$CBASE.before.$bench")" = "$(volatile_free <"$CBASE.after.$bench")" ] \
        || cfail "$bench differs across the restart:
  before: $(cat "$CBASE.before.$bench")
  after:  $(cat "$CBASE.after.$bench")"
done

# the parked burn client finished with its own deadline, not a transport error
wait "$BURNER" 2>/dev/null || true
[ -f "$BURNOUT" ] || cfail "burn client never finished"
[ "$(cat "$BURNOUT")" = "6" ] || cfail "burn client across restart exited $(cat "$BURNOUT"), want 6"

# status shows exactly one restart
STATUS=$(cclient --status) || cfail "status after restart exited $?"
echo "$STATUS" | grep -q '"restarts":1' \
    || cfail "status lacks \"restarts\":1: $STATUS"

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
rm -rf "$CSOCK" "$CLOG" "$CBASE".*
echo "chaos smoke OK: unbound child not restarted->1, double-daemon refused, kill -9 -> restart, recomputed answers identical, clients ride through, SIGTERM drain->0"

# --- shard smoke: framed TCP, router, chaos proxy, kill -9 a shard ----
# Three shards behind a consistent-hash router on a framed TCP port,
# with a torn-frame chaos proxy in front. A client batch runs through
# the proxy while one (supervised) shard is kill -9'd mid-burst, beside
# four clients that never retry on the router's own port: every
# request must still exit 0 — the dead shard costs failovers and
# retries, never a client-visible error — and the restarted shard must
# rejoin the ring. The router must then carry a burst of memo hits on
# the shard connections it already holds. A second torn-frame proxy on
# a Unix socket proves that transport catches torn bytes too.
# Two slow requests in flight on s1 at the kill must fail over
# mid-exchange and come back framed from a surviving shard.

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
# pids unquoted: dash's kill stops at an empty argument, so a quoted
# unset pid would spare every process named after it
trap 'kill $SH0 $SH1 $SH2 $ROUTER $RDEF $BROUTER $PROXY $UPROXY $LOOPS $BURNS 2>/dev/null || true; rm -f "$SBASE"-*' EXIT INT TERM
ROUTER=""; RDEF=""; BROUTER=""; PROXY=""; UPROXY=""; LOOPS=""; BURNS=""

for s in "$S0" "$S1" "$S2"; do
    i=0
    while [ ! -S "$s" ]; do
        i=$((i + 1)); [ "$i" -le 100 ] || sfail "shard never bound $s"
        sleep 0.1
    done
done

./_build/default/bin/nascentd.exe --socket "$RSOCK" --tcp 127.0.0.1:0 -j 2 \
    --router --shard s0="$S0" --shard s1="$S1" --shard s2="$S2" >"$RLOG" 2>&1 &
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

# a second daemon on the router's busy TCP port is refused cleanly: exit
# 1, no "listening" banner, no socket file left behind
BUSY="$SBASE-busy.sock"
rc=0
timeout 5 ./_build/default/bin/nascentd.exe --socket "$BUSY" \
    --tcp "127.0.0.1:$RPORT" >"$SBASE-busy.log" 2>&1 || rc=$?
[ "$rc" -eq 1 ] || sfail "daemon on a busy tcp port exited $rc, want 1"
! grep -q "listening" "$SBASE-busy.log" \
    || sfail "daemon on a busy tcp port claimed to listen: $(cat "$SBASE-busy.log")"
grep -q "tcp port 127.0.0.1:$RPORT in use" "$SBASE-busy.log" \
    || sfail "busy tcp port not reported: $(cat "$SBASE-busy.log")"
[ ! -e "$BUSY" ] || sfail "daemon on a busy tcp port left $BUSY behind"

# so is a daemon whose listener cannot be set up at all: 192.0.2.1 is a
# documentation address on no interface of this host (bind fails
# locally with EADDRNOTAVAIL; nothing is sent), and a socket path in a
# missing directory cannot be bound
for args in "--socket $BUSY --tcp 192.0.2.1:5000" "--socket $SBASE-nodir/x.sock"; do
    rc=0
    timeout 5 ./_build/default/bin/nascentd.exe $args >"$SBASE-busy.log" 2>&1 || rc=$?
    [ "$rc" -eq 1 ] || sfail "daemon with $args exited $rc, want 1"
    ! grep -q "listening" "$SBASE-busy.log" \
        || sfail "daemon with $args claimed to listen: $(cat "$SBASE-busy.log")"
    grep -q "^nascentd: cannot listen on " "$SBASE-busy.log" \
        || sfail "daemon with $args gave no one-line reason: $(cat "$SBASE-busy.log")"
    [ "$(wc -l <"$SBASE-busy.log")" -eq 1 ] \
        || sfail "daemon with $args printed more than one line: $(cat "$SBASE-busy.log")"
    [ ! -e "$BUSY" ] || sfail "daemon with $args left $BUSY behind"
done

# the chaos proxy tears one framed connection in three
CPORT=$((20000 + $$ % 20000))
./_build/default/test/netfault/chaos_proxy.exe torn-frame:1 \
    "127.0.0.1:$CPORT" "127.0.0.1:$RPORT" >"$PLOG" 2>&1 &
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
BENCHES="vortex arc2d bdna dyfesm mdg qcd spec77 trfd linpackd simple"
( rc=0
  for bench in $BENCHES; do
      pclient "$bench" >/dev/null 2>&1 || { rc=$?; break; }
  done
  echo "$rc" >"$BOUT" ) &
BATCH=$!
# beside it, four clients that never retry (--retries 1 is one attempt)
# send the 10 benchmarks straight to the router's TCP port, round after
# round, from before the kill until one whole round after it: a shard
# dying under them may cost failovers inside the router, never a
# failed request
KILLED="$SBASE-killed"
for l in 1 2 3 4; do
    ( n=0; rc=0; after=0
      until [ "$after" -eq 1 ] || [ "$rc" -ne 0 ]; do
          if [ -e "$KILLED" ]; then after=1; fi
          for bench in $BENCHES; do
              timeout 60 ./_build/default/bin/nascentc.exe client \
                  --connect "127.0.0.1:$RPORT" --retries 1 "$bench" \
                  >/dev/null 2>"$SBASE-loop-$l.err" || { rc=$?; break; }
              n=$((n + 1))
              : >"$SBASE-loop-$l.up"
          done
      done
      echo "$rc $n $after" >"$SBASE-loop-$l.out" ) &
    LOOPS="$LOOPS $!"
done
sleep 0.4
for l in 1 2 3 4; do
    i=0
    until [ -e "$SBASE-loop-$l.up" ]; do
        [ ! -e "$SBASE-loop-$l.out" ] \
            || sfail "no-retry client $l failed before the kill: $(cat "$SBASE-loop-$l.err")"
        i=$((i + 1)); [ "$i" -le 300 ] || sfail "no-retry client $l sent nothing in 30s"
        sleep 0.1
    done
done
# two concurrent no-retry burns, which the ring sends to s1 first, are
# in flight on s1 when it dies: each must fail over mid-exchange and
# come back framed from s0 with its own deadline. They go through a
# second router that has forwarded nothing yet, so both ride shard
# connections it opens fresh; the main router holds pooled ones, and a
# dead pooled connection is retried by reconnecting, which fails over
# without the mid-exchange path
BSOCK="$SBASE-brouter.sock"
./_build/default/bin/nascentd.exe --socket "$BSOCK" -j 2 --router \
    --shard s0="$S0" --shard s1="$S1" --shard s2="$S2" >"$SBASE-brouter.log" 2>&1 &
BROUTER=$!
i=0
while [ ! -S "$BSOCK" ]; do
    kill -0 "$BROUTER" 2>/dev/null || sfail "burn router died on startup"
    i=$((i + 1)); [ "$i" -le 100 ] || sfail "burn router never bound $BSOCK"
    sleep 0.1
done
bstatus() {
    timeout 30 ./_build/default/bin/nascentc.exe client --connect "$BSOCK" --status
}
s0timeouts() {
    timeout 30 ./_build/default/bin/nascentc.exe client --connect "$S0" --status \
        | grep -o '"timeouts":[0-9]*' | cut -d: -f2
}
TIMEOUTS0=$(s0timeouts)
for b in 1 2; do
    ( rc=0
      timeout 60 ./_build/default/bin/nascentc.exe client --connect "$BSOCK" \
          --retries 1 --burn --deadline-ms 3000 >"$SBASE-burn-$b.resp" 2>/dev/null || rc=$?
      echo "$rc" >"$SBASE-burn-$b.rc" ) &
    BURNS="$BURNS $!"
done
i=0
until bstatus | grep -q '"name":"s1"[^}]*"forwarded":2'; do
    i=$((i + 1)); [ "$i" -le 100 ] || sfail "the burns never reached s1: $(bstatus)"
    sleep 0.1
done
sleep 0.2
CHILD=$(awk '/serving pid/ { pid = $(NF-1) } END { print pid }' "$S1LOG")
case "$CHILD" in *[!0-9]*|"") sfail "could not parse s1 serving pid" ;; esac
kill -9 "$CHILD" 2>/dev/null || sfail "s1 serving child $CHILD already gone"
: >"$KILLED"
for p in $BURNS; do wait "$p" 2>/dev/null || true; done
BURNS=""
for b in 1 2; do
    [ "$(cat "$SBASE-burn-$b.rc" 2>/dev/null)" = "6" ] \
        && grep -q '"code":"deadline"' "$SBASE-burn-$b.resp" \
        || sfail "burn $b across the kill exited $(cat "$SBASE-burn-$b.rc" 2>/dev/null), want a framed deadline (6): $(cat "$SBASE-burn-$b.resp")"
done
bstatus | grep -q '"name":"s0"[^}]*"forwarded":2' \
    || sfail "the burns were not answered by s0: $(bstatus)"
[ $(($(s0timeouts) - TIMEOUTS0)) -eq 2 ] \
    || sfail "s0 did not time out both burns: $((TIMEOUTS0)) -> $(s0timeouts)"
kill -TERM "$BROUTER" 2>/dev/null || sfail "burn router already dead at drain"
rc=0; wait "$BROUTER" || rc=$?
[ "$rc" -eq 0 ] || sfail "burn router exited $rc after SIGTERM, want 0"
BROUTER=""
wait "$BATCH" 2>/dev/null || true
[ -f "$BOUT" ] || sfail "client batch never finished"
[ "$(cat "$BOUT")" = "0" ] \
    || sfail "client batch across shard kill exited $(cat "$BOUT"), want 0"
for p in $LOOPS; do wait "$p" 2>/dev/null || true; done
LOOPS=""
NOREQ=0
for l in 1 2 3 4; do
    read -r rc n after <"$SBASE-loop-$l.out" || sfail "no-retry client $l never finished"
    [ "$rc" -eq 0 ] \
        || sfail "no-retry client $l: request $((n + 1)) exited $rc, want 0: $(cat "$SBASE-loop-$l.err")"
    [ "$after" -eq 1 ] || sfail "no-retry client $l stopped before the kill"
    NOREQ=$((NOREQ + n))
done

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

# the router reuses its shard connections: after a warming round, 30
# memo hits open at most one connection per router worker per shard
# (2 x 3); one connection per forward would open 30
rclient() {
    timeout 30 ./_build/default/bin/nascentc.exe client --connect "$RSOCK" "$@"
}
rconnects() { rstatus | grep -o '"connects":[0-9]*' | cut -d: -f2; }
for bench in $BENCHES; do
    rclient "$bench" >/dev/null || sfail "warming compile of $bench exited $?, want 0"
done
CONN0=$(rconnects)
case "$CONN0" in *[!0-9]*|"") sfail "router status reported no connects" ;; esac
for round in 1 2 3; do
    for bench in $BENCHES; do
        rclient "$bench" >/dev/null || sfail "memo-hit compile of $bench exited $?, want 0"
    done
done
CONN1=$(rconnects)
[ $((CONN1 - CONN0)) -le 6 ] \
    || sfail "30 memo hits opened $((CONN1 - CONN0)) shard connections, want <= 6"

# a router at its defaults forwards on 8 worker threads: 16 concurrent
# compiles, every second one carrying its own deadline, must each come
# back with the check counts a shard gives directly, and count as
# exactly 16 forwards
RDSOCK="$SBASE-rdef.sock"
./_build/default/bin/nascentd.exe --socket "$RDSOCK" --router \
    --shard s0="$S0" --shard s1="$S1" --shard s2="$S2" >"$SBASE-rdef.log" 2>&1 &
RDEF=$!
i=0
while [ ! -S "$RDSOCK" ]; do
    kill -0 "$RDEF" 2>/dev/null || sfail "default router died on startup"
    i=$((i + 1)); [ "$i" -le 100 ] || sfail "default router never bound $RDSOCK"
    sleep 0.1
done
rdstatus() {
    timeout 30 ./_build/default/bin/nascentc.exe client --connect "$RDSOCK" --status
}
rdstatus | grep -q '"jobs":8,"workers":"threads"' \
    || sfail "default router does not run 8 worker threads: $(rdstatus)"
CONC="$BENCHES vortex arc2d bdna dyfesm mdg qcd"
n=0; CPIDS=""
for bench in $CONC; do
    n=$((n + 1))
    dl=""; [ $((n % 2)) -eq 0 ] && dl="--deadline-ms 20000"
    ( rc=0
      timeout 60 ./_build/default/bin/nascentc.exe client --connect "$RDSOCK" \
          $dl "$bench" >"$SBASE-conc-$n.out" 2>&1 || rc=$?
      echo "$rc" >"$SBASE-conc-$n.rc" ) &
    CPIDS="$CPIDS $!"
done
for p in $CPIDS; do wait "$p" 2>/dev/null || true; done
counts() { grep -o '"checks_before":[0-9]*,"checks_after":[0-9]*' "$@"; }
n=0
for bench in $CONC; do
    n=$((n + 1))
    [ "$(cat "$SBASE-conc-$n.rc" 2>/dev/null)" = "0" ] \
        || sfail "concurrent routed compile $n ($bench) failed: $(cat "$SBASE-conc-$n.out")"
    timeout 30 ./_build/default/bin/nascentc.exe client --connect "$S0" "$bench" \
        >"$SBASE-direct.out" || sfail "direct compile of $bench on s0 exited $?"
    WANT=$(counts "$SBASE-direct.out")
    GOT=$(counts "$SBASE-conc-$n.out")
    [ -n "$WANT" ] && [ "$GOT" = "$WANT" ] \
        || sfail "routed $bench answered '$GOT', the shard directly '$WANT'"
done
FWD=$(rdstatus | grep -o '"forwards":[0-9]*' | cut -d: -f2)
[ "$FWD" = "16" ] || sfail "default router counted $FWD forwards for 16 compiles"

# the same fault class on a Unix socket: every connection there opens
# with the NF1 hello too, so a torn request fails its frame CRC at the
# router (frame_errors rises) and the client rides it out on a retry
ferrs() { rstatus | grep -o '"frame_errors":[0-9]*' | cut -d: -f2; }
FERR0=$(ferrs)
./_build/default/test/netfault/chaos_proxy.exe torn-frame:1 \
    "$USOCK" "$RSOCK" >"$UPLOG" 2>&1 &
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
for p in "$UPROXY" "$PROXY" "$ROUTER" "$RDEF" "$SH0" "$SH1" "$SH2"; do
    kill -TERM "$p" 2>/dev/null || sfail "process $p already dead at drain"
done
for p in "$UPROXY" "$PROXY" "$ROUTER" "$RDEF" "$SH0" "$SH1" "$SH2"; do
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
echo "shard smoke OK: chaos proxy batch->0 errors, kill -9 shard mid-burst ridden out by $NOREQ no-retry requests->0 errors and 2 in-flight burns failed over->deadline, supervised shard rejoined, pooled shard connections reused, 16 concurrent compiles through a default (threaded) router match the shard, unix-socket torn-frame batch->0 errors, drains->0"
