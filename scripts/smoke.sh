#!/usr/bin/env bash
# The seven end-to-end drills of a real triqd process: each boots the binary on
# loopback sockets, drives it with curl, checks what an operator would see and
# stops it. CI runs `all`; a laptop needs only go, curl and jq.
#
#   bash scripts/smoke.sh --list | all | <name>...
#
# Every run builds triqd once into a private temp dir and takes free ports, so
# two copies can run side by side; whatever the outcome, no triqd is left behind.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
SMOKES=(triqd telemetry tracing crash-recovery failover materialization ops)
SMOKE=setup PIDS=()
CLOSURE='{"program":"triple(?X, partOf, transportService) -> ts(?X). triple(?X, partOf, ?Y), ts(?Y) -> ts(?X). ts(?T), triple(?X, ?T, ?Y) -> conn(?X, ?Y). ts(?T), triple(?X, ?T, ?Z), conn(?Z, ?Y) -> conn(?X, ?Y). conn(?X, ?Y) -> query(?X, ?Y)."}'

fail() { echo "FAIL [$SMOKE]: $*" >&2; exit 1; }

cleanup() {
  local status=$?
  [ ${#PIDS[@]} = 0 ] || kill -9 "${PIDS[@]}" 2>/dev/null || true
  [ $status = 0 ] || tail -n 15 "$TMP"/*/triqd.*.log >&2 || true
  rm -rf "$TMP"
}

# poll WHAT CMD...: retry CMD every 0.1 s, for 30 s.
poll() {
  local what=$1 n
  shift
  for n in $(seq 1 300); do "$@" 2>/dev/null && return 0; sleep 0.1; done
  fail "timed out waiting for $what"
}

# start_triqd FLAGS...: boot triqd on a free loopback port (a later -addr in
# FLAGS names one instead); sets PID and URL once the listener answers.
start_triqd() {
  local log="$D/triqd.$((${#PIDS[@]} + 1)).log"
  "$TMP/bin/triqd" -addr 127.0.0.1:0 -drain-timeout 10s "$@" 2>"$log" &
  PID=$!
  PIDS+=("$PID")
  poll "triqd to listen" grep -q 'listening on' "$log"
  URL=http://$(sed -n 's/.*listening on \([^,]*\),.*/\1/p' "$log")
}

state_is() { curl -s "$1/readyz" | grep -q "\"state\":\"$2\""; }
wait_state() { poll "$1 to report $2" state_is "$1" "$2"; }
wait_ready() { wait_state "$1" ready; }
epoch_reached() { [ "$(curl -s "$1/readyz" | jq -r '.epoch // 0')" -ge "$2" ]; }

stop() { kill -TERM "$1" && wait "$1" || fail "triqd $1 did not drain cleanly on SIGTERM"; }
crash() { kill -9 "$1"; wait "$1" || true; }

# post URL BODY [CURL-ARGS...] and get URL [PATTERN...] leave the response in
# $OUT; anything but a 200, or a PATTERN that no line matches, fails the smoke.
post() {
  local code
  code=$(curl -s -o "$OUT" -w '%{http_code}' "$1" -d "$2" "${@:3}") || true
  [ "$code" = 200 ] || { cat "$OUT" >&2; fail "POST $1 returned $code"; }
}
get() { curl -sf "$1" -o "$OUT" || fail "GET $1 failed"; expect "$OUT" "${@:2}"; }

# expect FILE PATTERN...: every pattern matches some line of FILE.
matches() {
  local f=$1 p
  shift
  for p in "$@"; do grep -q -- "$p" "$f" || { MISSING=$p; return 1; }; done
}
expect() { matches "$@" || { head -c 2000 "$1" >&2; fail "${1##*/} lacks $MISSING"; }; }
alerts_show() { curl -s "$1/debug/alerts" -o "$OUT" && matches "$OUT" "${@:2}"; }

# graph N: the first N triples of the transport graph, as $D/g.nt.
graph() {
  head -n "$1" > "$D/g.nt" <<'NT'
TheAirline partOf transportService .
A311 partOf TheAirline .
Oxford A311 London .
BritishAirways partOf transportService .
BA201 partOf BritishAirways .
London BA201 Madrid .
NT
}

# mixed_load BASE WRITE_PCT: 60 requests from 4 parallel curls, WRITE_PCT of
# them 4-triple batches that are inserted and then deleted again, the rest the
# closure query. curl retries a shed 503 after its Retry-After; a request that
# still fails, or any other status, fails the smoke.
mixed_load() {
  local d i k=0 nt op=(insert delete)
  d=$(mktemp -d -p "$D")
  for i in $(seq 101 160); do
    if [ $((i * $2 % 100)) -lt "$2" ]; then
      nt=$(printf "lg-b$((k / 2))-s%d lg-p lg-o%d .\\\\n" 0 0 1 1 2 2 3 3)
      echo "{\"triples\":\"$nt\"}" > "$d/$i.${op[k++ % 2]}"
    else echo "$CLOSURE" > "$d/$i.query"; fi
  done
  ls "$d"/* | xargs -P4 -I{} sh -c 'curl -sf --retry 5 -o /dev/null "$0/${1##*.}" -d @"$1"' "$1" {} ||
    fail "mixed load: a request failed"
}

# acked_answer FILE: every name in FILE is a row of the answer in $OUT (rows
# are N-Triples terms, unescaped in the JSON: <batchN>).
acked_answer() {
  local b
  [ -s "$1" ] || fail "no insert was acknowledged"
  while read -r b; do grep -q "<$b>" "$OUT" || fail "acked $b lost"; done < "$1"
}

# End-to-end triqd smoke: boot on a real socket, wait ready, query, ask
# /sparql over the inconsistent ontology (⊤ is a 200, not a crashed handler) on
# the default and the exact path, SIGTERM, assert a clean drain and exit 0; then
# the same over a consistent ontology whose chase is infinite, which must
# answer exact on both.
smoke_triqd() {
  graph 3
  cat > "$D/o.owl" <<'OWL'
SubClassOf(student, person)
SubClassOf(∃advises⁻, student)
DisjointClasses(person, course)
ObjectPropertyAssertion(advises, ada, bob)
ClassAssertion(course, bob)
OWL
  start_triqd -data "$D/g.nt" -ontology "$D/o.owl"
  wait_ready "$URL"
  post "$URL/query" '{"program":"triple(?X, partOf, ?Y) -> query(?X, ?Y)."}'
  expect "$OUT" '"rows"' '"attempts":1'
  post "$URL/sparql" '{"query":"SELECT ?X WHERE { ?X rdf:type person }","regime":"active-domain"}'
  expect "$OUT" '"inconsistent":true'
  post "$URL/sparql" '{"query":"SELECT ?X WHERE { ?X rdf:type person }","regime":"active-domain","exact":true}'
  expect "$OUT" '"inconsistent":true'
  stop "$PID" # exit 0 = clean drain
  # README's professor ontology: no depth bound finishes its chase, and the
  # closing pass proves the two answers complete.
  cat > "$D/prof.owl" <<'OWL'
SubClassOf(professor, ∃teaches)
SubClassOf(∃teaches⁻, course)
SubClassOf(course, ∃taughtBy)
SubObjectPropertyOf(taughtBy, teaches⁻)
SubClassOf(professor, person)
ClassAssertion(professor, alice)
ClassAssertion(professor, bob)
OWL
  start_triqd -data "$D/g.nt" -ontology "$D/prof.owl"
  wait_ready "$URL"
  post "$URL/sparql" '{"query":"SELECT ?X WHERE { ?X rdf:type person }","regime":"active-domain"}'
  expect "$OUT" '"exact":true' 'alice' 'bob'
  post "$URL/sparql" '{"query":"SELECT ?X WHERE { ?X rdf:type person }","regime":"active-domain","exact":true}'
  expect "$OUT" '"exact":true' 'alice' 'bob'
  stop "$PID"
}

# Telemetry smoke: boot triqd with the slow-query log armed at a threshold
# only the deliberately recursive query crosses, run a fast and a slow query,
# then assert the three observability surfaces are well-formed: Prometheus
# /metrics (histogram series present), /debug/slowlog (the slow query recorded
# with an EXPLAIN report), and /debug/progress (idle counters after the queries
# drain).
smoke_telemetry() {
  graph 6
  start_triqd -data "$D/g.nt" -slowlog-threshold 1us -slowlog "$D/slow.jsonl"
  wait_ready "$URL"
  post "$URL/query" '{"program":"triple(?X, partOf, ?Y) -> query(?X, ?Y)."}'
  post "$URL/query?explain=1" "$CLOSURE"
  expect "$OUT" '"explain"' '"rules"'
  get "$URL/metrics" '^# TYPE serve_latency_us histogram' 'serve_latency_us_bucket{le="+Inf"}' \
    '^serve_ok 2$' '^serve_breaker_state_query 0$' '^serve_queue_depth 0$'
  get "$URL/metrics.json" '"p99"'
  get "$URL/debug/slowlog" '"enabled":true' '"explain"'
  expect "$D/slow.jsonl" '"endpoint"' # JSONL sink got entries too
  get "$URL/debug/progress" '"active_runs":0' '"triggers_fired"'
  stop "$PID"
}

# Tracing smoke: boot triqd with head sampling off and auto-profiling armed,
# send a SPARQL query carrying a sampled W3C traceparent (the sampled flag
# forces recording), and assert the full distributed trace: the response echoes
# the caller's trace id, /debug/trace?id= returns an OTLP document whose spans
# cover serve admission → translation → the exact path → chase under that
# single trace id, and the slow-query trip left CPU+heap profile files
# referenced from the slowlog.
smoke_tracing() {
  local tid=0af7651916cd43dd8448eb211c80319c span ids
  "$TMP/bin/triqd" -version | grep -q '^triqd ' || fail "-version does not print 'triqd ...'"
  graph 3
  mkdir "$D/profiles"
  start_triqd -data "$D/g.nt" -trace-sample=-1 -slowlog-threshold 1us \
    -profile-dir "$D/profiles" -autoprofile-cpu 200ms
  wait_ready "$URL"
  post "$URL/sparql" '{"query":"SELECT ?x ?y WHERE { ?x partOf ?y . OPTIONAL { ?y partOf ?z } }","exact":true}' \
    -D "$D/headers" -H "traceparent: 00-$tid-b7ad6b7169203331-01"
  grep -qi "^traceparent: 00-$tid-" "$D/headers" || fail "response does not echo the traceparent"
  expect "$OUT" "\"trace_id\":\"$tid\""
  get "$URL/debug/trace?id=$tid"
  for span in serve.request serve.admission translate.compile triq.exact chase.deepen chase.run; do
    expect "$OUT" "\"name\":\"$span\""
  done
  ids=$(grep -o '"traceId":"[0-9a-f]*"' "$OUT" | sort -u | wc -l)
  [ "$ids" = 1 ] || fail "expected one trace id, got $ids"
  expect "$OUT" '"account"' '"facts_derived"'
  get "$URL/debug/trace" "\"trace_id\":\"$tid\""
  # the query tripped the 1us slowlog threshold: its entry links the
  # auto-captured profiles
  get "$URL/debug/slowlog" "\"profile_cpu\":\"$D/profiles/cpu-" "\"profile_heap\":\"$D/profiles/heap-" "\"trace_id\":\"$tid\""
  stop "$PID" # drain also flushes in-flight profile captures
  ls "$D"/profiles/cpu-*.pprof "$D"/profiles/heap-*.pprof > /dev/null
  go tool pprof -top "$D"/profiles/heap-*.pprof > /dev/null
}

# Crash-recovery smoke: boot triqd with a WAL, fire a mutation burst, kill -9
# mid-burst, restart on the same directory, and assert the server converges to
# ready with every acknowledged triple answering.
smoke_crash_recovery() {
  local i code
  graph 1
  mkdir "$D/store"
  start_triqd -data "$D/g.nt" -wal-dir "$D/store"
  wait_ready "$URL"
  # Acknowledged inserts are recorded; the process dies in the middle of the stream.
  : > "$D/acked"
  for i in $(seq 1 40); do
    code=$(curl -s -o /dev/null -w '%{http_code}' "$URL/insert" \
      -d "{\"triples\":\"batch$i partOf TheAirline .\\n\"}") || break
    if [ "$code" = 200 ]; then echo "batch$i" >> "$D/acked"; fi
    if [ "$i" = 20 ]; then kill -9 "$PID"; fi
  done
  wait "$PID" || true
  # Restart against the same store; -data must be ignored.
  start_triqd -data "$D/g.nt" -wal-dir "$D/store"
  wait_ready "$URL"
  post "$URL/query" '{"program":"triple(?X, partOf, TheAirline) -> query(?X)."}'
  acked_answer "$D/acked"
  stop "$PID"
}

# Failover chaos smoke: a primary with a WAL and a streaming replica, a
# concurrent read/write load against the primary (curl's retries absorb any
# shedding), then kill -9 the primary, promote the replica over the API, and
# assert every acknowledged batch answers on the promoted node (a min-epoch
# read pins the last acked epoch) and that it accepts new writes.
smoke_failover() {
  local primary purl replica rurl i out epoch=0
  graph 1
  mkdir "$D/store"
  start_triqd -data "$D/g.nt" -wal-dir "$D/store"
  primary=$PID purl=$URL
  wait_ready "$purl"
  start_triqd -replica-of "$purl"
  replica=$PID rurl=$URL
  wait_state "$rurl" replica
  mixed_load "$purl" 50
  # Deterministic acked tail: record every 200-acknowledged batch and the
  # epoch of the last ack.
  : > "$D/acked"
  for i in $(seq 1 20); do
    out=$(curl -s "$purl/insert" -d "{\"triples\":\"failover$i partOf TheAirline .\\n\"}")
    if grep -q '"epoch"' <<< "$out"; then
      echo "failover$i" >> "$D/acked"
      epoch=$(jq .epoch <<< "$out")
    fi
  done
  # Wait until the replica holds the last acknowledged epoch, then kill the
  # primary without ceremony.
  poll "the replica to reach epoch $epoch" epoch_reached "$rurl" "$epoch"
  crash "$primary"
  curl -sf -X POST "$rurl/repl/promote" | grep -q '"state":"promoted"' || fail "promote did not report promoted"
  state_is "$rurl" ready || fail "promoted node is not ready"
  post "$rurl/query" "{\"program\":\"triple(?X, partOf, TheAirline) -> query(?X).\",\"min_epoch\":$epoch}"
  acked_answer "$D/acked"
  post "$rurl/insert" '{"triples":"afterFailover partOf TheAirline .\n"}' # the promoted node is writable
  stop "$replica"
}

# Materialization smoke: boot triqd with -materialize, cold-build the
# transport-closure materialization, drive a mixed read/write load that the
# maintenance path must fold batch for batch, then assert the materializer is
# live: mat_epoch tracks store_epoch on /metrics and a sampled query's EXPLAIN
# reports it was served from the warm materialization.
smoke_materialization() {
  local store_epoch mat_epoch
  graph 6
  start_triqd -data "$D/g.nt" -materialize
  wait_ready "$URL"
  post "$URL/query" "$CLOSURE" # the cold build installs the materialization
  mixed_load "$URL" 30
  # The maintained epoch tracks the store epoch exactly, before any further
  # query could lazily rebuild.
  get "$URL/metrics"
  store_epoch=$(awk '$1 == "store_epoch" { print $2 }' "$OUT")
  mat_epoch=$(awk '$1 == "mat_epoch" { print $2 }' "$OUT")
  [ -n "$mat_epoch" ] && [ "$mat_epoch" = "$store_epoch" ] ||
    fail "mat_epoch=$mat_epoch does not track store_epoch=$store_epoch"
  post "$URL/query?explain=1" "$CLOSURE"
  expect "$OUT" '"path":"materialized"' # served warm, not by the chase
  stop "$PID"
}

# Ops smoke: the end-to-end alerting drill. A primary whose replication sends
# partition after the first 12 frames (TRIQ_FAULTS), a replica armed with the
# replica-lag SLO on tight CI windows. Assert the epoch timeline is populated
# on both ends (/debug/epochs shows append/sync/ship on the primary,
# replica_apply on the replica), the replica_lag_seconds burn-rate alert fires
# at /debug/alerts while the partition holds, and it clears after the primary
# is restarted healthy — with both transitions appended to the -alert-log JSONL.
smoke_ops() {
  local primary purl replica rurl i
  graph 1
  mkdir "$D/store"
  TRIQ_FAULTS="repl.send@12=partition" start_triqd -data "$D/g.nt" -wal-dir "$D/store"
  primary=$PID purl=$URL
  wait_ready "$purl"
  start_triqd -replica-of "$purl" -slo-replica-lag 1s -slo-interval 200ms \
    -slo-window-fast 1s -slo-window-slow 3s -alert-log "$D/alerts.jsonl"
  replica=$PID rurl=$URL
  wait_state "$rurl" replica
  # A few writes ride the stream while it is still healthy; they populate the
  # primary's epoch timeline and reach the replica.
  for i in 1 2 3 4 5; do post "$purl/insert" "{\"triples\":\"ops$i partOf TheAirline .\\n\"}"; done
  sleep 1
  get "$purl/debug/epochs" '"append"' '"sync"' '"ship"'
  get "$rurl/debug/epochs" '"replica_apply"'
  # By now the fault plan severs every send; the replica's wall-clock lag grows
  # past the 1s target and the alert must fire on both burn windows.
  # (replica_lag_seconds is the only objective armed, so any firing alert is it.)
  poll "the replica-lag alert to fire" alerts_show "$rurl" '"firing":1'
  expect "$OUT" '"name":"replica_lag_seconds"' '"state":"firing"'
  # Heal: replace the faulted primary with a clean one on the same store and
  # port; the replica reconnects, heartbeats refresh its lag, and the alert
  # must clear (fast-window recovery).
  crash "$primary"
  start_triqd -data "$D/g.nt" -wal-dir "$D/store" -addr "${purl#http://}"
  primary=$PID
  wait_ready "$purl"
  poll "the replica-lag alert to clear after the heal" alerts_show "$rurl" '"firing":0' '"state":"cleared"'
  expect "$D/alerts.jsonl" '"state":"firing"' '"state":"cleared"' # both transitions were logged
  stop "$replica"
  stop "$primary"
}

case "${1:-}" in
  --list) printf '%s\n' "${SMOKES[@]}"; exit 0 ;;
  all) set -- "${SMOKES[@]}" ;;
  "") echo "usage: bash scripts/smoke.sh --list | all | <name>..." >&2; exit 2 ;;
esac
for SMOKE in "$@"; do
  [[ " ${SMOKES[*]} " == *" $SMOKE "* ]] || { echo "unknown smoke $SMOKE (try --list)" >&2; exit 2; }
done
TMP=$(mktemp -d)
trap cleanup EXIT
trap 'exit 130' INT TERM
(cd "$ROOT" && go build -o "$TMP/bin/" ./cmd/triqd)
for SMOKE in "$@"; do
  D=$TMP/$SMOKE OUT=$TMP/$SMOKE/out
  mkdir "$D"
  "smoke_${SMOKE//-/_}"
  echo "ok   $SMOKE"
done
