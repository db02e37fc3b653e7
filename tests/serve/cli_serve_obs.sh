#!/bin/sh
# End-to-end service observability (docs/observability.md): a daemon
# started with --log/--trace-json/--metrics-out/--postmortem-dir serves
# concurrent CLI clients with injected faults and an expired deadline,
# answers `metrics` and `dump` requests and a --top probe while live,
# and on SIGTERM-drain leaves behind a JSONL event log naming the
# client-minted request ids, a Chrome trace with propagated client
# spans (validated by check_trace.py --serve), a deadline postmortem
# naming the client rid, and a Prometheus exposition with non-zero
# fault/deadline counters.
# Usage: cli_serve_obs.sh <longnail-binary> <build-dir> <python3> <check_trace.py>
set -e
LN=$1
cd "$2"
PY=$3
CHECK=$4

rm -rf obs_e2e
mkdir -p obs_e2e/postmortems obs_e2e/cache

# The first 3 compile requests trip the serve failpoint (LN3904).
LONGNAIL_FAILPOINTS='serve=transient:3' \
    "$LN" --serve --socket obs_e2e/obs.sock --jobs=2 \
    --cache-dir obs_e2e/cache --admission-max 4 \
    --log obs_e2e/serve.jsonl \
    --trace-json obs_e2e/serve_trace.json \
    --metrics-out obs_e2e/serve.prom \
    --postmortem-dir obs_e2e/postmortems \
    > obs_e2e/server.log 2>&1 &
srv=$!
trap 'kill "$srv" 2>/dev/null || true' EXIT

i=0
until "$LN" --connect obs_e2e/obs.sock --request ping >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "server never became ready" >&2
        cat obs_e2e/server.log >&2
        exit 1
    fi
    sleep 0.1
done

# 8 concurrent compile clients; injected faults and admission sheds
# surface as structured exit-7 replies (allowed here).
pids=
for c in 1 2 3 4 5 6 7 8; do
    "$LN" --connect obs_e2e/obs.sock --stdout --core VexRiscv \
        isax_export/zol.core_desc >/dev/null 2>&1 || true &
    pids="$pids $!"
done
for p in $pids; do
    wait "$p"
done

# An already-expired deadline on an untouched cache key: the compile is
# cancelled at a phase boundary (LN3111, exit 7) and the server writes
# a deadline postmortem tagged with this client's rid.
set +e
"$LN" --connect obs_e2e/obs.sock --deadline-ms 0 --stdout --core ORCA \
    isax_export/bitmanip.core_desc >/dev/null 2> obs_e2e/deadline.err
rc=$?
set -e
test "$rc" -eq 7
grep -q 'LN3111' obs_e2e/deadline.err

# A client-side event log and trace: the client mints its rid/trace ids
# and records its own span around the round trip.
"$LN" --connect obs_e2e/obs.sock --log obs_e2e/client.jsonl \
    --trace-json obs_e2e/client_trace.json --stdout --core VexRiscv \
    isax_export/zol.core_desc > /dev/null
grep -q '"ev":"client.request"' obs_e2e/client.jsonl
grep -q '"ev":"client.reply"' obs_e2e/client.jsonl
grep -q '"rid":"c' obs_e2e/client.jsonl
grep -q '"name": "client.request"' obs_e2e/client_trace.json

# Live introspection while the daemon still serves.
"$LN" --connect obs_e2e/obs.sock --request metrics > obs_e2e/metrics.txt
grep -q '# TYPE longnail_serve_request_ms summary' obs_e2e/metrics.txt
grep -q 'longnail_serve_request_ms{quantile="0.99"}' obs_e2e/metrics.txt
grep -q 'longnail_serve_outcome_fault_total 3' obs_e2e/metrics.txt
grep -q 'longnail_serve_outcome_deadline_total 1' obs_e2e/metrics.txt

"$LN" --connect obs_e2e/obs.sock --request dump > obs_e2e/dump.txt
grep -q '\[serve.start\]' obs_e2e/dump.txt
grep -q '\[serve.deadline\]' obs_e2e/dump.txt
# The on-demand dump also landed as a postmortem file.
ls obs_e2e/postmortems | grep -q '^longnail-postmortem-dump-'

"$LN" --top obs_e2e/obs.sock > obs_e2e/top.txt
grep -q 'inflight ' obs_e2e/top.txt
grep -q 'deadline 1' obs_e2e/top.txt
grep -q 'faults 3' obs_e2e/top.txt
grep -q 'latency ms: p50 ' obs_e2e/top.txt

# Drain: trace and metrics files are written on the way out.
kill -TERM "$srv"
wait "$srv"
test ! -e obs_e2e/obs.sock

# The server trace is valid Chrome JSON with propagated client spans
# and per-rid phase nesting.
"$PY" "$CHECK" --serve obs_e2e/serve_trace.json

# The event log names the deadline client's rid with its outcome; rids
# minted by clients (c<pid>-1) flowed over the wire into the log.
grep -q '"ev":"serve.start"' obs_e2e/serve.jsonl
grep -q '"ev":"serve.stop"' obs_e2e/serve.jsonl
grep '"ev":"serve.reply"' obs_e2e/serve.jsonl \
    | grep '"outcome":"deadline"' | grep -q '"rid":"c'
grep '"ev":"serve.reply"' obs_e2e/serve.jsonl \
    | grep '"outcome":"fault"' | grep -q '"rid":"c'

# The one deadline miss left one postmortem, naming the client-minted
# rid.
test "$(ls obs_e2e/postmortems | grep -c '^longnail-postmortem-deadline-')" \
    -eq 1
dpm=$(ls obs_e2e/postmortems | grep '^longnail-postmortem-deadline-')
grep -q 'rid=c' "obs_e2e/postmortems/$dpm"

# Every timestamp counts from the trace epoch, the first taken.
if grep -h ' t=-' obs_e2e/postmortems/*; then
    echo "negative timestamp in a postmortem" >&2
    exit 1
fi

# The final exposition carries the same non-zero counters.
grep -q 'longnail_serve_outcome_fault_total 3' obs_e2e/serve.prom
grep -q 'longnail_serve_outcome_deadline_total 1' obs_e2e/serve.prom
grep -q 'longnail_serve_queue_wait_ms_count' obs_e2e/serve.prom

echo "serve obs: log, trace, postmortems, metrics and --top all check out"
