#!/bin/sh
# End-to-end serve soak (docs/compile-server.md): concurrent CLI
# clients hammer a daemon that has fault injection armed, then the
# daemon is SIGTERMed mid-service. The daemon must survive every
# injected fault, drain gracefully (exit 0), unlink its socket and
# leave no in-progress temp files in the artifact cache.
# Usage: cli_soak.sh <longnail-binary> <build-dir>
set -e
LN=$1
cd "$2"

rm -rf soak.sock soak_cache soak_server.log
mkdir -p soak_cache
LONGNAIL_FAILPOINTS='serve=transient:20;sched=transient:10' \
    "$LN" --serve --socket soak.sock --cache-dir soak_cache --jobs=2 \
    > soak_server.log 2>&1 &
srv=$!
trap 'kill "$srv" 2>/dev/null || true' EXIT

i=0
until "$LN" --connect soak.sock --request ping >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "server never became ready" >&2
        cat soak_server.log >&2
        exit 1
    fi
    sleep 0.1
done

# 8 concurrent clients; injected serve faults surface as exit-7 error
# replies and injected sched faults as exit-3 compile-error results
# (both allowed), but health/ping must always succeed.
pids=
for c in 1 2 3 4 5 6 7 8; do
    (
        for r in 1 2 3; do
            "$LN" --connect soak.sock --stdout --core VexRiscv \
                isax_export/zol.core_desc >/dev/null 2>&1 || true
            "$LN" --connect soak.sock --stdout --core ORCA \
                isax_export/bitmanip.core_desc >/dev/null 2>&1 || true
            "$LN" --connect soak.sock --request health >/dev/null
            "$LN" --connect soak.sock --request ping >/dev/null
        done
    ) &
    pids="$pids $!"
done
for p in $pids; do
    wait "$p"
done

# The daemon survived the barrage...
"$LN" --connect soak.sock --request ping >/dev/null

# ...and drains gracefully on SIGTERM: exit 0, socket unlinked, no
# in-progress temp files left behind.
kill -TERM "$srv"
wait "$srv"
test ! -e soak.sock
leftover=$(find soak_cache -name '*.tmp' | wc -l)
test "$leftover" -eq 0
echo "serve soak: daemon survived fault injection and drained cleanly"
