#!/bin/sh
# Serve determinism (docs/compile-server.md): artifacts produced by a
# `longnail --connect` client against a live daemon must be
# byte-identical to the one-shot CLI's for the same ISAX x core combo,
# and so must stdout, stderr and the exit code of a lint run.
# Usage: cli_determinism.sh <longnail-binary> <build-dir> <source-dir>
set -e
LN=$1
cd "$2"

rm -rf serve_det_out solo_det_out serve_det.sock serve_det.log \
       serve_det.jsonl serve_det_client.jsonl solo_det.jsonl \
       serve_det_lint.* solo_det_lint.*
# The structured event log rides along on both sides: artifacts must
# stay byte-identical with logging enabled (docs/observability.md).
"$LN" --serve --socket serve_det.sock --log serve_det.jsonl \
    > serve_det.log 2>&1 &
srv=$!
trap 'kill "$srv" 2>/dev/null || true' EXIT

# Readiness is "a ping round-trips", not "the socket file exists":
# the file appears at bind(), a connect can still race the listen().
i=0
until "$LN" --connect serve_det.sock --request ping >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "server never became ready" >&2
        cat serve_det.log >&2
        exit 1
    fi
    sleep 0.1
done

for f in isax_export/zol.core_desc isax_export/bitmanip.core_desc \
         isax_export/autoinc.core_desc; do
    n=$(basename "$f" .core_desc)
    for core in VexRiscv ORCA PicoRV32 Piccolo; do
        mkdir -p "serve_det_out/$n-$core" "solo_det_out/$n-$core"
        "$LN" --connect serve_det.sock --log serve_det_client.jsonl \
            --core "$core" -o "serve_det_out/$n-$core" "$f" 2>/dev/null
        "$LN" --quiet --log solo_det.jsonl --core "$core" \
            -o "solo_det_out/$n-$core" "$f"
    done
done

# -O1 artifacts must be identical through the daemon too: the opt
# level travels in the compile request and in the cache key, so a
# served -O1 compile may not alias a cached -O0 artifact.
for core in VexRiscv ORCA; do
    mkdir -p "serve_det_out/zol-$core-O1" "solo_det_out/zol-$core-O1"
    "$LN" --connect serve_det.sock -O1 --core "$core" \
        -o "serve_det_out/zol-$core-O1" isax_export/zol.core_desc \
        2>/dev/null
    "$LN" --quiet -O1 --core "$core" -o "solo_det_out/zol-$core-O1" \
        isax_export/zol.core_desc
done

# Diagnostics and exit codes match too: one renderer serves both paths.
# The lint fixture warns (exit 0) and, under --Werror, fails (exit 5).
fixture="$3/tests/analysis/fixtures/lint_bugs.core_desc"
for werror in "" --Werror; do
    set +e
    "$LN" --connect serve_det.sock --lint $werror "$fixture" \
        > serve_det_lint.out 2> serve_det_lint.err
    served=$?
    "$LN" --lint $werror "$fixture" \
        > solo_det_lint.out 2> solo_det_lint.err
    solo=$?
    set -e
    test "$served" -eq "$solo"
    cmp serve_det_lint.out solo_det_lint.out
    cmp serve_det_lint.err solo_det_lint.err
done
test "$solo" -eq 5

"$LN" --connect serve_det.sock --request shutdown >/dev/null
wait "$srv" # a shutdown-request drain must exit 0

diff -r serve_det_out solo_det_out
# The logging really was on for every leg of the comparison.
grep -q '"ev":"serve.request"' serve_det.jsonl
grep -q '"ev":"client.request"' serve_det_client.jsonl
grep -q '"ev":' solo_det.jsonl
echo "serve determinism: daemon artifacts byte-identical to one-shot CLI"
