#!/usr/bin/env bash
# Benchmark entry point: build nascentd and the ledger from source, then
# measure one workload.
#
#   bash bench/ledger/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to stderr; the last
# line of stdout is the ledger's JSON result. --trace 1 reports the
# per-layer metrics and leaves the Chrome trace in _ledger/.
set -euo pipefail

workload="" seed="" seconds="" trace=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload=$2 ;;
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --trace) trace=$2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift 2
done
if [ -z "$workload" ] || [ -z "$seed" ] || [ -z "$seconds" ]; then
    echo "run.sh: --workload, --seed and --seconds are required" >&2
    exit 2
fi
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
    echo "run.sh: run from the root of a nascent checkout" >&2
    exit 2
fi

command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled XDG_CACHE_HOME="$PWD/_ledger/cache"
dune build --root . ./bench/ledger/ledger.exe ./bin/nascentd.exe >&2

args=(run --workload "$workload" --seed "$seed" --seconds "$seconds")
if [ "$trace" = 1 ]; then
    args+=(--trace "_ledger/trace-$workload.json")
fi
exec ./_build/default/bench/ledger/ledger.exe "${args[@]}"
