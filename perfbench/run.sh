#!/usr/bin/env bash
# Builds vs2serve and vs2d from this checkout, then runs the benchmark:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Everything it builds or writes
# stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$out/bin/vs2serve" ./cmd/vs2serve
go build -o "$out/bin/vs2d" ./cmd/vs2d
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --bin "$out/bin" --work "$out" "$@"
