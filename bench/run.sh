#!/usr/bin/env bash
# The benchmark's one command. It builds the harness (a module of its own in
# this directory) into .bench_build/ at the root of the checkout, then
#
#   with arguments     passes them to the harness: this is the command in
#                      BENCHMARK.json, called as
#                      run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   without arguments  runs every workload untraced, then traced, with the
#                      default seed, and writes results under bench/out/.
#
# Everything the build and the runs write stays inside the checkout: the Go
# toolchain's caches, and the stores and WALs, which live in a directory of
# their own under .bench_build/tmp that is removed on exit.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The toolchain's own files (build cache, module cache, telemetry counters)
# stay in the checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
export GOENV=off GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"

(cd "$here" && go build -o "$build/coconut-bench" .)

tmp=$(mktemp -d "$build/tmp/run.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

if [ $# -gt 0 ]; then
  "$build/coconut-bench" -tmp "$tmp" "$@"
  exit $?
fi

out="$here/out"
mkdir -p "$out"
rm -f "$out/untraced.jsonl" "$out/traced.jsonl" "$out/spans.json"
"$build/coconut-bench" -tmp "$tmp" -workload all -trace 0 -out "$out/untraced.jsonl"
"$build/coconut-bench" -tmp "$tmp" -workload all -trace 1 -out "$out/traced.jsonl" -trace-out "$out/spans.json"
echo "results: $out/untraced.jsonl $out/traced.jsonl $out/spans.json"
