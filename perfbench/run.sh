#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run write
# stays inside the checkout: the Go build cache, the toolchain's config
# directory and the binary go under .bench_build/, and span files under
# .bench_out/.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export GOMODCACHE="${build}/gopath/pkg/mod"
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "${root}/perfbench" && go build -o "${build}/perfbench" .) >&2
exec "${build}/perfbench" "$@"
