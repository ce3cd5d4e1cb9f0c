#!/bin/sh
# Builds wpmbench from source and runs it with the given arguments. Run it
# from the root of a checkout:
#
#   sh cmd/wpmbench/run.sh -workload scan -seed 42 -seconds 24 -trace 0
#
# The Go build cache, the go command's configuration and telemetry,
# temporary files and the binary stay under .bench_build/ at the checkout
# root, so a run writes nothing outside the checkout, and the go command is
# not allowed to download modules or toolchains. wpmbench is a
# module of its own that takes the crawler packages from the checkout
# (replace gullible => ../..): outside a checkout the build fails and the
# script exits non-zero without printing a result.
set -eu

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" \
	GOPROXY=off GOTOOLCHAIN=local

(cd cmd/wpmbench && go build -o "$build/wpmbench" .)
exec "$build/wpmbench" "$@"
