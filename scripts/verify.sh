#!/bin/sh
# Full verification: vet, build, wpmlint (repo run + self-tests + SARIF
# smoke), then the whole repo under the race detector. The experiments
# package's full synthetic-web crawls are skipped in -short mode; set
# WPM_FULL_RACE=1 to run the long tier. Plain `go test ./...` stays the quick
# tier-1 check.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# wpmlint's exit codes are a contract (0 clean / 1 findings / 2 usage /
# 3 load failure) and `go run` collapses any nonzero child exit to 1, so
# build the real binary for the self-tests
wpmlint_bin=$(mktemp -d)/wpmlint
go build -o "$wpmlint_bin" ./cmd/wpmlint

echo "== wpmlint ./internal/... (reliability invariants)"
"$wpmlint_bin" ./internal/...

echo "== wpmlint self-test (fixture must fail with exit 1: findings, not a load error)"
set +e
"$wpmlint_bin" ./internal/lint/testdata/src/bad >/dev/null 2>&1
fixture_status=$?
set -e
if [ "$fixture_status" != 1 ]; then
    echo "wpmlint exited $fixture_status on the deliberate-violation fixture (want 1); the linter is broken" >&2
    exit 1
fi

echo "== wpmlint load-failure self-test (missing package or empty pattern must exit 3, never look clean)"
for target in ./internal/no-such-package ./scripts/...; do
    set +e
    "$wpmlint_bin" "$target" >/dev/null 2>&1
    load_status=$?
    set -e
    if [ "$load_status" != 3 ]; then
        echo "wpmlint exited $load_status on $target (want 3)" >&2
        exit 1
    fi
done

echo "== wpmlint SARIF smoke (fixture output must match the committed golden schema)"
set +e
# run from the package dir: the golden (written by the go test) carries
# package-relative artifact URIs
(cd internal/lint && "$wpmlint_bin" -format sarif testdata/src/bad) >/tmp/wpmlint-smoke.sarif 2>/dev/null
sarif_status=$?
set -e
if [ "$sarif_status" != 1 ]; then
    echo "wpmlint -format sarif exited $sarif_status on the fixture (want 1)" >&2
    exit 1
fi
if ! diff -u internal/lint/testdata/golden/bad.sarif /tmp/wpmlint-smoke.sarif; then
    echo "SARIF output drifted from the committed golden (regenerate with: go test ./internal/lint -run TestGoldenOutput -update)" >&2
    exit 1
fi
grep -q '"version": "2.1.0"' /tmp/wpmlint-smoke.sarif
grep -q '"\$schema": "https://json.schemastore.org/sarif-2.1.0.json"' /tmp/wpmlint-smoke.sarif
rm -f /tmp/wpmlint-smoke.sarif

echo "== go test -race ./internal/analysis/... ./internal/lint/... ./internal/telemetry/... ./internal/sched/..."
go test -race ./internal/analysis/... ./internal/lint/... ./internal/telemetry/... ./internal/sched/...

echo "== go test -race ./internal/wal/... ./internal/faults/... (durable storage + fault injection)"
go test -race ./internal/wal/... ./internal/faults/...

echo "== kill-and-recover smoke (crash mid-crawl, recover from WAL, resume, compare digests)"
go test -race -run 'KillAndRecoverFromWAL|RecoverShardRebuildsStorage|TruncationProperty' ./internal/sched ./internal/wal

echo "== go test -race ./internal/daemon/... (crawl-as-a-service: cache keying, admission, drain+recover)"
go test -race ./internal/daemon/...

# a test that fails under -count=N is a bug, not noise: the event stream's
# gap-free replay must hold on every repetition
echo "== go test -race -count=3 -run TestJobEventStreamSSE ./internal/daemon (event stream replays without gaps)"
go test -race -count=3 -run TestJobEventStreamSSE ./internal/daemon

echo "== wpmd smoke (start, submit, poll, artifact, digest-identical cache hit, metrics, drain)"
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
go run ./cmd/wpmd -smoke -dir "$smokedir/state" >/dev/null 2>&1 || {
    echo "wpmd -smoke failed; rerun without redirection for detail" >&2
    exit 1
}

echo "== wpmtrace smoke (record a traced crawl, analyse it, replay at 1-3 workers, demand empty trace diffs; faulted bundles cmp-equal at 1-3 workers)"
tracedir=$(mktemp -d)
go build -o "$tracedir/wpmscan" ./cmd/wpmscan
go build -o "$tracedir/wpmtrace" ./cmd/wpmtrace
"$tracedir/wpmscan" -sites 8 -subpages 1 -workers 2 \
    -record-bundle "$tracedir/scan.bundle" -trace "$tracedir/record.trace" >/dev/null
critical=$("$tracedir/wpmtrace" critical "$tracedir/record.trace")
echo "$critical" | grep -q "crawl" || {
    echo "wpmtrace critical path is empty or missing the crawl root:" >&2
    echo "$critical" >&2
    exit 1
}
for w in 1 2 3; do
    "$tracedir/wpmscan" -sites 8 -subpages 1 -workers "$w" \
        -replay-bundle "$tracedir/scan.bundle" -trace "$tracedir/replay$w.trace" >/dev/null
    "$tracedir/wpmtrace" diff "$tracedir/record.trace" "$tracedir/replay$w.trace" || {
        echo "record-vs-replay traces diverge at $w replay workers; replay determinism is broken" >&2
        exit 1
    }
done
# the scheduler owns the crawl root and clock and seals the bundle once from
# the shard recorders: a recorded, traced crawl is the same bytes at any
# worker count
"$tracedir/wpmscan" -sites 8 -subpages 1 -workers 1 \
    -record-bundle "$tracedir/serial.bundle" -trace "$tracedir/serial.trace" >/dev/null
cmp "$tracedir/serial.trace" "$tracedir/record.trace" || {
    echo "the 1-worker and 2-worker traces of one crawl differ" >&2
    exit 1
}
cmp "$tracedir/serial.bundle" "$tracedir/scan.bundle" || {
    echo "the 1-worker and 2-worker bundles of one crawl differ" >&2
    exit 1
}
# storage faults key on the write's page position, never on the shard, so a
# faulted recording is the same bytes at any worker count too
for w in 1 2 3; do
    "$tracedir/wpmscan" -sites 60 -subpages 1 -faults default -workers "$w" \
        -record-bundle "$tracedir/faulted$w.bundle" >/dev/null 2>&1
done
for w in 2 3; do
    cmp "$tracedir/faulted1.bundle" "$tracedir/faulted$w.bundle" || {
        echo "the 1-worker and $w-worker bundles of one faulted crawl differ" >&2
        exit 1
    }
done
rm -rf "$tracedir"

echo "== minjs FuzzRun (hostile scripts: no panic, interrupt-or-complete, deterministic)"
go test -run '^$' -fuzz '^FuzzRun$' -fuzztime 10s -parallel 2 ./internal/minjs

# minimising a kilobyte-sized JSON input is quadratic in its length; at the
# default 60 s per input the fuzzer would spend its whole budget minimising
echo "== bundle FuzzUnmarshal (hostile archives: decode+verify never panics; verified bundles re-marshal to the same digest)"
go test -run '^$' -fuzz '^FuzzUnmarshal$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2 ./internal/bundle

echo "== wal FuzzScan (hostile segments: Scan and RecoverShard never panic; longest intact prefix or a typed error; Scan is deterministic)"
go test -run '^$' -fuzz '^FuzzScan$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2 ./internal/wal

echo "== daemon FuzzCanonicalize (hostile job specs: no panic; canonical specs are fixed points with the same content address)"
go test -run '^$' -fuzz '^FuzzCanonicalize$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2 ./internal/daemon

echo "== quickstart (record, replay, panic if the replayed JS tallies diverge)"
go run ./examples/quickstart >/dev/null

echo "== wpmbundle smoke (record, replay re-recorded, verify both)"
bundledir=$(mktemp -d)
go run ./cmd/wpmbundle record -sites 6 -subpages 1 -faults default -out "$bundledir/crawl.json" >/dev/null 2>&1
go run ./cmd/wpmbundle replay -in "$bundledir/crawl.json" -variant stealth -out "$bundledir/replay.json" >/dev/null 2>&1
go run ./cmd/wpmbundle verify -in "$bundledir/crawl.json" >/dev/null
go run ./cmd/wpmbundle verify -in "$bundledir/replay.json" >/dev/null
rm -rf "$bundledir"

# the whole repo under the race detector; experiments' full synthetic-web
# crawls are gated behind -short (several minutes each under race) — set
# WPM_FULL_RACE=1 for the long tier
if [ "${WPM_FULL_RACE:-0}" = 1 ]; then
    echo "== go test -race ./... (full, WPM_FULL_RACE=1)"
    go test -race ./...
else
    echo "== go test -race -short ./..."
    go test -race -short ./...
fi

# cmd/wpmbench is a module of its own, so `go test ./...` above skips it;
# its tests check the storage and bundle golden digests of every benchmark
# workload
echo "== (cd cmd/wpmbench && go test ./...) (benchmark workloads match their golden digests)"
(cd cmd/wpmbench && go test ./...)

echo "== go vet ./internal/telemetry"
go vet ./internal/telemetry

echo "== telemetry overhead benchmark (smoke)"
# go test passes when -bench matches nothing, so demand a result line
bench_out=$(go test -run '^$' -bench TelemetryOverhead -benchtime 100x ./internal/telemetry)
echo "$bench_out"
echo "$bench_out" | grep -q '^BenchmarkTelemetryOverhead' || {
    echo "telemetry overhead smoke ran no benchmark; the -bench pattern matches nothing" >&2
    exit 1
}

echo "verify: OK"
