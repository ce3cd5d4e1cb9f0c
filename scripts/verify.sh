#!/bin/sh
# Full verification: vet, build, wpmlint (repo run + self-tests + SARIF
# smoke), the daemon's event-stream test three times and its admission and
# drain tests five times under race, the realm stamp and image tests ten
# times under race, CLI smokes and fuzzers, then every
# package's tests under the race detector in one run
# (the WAL kill-and-recover tests included). Only the experiments package
# reads -short: its full synthetic-web crawls are skipped in that mode; set
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

# a test that fails under -count=N is a bug, not noise: the event stream's
# gap-free replay must hold on every repetition
echo "== go test -race -count=3 -run TestJobEventStreamSSE ./internal/daemon (event stream replays without gaps)"
go test -race -count=3 -run TestJobEventStreamSSE ./internal/daemon

# admission, drain and the executors share the daemon's one mutex; their
# ordering must hold on every repetition, not by timing
echo "== go test -race -count=5 -run 'Admission|Drain|Submit|Queue' ./internal/daemon (admission and drain under race)"
go test -race -count=5 -run 'Admission|Drain|Submit|Queue' ./internal/daemon

# every shard stamps the same templates at once, and stamps and instrument
# installs run one materialiser: the copy must hold on every repetition
echo "== go test -race -count=10 -run 'TestConcurrentStamps|TestStamp|TestImage|TestInstantiate|TestLazy' ./internal/minjs (stamps, image installs and lazy functions under race)"
go test -race -count=10 -run 'TestConcurrentStamps|TestStamp|TestImage|TestInstantiate|TestLazy' ./internal/minjs

echo "== wpmd smoke (start, submit, poll, artifact, digest-identical cache hit, metrics, drain)"
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
go run ./cmd/wpmd -smoke -dir "$smokedir/state" >/dev/null 2>&1 || {
    echo "wpmd -smoke failed; rerun without redirection for detail" >&2
    exit 1
}

echo "== wpmtrace smoke (record a traced crawl, analyse it, replay at 1-3 workers, demand empty trace diffs; faulted, metrics-embedding and WAL-recovered bundles cmp-equal)"
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
# tamper telemetry is counted once per crawl from the merged table, so a
# bundle that embeds its metrics is the same bytes at any worker count, even
# when two shards analyse the same script body (world seed 13 has one)
for w in 1 2; do
    "$tracedir/wpmscan" -sites 20 -subpages 1 -seed 13 -workers "$w" \
        -record-bundle "$tracedir/metrics$w.bundle" -trace "$tracedir/metrics$w.trace" >/dev/null 2>&1
done
cmp "$tracedir/metrics1.bundle" "$tracedir/metrics2.bundle" || {
    echo "the 1-worker and 2-worker bundles of one traced crawl (metrics embedded) differ" >&2
    exit 1
}
# a bundle is cut from the storage tables at each visit's end, so a faulted
# recording onto per-shard WALs, and the same logs recovered, seal the bytes
# of a memory-only recording
"$tracedir/wpmscan" -sites 40 -subpages 1 -workers 2 -faults default \
    -record-bundle "$tracedir/memory.bundle" >/dev/null 2>&1
"$tracedir/wpmscan" -sites 40 -subpages 1 -workers 2 -faults default -store wal -wal-dir "$tracedir/wal" \
    -record-bundle "$tracedir/wal.bundle" >/dev/null 2>&1
"$tracedir/wpmscan" -sites 40 -subpages 1 -workers 2 -faults default -store wal -wal-dir "$tracedir/wal" \
    -recover -record-bundle "$tracedir/recovered.bundle" >/dev/null 2>&1
for b in wal recovered; do
    cmp "$tracedir/memory.bundle" "$tracedir/$b.bundle" || {
        echo "the $b bundle of a faulted 40-site crawl differs from its memory-only recording" >&2
        exit 1
    }
done
rm -rf "$tracedir"

echo "== minjs FuzzRun (hostile scripts: no panic, interrupt-or-complete, deterministic)"
go test -run '^$' -fuzz '^FuzzRun$' -fuzztime 10s -parallel 2 ./internal/minjs

echo "== minjs FuzzImage (hostile scripts: a recorded image installs into a fresh realm as the run left it; a template's stamp equals its realm)"
go test -run '^$' -fuzz '^FuzzImage$' -fuzztime 10s -parallel 2 ./internal/minjs

echo "== jsdom FuzzUntouched (hostile parent scripts: a child realm whose graph digest changed is never untouched; reads leave it untouched)"
go test -run '^$' -fuzz '^FuzzUntouched$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2 ./internal/jsdom

# minimising a kilobyte-sized JSON input is quadratic in its length; at the
# default 60 s per input the fuzzer would spend its whole budget minimising
echo "== bundle FuzzUnmarshal (hostile archives: decode+verify never panics; verified bundles re-marshal to the same digest)"
go test -run '^$' -fuzz '^FuzzUnmarshal$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2 ./internal/bundle

echo "== bundle FuzzEncode (every decodable archive: the canonical encoder writes json.MarshalIndent's bytes, digest set and blanked)"
go test -run '^$' -fuzz '^FuzzEncode$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2 ./internal/bundle

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

echo "== telemetry overhead benchmark (smoke)"
# go test passes when -bench matches nothing, so demand a result line
bench_out=$(go test -run '^$' -bench TelemetryOverhead -benchtime 100x ./internal/telemetry)
echo "$bench_out"
echo "$bench_out" | grep -q '^BenchmarkTelemetryOverhead' || {
    echo "telemetry overhead smoke ran no benchmark; the -bench pattern matches nothing" >&2
    exit 1
}

echo "verify: OK"
