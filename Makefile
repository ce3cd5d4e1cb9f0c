.PHONY: verify test build vet race fmt lint lint-fix telemetry-demo daemon-smoke

verify: ## gofmt + vet + build + wpmlint + race-enabled tests
	./scripts/verify.sh

lint: ## wpmlint reliability invariants over the crawl-path packages (baselined)
	go run ./cmd/wpmlint -baseline .wpmlint-baseline.json ./internal/...

lint-fix: ## apply wpmlint's mechanical autofixes, then gofmt the result
	go run ./cmd/wpmlint -fix ./internal/... || true
	gofmt -l -w ./internal

daemon-smoke: ## wpmd end-to-end: start, submit, cache hit, metrics, drain
	go run ./cmd/wpmd -smoke -dir $$(mktemp -d)/state

telemetry-demo: ## quickstart crawl with metrics + span trace on stdout
	go run ./examples/quickstart -telemetry - -trace -

build:
	go build ./...

vet:
	go vet ./...

fmt:
	gofmt -l -w .

test:
	go test ./...

race:
	go test -race ./...
