.PHONY: verify test build vet race fmt lint telemetry-demo daemon-smoke

verify: ## gofmt + vet + build + wpmlint + race-enabled tests
	./scripts/verify.sh

lint: ## wpmlint reliability invariants over the crawl-path packages
	go run ./cmd/wpmlint ./internal/...

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
