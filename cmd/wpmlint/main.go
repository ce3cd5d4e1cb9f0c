// Command wpmlint enforces the repo's reliability invariants over the
// crawl-path packages: the determinism family (wall clocks, unseeded
// randomness, map-order serialisation, dropped Close errors, untimed servers,
// unpaired spans) and the concurrency family (goroutine leaks, ignored
// contexts, inconsistent locking, swallowed errors, blocking fan-out sends).
//
// Usage:
//
//	wpmlint ./internal/...
//	wpmlint -format sarif ./internal/... > findings.sarif
//
// Every run applies every rule to the non-test files of the named packages.
// A finding is tolerated only by an inline `//lint:ignore <rule> <why>`.
//
// Exit codes: 0 clean, 1 findings, 2 usage error, 3 load failure (a package
// that cannot be loaded, or a pattern that matches none, is an error, never a
// silent clean run). Pattern arguments ending in /... walk recursively but
// skip testdata trees; naming a testdata directory explicitly lints it (the
// fixture self-test relies on this). All logic lives in internal/lint.Main so
// the test suite drives the exact CLI surface.
package main

import (
	"os"

	"gullible/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
