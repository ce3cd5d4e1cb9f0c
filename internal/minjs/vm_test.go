package minjs

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// The engine's behaviour is pinned by testdata/engine.golden.json, frozen
// from the reference tree-walking interpreter. Each test below replays one
// group of frozen cases; see golden_test.go for the six recorded channels.

// TestVMDifferentialCorpus replays the corpus exercising every statement and
// expression form plus the frozen quirks.
func TestVMDifferentialCorpus(t *testing.T) { checkGroup(t, "corpus") }

// TestVMStepLimitParity pins interrupt behaviour: the engine stops at the
// frozen step count with the frozen error.
func TestVMStepLimitParity(t *testing.T) { checkGroup(t, "steplimit") }

// TestVMStringConcatPenaltyParity pins the proportional step cost of large
// string concatenations.
func TestVMStringConcatPenaltyParity(t *testing.T) { checkGroup(t, "concat") }

// TestVMStackTraceParity pins CaptureStack-visible state (frame names,
// scripts, line numbers) via Error().stack observed in-script.
func TestVMStackTraceParity(t *testing.T) { checkGroup(t, "stack") }

// TestVMCompletionValues pins the toplevel completion value, including the
// clears for non-expression statements.
func TestVMCompletionValues(t *testing.T) { checkGroup(t, "completion") }

// TestVMToplevelBreakLeak pins the frozen quirk where a toplevel
// break/continue leaks an internal sentinel error out of RunProgram.
func TestVMToplevelBreakLeak(t *testing.T) { checkGroup(t, "break") }

// TestVMScopePoolingReuse hammers pooled call scopes through deep recursion
// with interleaved closures (unpoolable) to catch recycled-scope corruption.
func TestVMScopePoolingReuse(t *testing.T) { checkGroup(t, "pooling") }

// TestVMQuickExpressions replays random arithmetic/comparison expression
// trees generated from a fixed seed.
func TestVMQuickExpressions(t *testing.T) { checkGroup(t, "quick") }

// TestVMSharedCodeConcurrent runs one compiled Program on many interpreters
// concurrently — the shared-cache shape. Codes must be immutable at runtime
// (inline caches live per-realm), so this is race-detector food.
func TestVMSharedCodeConcurrent(t *testing.T) {
	c := goldenGroup(t, "shared")[0]
	prog := Compile(MustParse(c.Src, "case.js"))
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got, _ := runOutcome(prog, c.StepLimit); !reflect.DeepEqual(got, c.outcome) {
					errs <- fmt.Sprintf("outcome %+v, golden %+v", got, c.outcome)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
