package minjs

import (
	"reflect"
	"testing"
)

// fuzzStepLimit keeps every fuzz execution short; hostile loops must stop
// with an *InterruptError at this budget.
const fuzzStepLimit = 20_000

// FuzzRun feeds arbitrary source through parse, compile and run. Its seed
// corpus (testdata/fuzz/FuzzRun) holds the engine golden's programs. For
// every input that parses:
//   - nothing panics;
//   - the run completes — normally, with an uncaught JS throw, or with the
//     frozen toplevel break/continue leak — or stops with *InterruptError;
//   - two fresh realms agree on all six observable channels.
func FuzzRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src, "fuzz.js")
		if err != nil {
			return
		}
		Compile(prog)
		a, err := runOutcome(prog, fuzzStepLimit)
		switch err.(type) {
		case nil, *Throw, *InterruptError:
		default:
			if err != errBreak && err != errContinue {
				t.Fatalf("run ended with %T %v\nsrc:\n%s", err, err, src)
			}
		}
		if b, _ := runOutcome(prog, fuzzStepLimit); !reflect.DeepEqual(a, b) {
			t.Fatalf("fresh realms disagree\nsrc:\n%s\n first: %+v\nsecond: %+v", src, a, b)
		}
	})
}
