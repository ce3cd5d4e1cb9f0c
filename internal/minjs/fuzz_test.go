package minjs

import (
	"fmt"
	"reflect"
	"slices"
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

// FuzzImage checks that an image reproduces a run, and a template a realm.
// Its seeds are TestImageReplaysProgram's programs and the engine golden's.
// Every realm runs at fuzzStepLimit. For every input that parses:
//   - nothing panics;
//   - Record either fails, or its image instantiates into a fresh realm,
//     which then has the graph, object counters, steps and allocs of a
//     realm that ran the program;
//   - NewTemplate of that realm either refuses, or its stamp has the
//     realm's graph, object counters, steps and allocs.
func FuzzImage(f *testing.F) {
	for _, src := range imageCases {
		f.Add(src)
	}
	for _, c := range goldenCases(f) {
		f.Add(c.Src)
	}
	realm := func() *Interp {
		it := imageRealm()
		it.StepLimit = fuzzStepLimit
		return it
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src, "fuzz.js")
		if err != nil {
			return
		}
		Compile(prog)
		img, err := realm().Record(prog)
		if err != nil {
			return
		}
		inst, ran := realm(), realm()
		if !inst.Instantiate(img) {
			t.Fatalf("Instantiate refused a fresh realm\nsrc:\n%s", src)
		}
		if _, err := ran.RunProgram(prog); err != nil {
			t.Fatalf("Record succeeded where a run fails: %v\nsrc:\n%s", err, src)
		}
		want := observe(ran)
		if msg := observe(inst).differs(want); msg != "" {
			t.Fatalf("instantiated realm and run differ: %s\nsrc:\n%s", msg, src)
		}
		tpl, err := NewTemplate(ran, nil)
		if err != nil {
			return
		}
		stamped, _ := tpl.Stamp(nil)
		if msg := want.differs(observe(stamped)); msg != "" {
			t.Fatalf("stamp and run differ: %s\nsrc:\n%s", msg, src)
		}
	})
}

// observed is what FuzzImage compares between two realms.
type observed struct {
	digest        [32]byte
	counters      []ObjectCounters
	steps, allocs int64
}

func observe(it *Interp) observed {
	return observed{it.GraphDigest(), it.Counters(), it.Steps(), it.Allocs()}
}

// differs names the first of the four that differs, or returns "".
func (a observed) differs(b observed) string {
	switch {
	case a.digest != b.digest:
		return "graph digest"
	case !slices.Equal(a.counters, b.counters):
		return "object counters"
	case a.steps != b.steps:
		return fmt.Sprintf("steps %d and %d", a.steps, b.steps)
	case a.allocs != b.allocs:
		return fmt.Sprintf("allocs %d and %d", a.allocs, b.allocs)
	}
	return ""
}
