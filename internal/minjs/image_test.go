package minjs

import (
	"slices"
	"testing"
)

// imageRealm is a fresh realm with one host-defined enumerable global, so
// programs can overwrite a pre-existing property in place.
func imageRealm() *Interp {
	it := New()
	it.Global.Set("pre", Int(1))
	return it
}

// imageCases are programs whose effect an image can record: globals,
// closures, accessors, reordered and rewritten keys, arrays, bound this,
// deletions, and keys written more than once or written back.
var imageCases = map[string]string{
	"globals":  `var x = 1; function f() { return x; }`,
	"closures": `(function () { var n = 0; Object.prototype.counter = function () { return ++n; }; })();`,
	"accessor": `(function () { var hits = []; Object.defineProperty(Math, "PI", {get: function () { hits.push(1); return 3; }, configurable: true}); })();`,
	"reorder":  `delete Math.floor; Math.floor = 2; var after = 1;`,
	"inplace":  `pre = 2;`,
	"elements": `var arr = [1, {a: 2}, "s", Math, [Math.max]];`,
	"thisval":  `var g = (() => this); var h = function () { return g; };`,
	"deleted":  `delete this.pre; var later = {pre: 3};`,
	"rewrites": `var i = 0; i++; i++;`,
	"restored": `pre = 5; pre = 1;`,
}

// counterOnlyCases name the imageCases whose effect only Counters() sees:
// a key written and then restored leaves the graph as it was.
var counterOnlyCases = map[string]bool{"restored": true}

// An instantiated image must leave a realm indistinguishable from one that
// ran the program: same reachable graph, the same object counters and the
// same step and alloc counters.
func TestImageReplaysProgram(t *testing.T) {
	for name, src := range imageCases {
		t.Run(name, func(t *testing.T) {
			prog := Compile(MustParse(src, name+".js"))
			rec := imageRealm()
			img, err := rec.Record(prog)
			if err != nil {
				t.Fatal(err)
			}
			ran := imageRealm()
			if _, err := ran.RunProgram(prog); err != nil {
				t.Fatal(err)
			}
			inst := imageRealm()
			if !inst.Instantiate(img) {
				t.Fatal("Instantiate refused a fresh realm")
			}
			if a, b := inst.GraphDigest(), ran.GraphDigest(); a != b {
				t.Error("instantiated realm differs from one that ran the program")
			}
			if !slices.Equal(inst.Counters(), ran.Counters()) {
				t.Error("instantiated realm's object counters differ from one that ran the program")
			}
			if rec.GraphDigest() != ran.GraphDigest() {
				t.Error("recording changed the effect of the run")
			}
			if inst.Steps() != ran.Steps() || inst.Allocs() != ran.Allocs() {
				t.Errorf("counters: instantiated steps %d allocs %d, ran steps %d allocs %d",
					inst.Steps(), inst.Allocs(), ran.Steps(), ran.Allocs())
			}
			fresh := imageRealm()
			if counterOnlyCases[name] {
				if slices.Equal(fresh.Counters(), ran.Counters()) {
					t.Error("the counters do not see the program's effect")
				}
			} else if fresh.GraphDigest() == ran.GraphDigest() {
				t.Error("the digest does not see the program's effect")
			}
		})
	}
}

// Closures cloned from one image into two realms share no mutable state.
func TestImageClonesAreIndependent(t *testing.T) {
	img, err := imageRealm().Record(Compile(MustParse(`var n = 0; Object.prototype.bump = (function () { var c = 0; return function () { return ++c; }; })();`, "c.js")))
	if err != nil {
		t.Fatal(err)
	}
	a, b := imageRealm(), imageRealm()
	if !a.Instantiate(img) || !b.Instantiate(img) {
		t.Fatal("Instantiate refused a fresh realm")
	}
	for i := 0; i < 3; i++ {
		if _, err := a.RunScript(`bump()`, "a.js"); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := b.RunScript(`bump()`, "b.js"); err != nil || v.Num != 1 {
		t.Errorf("second realm's counter = %v, %v; want 1", v.ToString(), err)
	}
}

func TestRecordRefusesWhatImagesCannotReplay(t *testing.T) {
	cases := map[string]string{
		"random":  `var r = Math.random();`,
		"console": `console.log("x");`,
		"native":  `var b = Math.max.bind(Math);`,
		"throws":  `null.x;`,
	}
	for name, src := range cases {
		if _, err := imageRealm().Record(Compile(MustParse(src, name+".js"))); err == nil {
			t.Errorf("%s: Record succeeded", name)
		}
	}
}

// A realm whose structure no longer matches the recording is refused and
// left exactly as it was.
func TestInstantiateRefusesChangedRealm(t *testing.T) {
	img, err := imageRealm().Record(Compile(MustParse(`Math.twice = function (x) { return Math.max(x, x) * 2; }; var keep = Math.max;`, "m.js")))
	if err != nil {
		t.Fatal(err)
	}
	it := imageRealm()
	if _, err := it.RunScript(`Math.max = function () { return 0; };`, "page.js"); err != nil {
		t.Fatal(err)
	}
	before := it.GraphDigest()
	if it.Instantiate(img) {
		t.Fatal("Instantiate accepted a realm whose Math.max is no longer the native")
	}
	if it.GraphDigest() != before {
		t.Error("a refused Instantiate changed the realm")
	}
	hooked := imageRealm()
	hooked.PropAccessHook = func(*Object, string) {}
	if hooked.Instantiate(img) {
		t.Error("Instantiate accepted a realm with an access hook")
	}
	tight := imageRealm()
	tight.StepLimit = 1
	if tight.Instantiate(img) {
		t.Error("Instantiate accepted a realm whose step limit interrupts the program")
	}
}
