package minjs

import (
	"errors"
	"slices"
	"sync"
	"testing"
)

// newTemplate freezes a fresh minjs realm, the one every host realm starts
// from.
func newTemplate(t testing.TB) *Template {
	t.Helper()
	tpl, err := NewTemplate(New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

// A stamp of a fresh realm is the fresh realm: the same graph, counters and
// step and alloc counts.
func TestStampEqualsNew(t *testing.T) {
	it, _ := newTemplate(t).Stamp(nil)
	want := New()
	if it.GraphDigest() != want.GraphDigest() {
		t.Error("a stamp's graph differs from a fresh realm's")
	}
	if !slices.Equal(it.Counters(), want.Counters()) {
		t.Error("a stamp's object counters differ from a fresh realm's")
	}
	if it.Steps() != want.Steps() || it.Allocs() != want.Allocs() {
		t.Errorf("steps %d, allocs %d; a fresh realm has %d, %d", it.Steps(), it.Allocs(), want.Steps(), want.Allocs())
	}
}

// The built-ins that keep per-realm state act on the stamp they are called
// from: Math.random draws from the stamp's generator, and an Error
// constructor called without new builds on the stamp's prototype.
func TestStampBuiltinsActOnTheirOwnRealm(t *testing.T) {
	tpl := newTemplate(t)
	it, _ := tpl.Stamp(nil)
	it.Reseed(7)
	want := New()
	want.Reseed(7)
	const draw = "Math.random() + ',' + Math.random()"
	got, err := it.RunScript(draw, "t.js")
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := want.RunScript(draw, "t.js"); got.ToString() != w.ToString() {
		t.Errorf("a reseeded stamp draws %s, a reseeded fresh realm %s", got.ToString(), w.ToString())
	}
	v, err := it.RunScript("Object.getPrototypeOf(TypeError('m')) === TypeError.prototype", "t.js")
	if err != nil || !v.Truthy() {
		t.Errorf("TypeError() without new does not build on the stamp's prototype (%v)", err)
	}
}

// A template refuses what a stamp cannot copy.
func TestNewTemplateRefuses(t *testing.T) {
	cases := []struct {
		name  string
		setup func(it *Interp)
	}{
		{"script function", func(it *Interp) { it.RunScript("var f = function () {};", "t.js") }},
		{"console output", func(it *Interp) { it.RunScript("console.log(1);", "t.js") }},
		{"Math.random draw", func(it *Interp) { it.RunScript("Math.random();", "t.js") }},
		{"foreign host", func(it *Interp) { it.Global.Host = "elsewhere" }},
		{"other realm", func(it *Interp) { it.Global.Host = New() }},
		{"unreachable host object", func(it *Interp) { it.Global.Host = NewObject(nil) }},
	}
	for _, c := range cases {
		it := New()
		c.setup(it)
		if _, err := NewTemplate(it, "host"); err == nil {
			t.Errorf("%s: NewTemplate succeeded", c.name)
		}
	}
}

// Extra roots and host values: a stamp returns copies of the extra roots,
// and every Host field that held the template's host holds the stamp's.
func TestStampRootsAndHost(t *testing.T) {
	type host struct{ name string }
	src, tplHost := New(), &host{"template"}
	extra := src.NewArrayP(String("x"))
	fn := src.NewNative("f", func(it *Interp, this Value, args []Value) (Value, error) {
		return String(it.Callee().Host.(*host).name), nil
	})
	fn.Host = tplHost
	src.Global.SetNonEnum("f", ObjectValue(fn))
	tpl, err := NewTemplate(src, tplHost, extra)
	if err != nil {
		t.Fatal(err)
	}
	it, roots := tpl.Stamp(&host{"stamp"})
	if len(roots) != 1 || roots[0] == extra || len(roots[0].Elems) != 1 || roots[0].Elems[0].Str != "x" {
		t.Fatalf("extra roots = %v, want a copy of the array", roots)
	}
	if v, err := it.RunScript("f()", "t.js"); err != nil || v.Str != "stamp" {
		t.Errorf("f() = %v, %v; want the stamp's host", v, err)
	}
}

// Stamps of one template share nothing a script can change: several
// goroutines stamp and mutate at once (run with -race), and every stamp
// starts out identical.
func TestConcurrentStamps(t *testing.T) {
	tpl := newTemplate(t)
	first, _ := tpl.Stamp(nil)
	want := first.GraphDigest()
	const script = `Object.prototype.extra = 1; Array.prototype.push.call([], 1);
var a = [1, 2]; a.push(3); Math.abs.name; delete JSON.parse; Object.freeze(Math);
String.prototype.x = function () { return 1; }; TypeError("m"); Math.random();`
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				it, _ := tpl.Stamp(nil)
				if it.GraphDigest() != want {
					errs <- errStampDiffers
					return
				}
				if _, err := it.RunScript(script, "t.js"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if it, _ := tpl.Stamp(nil); it.GraphDigest() != want {
		t.Error("stamping and running script changed the template")
	}
}

var errStampDiffers = errors.New("a stamp's graph differs from the first stamp's")

// BenchmarkStamp measures stamping a fresh minjs realm, against
// BenchmarkInterpreter's construction.
func BenchmarkStamp(b *testing.B) {
	tpl := newTemplate(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tpl.Stamp(nil)
	}
}
