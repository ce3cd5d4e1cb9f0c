package minjs

import (
	"math/rand"
	"slices"
	"testing"
)

// wrapperProgram installs what an instrument installs: wrappers around
// natives that close over the originals, accessors on a prototype,
// closures that name one another through their scope, an arrow function
// with a bound this, and a script function's prototype object.
const wrapperProgram = `(function () {
	var log = [];
	function wrap(obj, name) {
		var orig = obj[name];
		Object.defineProperty(obj, name, {value: function (a, b) { log.push(name); return orig(a, b); }, writable: true, configurable: true});
	}
	wrap(Math, "max"); wrap(Math, "min"); wrap(JSON, "stringify");
	Object.defineProperty(Array.prototype, "first", {
		get: function () { return this[0]; },
		set: function (v) { log.push(v); },
		configurable: true
	});
	var helpers = {a: function () { return helpers.b(); }, b: () => this};
	function Ctor() { this.n = log.length; }
	Ctor.prototype.count = function () { return log.length; };
	this.instrumented = {helpers: helpers, Ctor: Ctor, read: function () { return helpers.a(); }};
})();`

// lazyCases are the programs TestLazyForceOrder installs from an image; ""
// installs nothing.
func lazyCases() map[string]string {
	cases := map[string]string{"stamp only": "", "wrappers": wrapperProgram,
		// an in-place write keeps the object's version, so Instantiate
		// makes the wrapper it stores there, and with it the cluster
		"wrapper written in place": `(function () { var orig = Math.abs; var other = function () { return 1; }; Math.abs = function (x) { return orig(x) + other(); }; })();`}
	for name, src := range imageCases {
		cases[name] = src
	}
	return cases
}

// lazyRealm stamps an imageRealm and installs src's image into it; want is
// an imageRealm, built without templates or images, that ran src.
func lazyRealm(t *testing.T, tpl *Template, src string) (got, want *Interp) {
	t.Helper()
	got, _ = tpl.Stamp(nil)
	want = imageRealm()
	if src == "" {
		return got, want
	}
	prog := Compile(MustParse(src, "lazy.js"))
	img, err := imageRealm().Record(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Instantiate(img) {
		t.Fatal("Instantiate refused a fresh stamp")
	}
	if _, err := want.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	return got, want
}

func imageTemplate(t testing.TB) *Template {
	t.Helper()
	tpl, err := NewTemplate(imageRealm(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

type slotRef struct {
	o   *Object
	key string
}

// lazySlots lists the property slots still lazy on every object the
// realm's copies made or were given, reading them without forcing them.
func lazySlots(it *Interp) []slotRef {
	var out []slotRef
	seen := map[*Object]bool{}
	visit := func(o *Object) {
		if o == nil || seen[o] {
			return
		}
		seen[o] = true
		for _, k := range o.OwnKeys(false) {
			if p, ok := o.ownSlot(k); ok && p.Value.Kind == kindLazy {
				out = append(out, slotRef{o, k})
			}
		}
	}
	for _, c := range it.lazy {
		for _, o := range c.out {
			visit(o)
		}
		for i := range c.objs {
			visit(&c.objs[i])
		}
		for _, o := range c.fns {
			visit(o)
		}
	}
	return out
}

// forceInOrder makes every lazy slot in a first-touch order drawn from rng:
// a key read, or a walk of one object's own properties. A seal taken along
// the way must make nothing.
func forceInOrder(t *testing.T, it *Interp, rng *rand.Rand) {
	t.Helper()
	for {
		slots := lazySlots(it)
		if len(slots) == 0 {
			return
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		for _, s := range slots[:1+len(slots)/3] {
			switch rng.Intn(4) {
			case 0:
				s.o.eachOwn(func(string, *Property) {})
			case 1:
				made, deferred := it.LazyFunctions()
				it.MarkWrites()
				if m, d := it.LazyFunctions(); m != made || d != deferred {
					t.Fatalf("MarkWrites made %d functions", m-made)
				}
				s.o.lookupOwn(s.key)
			default:
				s.o.lookupOwn(s.key)
			}
		}
	}
}

// Laziness is invisible: a stamp, with or without an image installed in
// it, whose slots are forced in any order ends up with the graph, object
// counters and step and alloc counters of a realm built by running its
// construction code and its program, and every function slot becomes one
// object however many routes reach it.
func TestLazyForceOrder(t *testing.T) {
	tpl := imageTemplate(t)
	for name, src := range lazyCases() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				got, want := lazyRealm(t, tpl, src)
				if made, deferred := got.LazyFunctions(); deferred == 0 {
					t.Fatalf("nothing deferred (%d made)", made)
				}
				forceInOrder(t, got, rand.New(rand.NewSource(seed)))
				// every native of a bare stamp hangs off some slot; a
				// program may delete the only slot naming one
				if _, deferred := got.LazyFunctions(); deferred != 0 && src == "" {
					t.Errorf("seed %d: %d functions of a stamp no slot names", seed, deferred)
				}
				if msg := observe(got).differs(observe(want)); msg != "" {
					t.Fatalf("seed %d: forced realm and built realm differ: %s", seed, msg)
				}
			}
		})
	}
}

// Instantiate makes no function of its image and, of the stamp's, only
// the natives its refs name.
func TestLazyInstantiateMakesOnlyRefs(t *testing.T) {
	it, _ := imageTemplate(t).Stamp(nil)
	img, err := imageRealm().Record(Compile(MustParse(wrapperProgram, "lazy.js")))
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]*Object, len(img.refs))
	for i := range img.refs {
		slots[i] = img.refs[i].resolve(it, slots)
	}
	refs, _ := it.LazyFunctions()
	if refs == 0 {
		t.Fatal("the image names no native, so this test checks nothing")
	}
	if !it.Instantiate(img) {
		t.Fatal("Instantiate refused a fresh stamp")
	}
	if made, _ := it.LazyFunctions(); made != refs {
		t.Errorf("Instantiate made %d functions beyond the %d natives its refs name", made-refs, refs)
	}
}

// The seal makes nothing and marks exactly what GraphDigest walks: the
// objects and scopes it reaches directly, plus those the unmade functions
// it reaches through their records turn into once made. Making them
// leaves the marks unchanged; a write to one made after the seal does not.
func TestLazyMarksReachWhatGraphDigestWalks(t *testing.T) {
	it, _ := lazyRealm(t, imageTemplate(t), wrapperProgram)
	made, deferred := it.LazyFunctions()
	m := it.MarkWrites()
	if a, b := it.LazyFunctions(); a != made || b != deferred {
		t.Fatalf("MarkWrites made %d functions", a-made)
	}
	g := walkRealm(it)
	objs, scopes := map[*Object]bool{}, map[*Scope]bool{}
	for _, om := range m.objs {
		objs[om.o] = true
	}
	for _, sm := range m.scopes {
		scopes[sm.s] = true
	}
	for _, l := range m.lazy {
		for _, id := range l.c.made[l.made:] {
			if id >= 0 {
				objs[l.c.fns[id]] = true
			} else {
				scopes[l.c.scopes[^id]] = true
			}
		}
	}
	if len(objs) != len(g.objs) || len(scopes) != len(g.scopes) {
		t.Fatalf("the seal covers %d objects and %d scopes, GraphDigest walks %d and %d", len(objs), len(scopes), len(g.objs), len(g.scopes))
	}
	for _, o := range g.objs {
		if !objs[o] {
			t.Fatalf("the seal missed a %s object GraphDigest walks", o.Class)
		}
	}
	for _, s := range g.scopes {
		if !scopes[s] {
			t.Fatal("the seal missed a scope GraphDigest walks")
		}
	}
	if !m.Unchanged() {
		t.Fatal("making functions after the seal changed its marks")
	}
	if _, err := it.RunScript("instrumented.read.x = 1;", "write.js"); err != nil {
		t.Fatal(err)
	}
	if m.Unchanged() {
		t.Error("a write to a function made after the seal left the marks unchanged")
	}
}

// A slot read twice is one object; the same slot of two stamps is two
// objects, each in its own realm's copy.
func TestLazyFunctionsArePerRealm(t *testing.T) {
	tpl := imageTemplate(t)
	a, _ := tpl.Stamp(nil)
	b, _ := tpl.Stamp(nil)
	fa, fb := a.Global.GetOwn("Object").Value.Obj, b.Global.GetOwn("Object").Value.Obj
	if fa == fb || fa != a.Global.GetOwn("Object").Value.Obj {
		t.Fatal("a slot forced twice, or in two realms, is not one object per realm")
	}
	if !slices.Contains(a.lazy[0].fns, fa) || slices.Contains(a.lazy[0].fns, fb) {
		t.Fatal("a realm's function is not in its own copy")
	}
}

// An in-place write keeps the object's version, so an inline cache that
// read the slot before Instantiate still hits after it. The slot must hold
// the made wrapper by then: a cache hit reads it without forcing it.
func TestLazyInPlaceWriteSurvivesInlineCaches(t *testing.T) {
	it, _ := imageTemplate(t).Stamp(nil)
	if _, err := it.RunScript("function rd() { return Math.abs; } rd(); rd();", "read.js"); err != nil {
		t.Fatal(err)
	}
	img, err := imageRealm().Record(Compile(MustParse(lazyCases()["wrapper written in place"], "w.js")))
	if err != nil {
		t.Fatal(err)
	}
	if !it.Instantiate(img) {
		t.Fatal("Instantiate refused the stamp")
	}
	v, err := it.RunScript("typeof rd() + ' ' + (rd() === Math.abs) + ' ' + rd()(-2)", "read.js")
	if err != nil {
		t.Fatal(err)
	}
	if got := v.ToString(); got != "function true 3" {
		t.Errorf("a cached read of the rewritten slot gives %q, want %q", got, "function true 3")
	}
}
