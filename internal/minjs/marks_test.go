package minjs

import "testing"

// MarkWrites must mark exactly what GraphDigest walks, or a write the
// digest sees could land on an object the seal never marked.
func TestMarkWritesReachesWhatGraphDigestWalks(t *testing.T) {
	it := New()
	src := `var o = {a: [1, {b: 2}], f: function () { return n; }};
var n = 0;
var mk = function (x) { var y = [x]; return function () { y.push(1); return x; }; };
var c = mk({deep: {er: 1}});
var arrow = (function () { return () => this; }).call({bound: {x: 1}});
Object.defineProperty(o, "acc", {get: function () { return {g: 1}; }, set: function (v) {}});
Object.setPrototypeOf(o, {proto: {p: 1}});
var many = {}; for (var i = 0; i < 20; i++) { many["k" + i] = {i: i}; }`
	if _, err := it.RunScript(src, "marks.js"); err != nil {
		t.Fatal(err)
	}
	g := walkRealm(it)
	m := it.MarkWrites()
	objs := map[*Object]bool{}
	for _, om := range m.objs {
		objs[om.o] = true
	}
	scopes := map[*Scope]bool{}
	for _, sm := range m.scopes {
		scopes[sm.s] = true
	}
	if len(objs) != len(m.objs) || len(scopes) != len(m.scopes) {
		t.Fatal("MarkWrites marked an object or scope twice")
	}
	if len(objs) != len(g.objs) || len(scopes) != len(g.scopes) {
		t.Fatalf("MarkWrites marked %d objects and %d scopes, GraphDigest walks %d and %d", len(objs), len(scopes), len(g.objs), len(g.scopes))
	}
	for _, o := range g.objs {
		if !objs[o] {
			t.Fatalf("MarkWrites missed a %s object GraphDigest walks", o.Class)
		}
	}
	for _, s := range g.scopes {
		if !scopes[s] {
			t.Fatal("MarkWrites missed a scope GraphDigest walks")
		}
	}
	if !m.Unchanged() {
		t.Fatal("marks changed with no write")
	}
	if _, err := it.RunScript("c();", "write.js"); err != nil {
		t.Fatal(err)
	}
	if m.Unchanged() {
		t.Error("a push into an array only a closure scope holds left the marks unchanged")
	}
}

// A counter stops at maxWrites instead of wrapping back to a value a seal
// holds, and a seal that finds a stopped counter never reports unchanged.
func TestWriteCountersSaturate(t *testing.T) {
	it := New()
	it.Global.writes = maxWrites - 1
	it.Global.Set("x", Int(1))
	it.Global.Set("x", Int(2))
	if it.Global.writes != maxWrites {
		t.Fatalf("writes = %d after two writes from maxWrites-1, want maxWrites", it.Global.writes)
	}
	if m := it.MarkWrites(); m.Unchanged() {
		t.Error("marks over a stopped counter report unchanged")
	}
}
