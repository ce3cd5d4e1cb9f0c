package jsdom

import (
	"strings"
	"testing"
)

// frameHost hands out one prebuilt realm for every frame and popup.
type frameHost struct {
	NopHost
	child *DOM
}

func (h *frameHost) CreateFrame(src string) (*DOM, error) { return h.child, nil }
func (h *frameHost) OpenWindow(url string) (*DOM, error)  { return h.child, nil }

// childSetup gives a child realm a plain object to write through, reachable
// from both its window and its document, with a long string and two
// closures over one captured variable: peek reads it, bump assigns it.
const childSetup = `var shared = {a: 1, list: [1, 2, 3], s: "` + longString + `"}; window.shared = shared; document.shared = shared;
(function () {
	var n = 0;
	shared.peek = function () { return n; };
	shared.bump = function () { n = n + 1; return n; };
})();`

// exposures are the four routes that hand a realm to script: get is a
// parent statement that binds the handed-out window or document to the
// global h, natives reads through the DOM natives h offers.
var exposures = []struct{ name, get, natives string }{
	{"contentWindow", iframe + "var h = f.contentWindow;", windowNatives},
	{"contentDocument", iframe + "var h = f.contentDocument;", "h.title; h.referrer; h.cookie;"},
	{"frames", iframe + "var h = frames[0];", windowNatives},
	{"window.open", `var h = open("https://child.example/");`, windowNatives},
}

const (
	longString    = "a string well over sixty-four bytes, so that its compare is by content"
	iframe        = `var f = document.createElement("iframe"); document.body.appendChild(f); `
	windowNatives = "h.navigator.userAgent; h.screen.width; h.navigator.javaEnabled();"
)

// Untouched must see every change script from another realm can make to
// a realm's objects, whichever route handed the realm out, and must not
// mistake reads for changes. Each route binds the handed-out window or
// document to h in the parent; the child's own setup script gives both a
// plain object to write through, so the writes read the same on every
// route. Every write case reaches the realm again afterwards: a second
// exposure must not re-seal over the change.
func TestUntouched(t *testing.T) {
	cases := []struct {
		name, src string
		untouched bool
	}{
		{"reads", "h.shared.a; h.shared.list[1]; h.shared.list.length; h.shared.hasOwnProperty('a'); Object.keys(h.shared);", true},
		// a child closure called from the parent runs on the parent's
		// interpreter but reads and writes the child's closure scope
		{"call a reading closure", "h.shared.peek();", true},
		{"call a closure that assigns a captured variable", "h.shared.bump();", false},
		{"new property", "h.shared.b = 2;", false},
		{"new property on the handle", "h.x = 1;", false},
		// an existing writable data property is overwritten in place: the
		// same *Property, no structural version bump
		{"overwrite", "h.shared.a = 5;", false},
		{"overwrite with the same value", "h.shared.a = 1;", true},
		// the parent's literal is a different string with the same bytes
		{"overwrite with the same long string", `h.shared.s = "` + longString + `";`, true},
		{"delete", "delete h.shared.a;", false},
		{"defineProperty", "Object.defineProperty(h.shared, 'a', {value: 1, writable: false});", false},
		{"defineProperty accessor", "Object.defineProperty(h.shared, 'c', {get: function () { return 1; }});", false},
		{"setPrototypeOf", "Object.setPrototypeOf(h.shared, null);", false},
		{"array element", "h.shared.list[0] = 9;", false},
		{"array element with the same value", "h.shared.list[0] = 1;", true},
		{"array push", "h.shared.list.push(4);", false},
		{"array pop", "h.shared.list.pop();", false},
		{"array reverse", "h.shared.list.reverse();", false},
		{"array sort", "h.shared.list.sort(function (x, y) { return y - x; });", false},
		{"length truncation", "h.shared.list.length = 1;", false},
		{"length unchanged", "h.shared.list.length = 3;", true},
		{"freeze", "Object.freeze(h.shared);", false},
		// the parent's object becomes reachable from the child's roots,
		// and the store that makes it so is itself a write
		{"store a parent object, then mutate it", "var mine = {v: 1}; h.shared.mine = mine; mine.v = 2;", false},
		// the seal counts writes, it does not compare graphs: a define
		// then a delete leaves every key, attribute and value as it was,
		// but both moved the object's counter, so the realm runs the
		// instrument script rather than the image. That is coarser, never
		// blinder, and the script and the image leave the same realm.
		{"define then delete", "h.shared.tmp = 1; delete h.shared.tmp;", false},
	}
	cfg := StandardConfig(Ubuntu, Regular, 90, 0)
	for _, r := range exposures {
		for _, c := range cases {
			t.Run(r.name+"/"+c.name, func(t *testing.T) {
				child := Build(cfg, &NopHost{}, "https://child.example/")
				evalIn(t, child, childSetup)
				parent := Build(cfg, &frameHost{child: child}, "https://parent.example/")
				if !child.Untouched() {
					t.Fatal("a realm never exposed is not untouched")
				}
				evalIn(t, parent, r.get+r.natives)
				if !child.Untouched() {
					t.Fatal("plain reads and native getter calls touched the realm")
				}
				evalIn(t, parent, r.get+c.src+r.get)
				if got := child.Untouched(); got != c.untouched {
					t.Errorf("Untouched() = %v after %q, want %v", got, c.src, c.untouched)
				}
			})
		}
	}
}

// Untouched sees only what its seal walked: objects and scopes reachable
// from the global object and the intrinsic prototypes, and the step and
// alloc counters. State held only by a native's Go closure, such as the array
// navigator.languages returns, is host state, which minjs.Interp.Record
// forbids a recorded program to depend on; a write there leaves the realm
// untouched as far as an instrument image is concerned.
func TestUntouchedIgnoresHostHeldState(t *testing.T) {
	cfg := StandardConfig(Ubuntu, Regular, 90, 0)
	child := Build(cfg, &NopHost{}, "https://child.example/")
	parent := Build(cfg, &frameHost{child: child}, "https://parent.example/")
	evalIn(t, parent, `var h = open("https://child.example/"); h.navigator.languages[0] = "xx";`)
	if !child.Untouched() {
		t.Error("a write to host-held state touched the realm")
	}
	if v := evalIn(t, child, "navigator.languages[0]"); v.ToString() != "xx" {
		t.Errorf("navigator.languages[0] = %q, want the parent's write", v.ToString())
	}
}

// fuzzOp is one statement of FuzzUntouched's grammar. $K, $V, $I and $P
// each take the next input byte as an index into their pool. A read leaves
// the child realm's graph as it was, whatever it draws.
type fuzzOp struct {
	src  string
	read bool
}

var (
	fuzzKeys   = []string{"a", "list", "peek", "bump", "tmp", "x", "0"}
	fuzzVals   = []string{"1", "2", "'s'", "null", "undefined", "h.shared", "h.shared.list", "{v: 1}", "0/0", "-0", "mine", "'" + strings.Repeat("x", 80) + "'"}
	fuzzIdx    = []string{"0", "1", "2", "5"}
	fuzzProtos = []string{"null", "{}", "Object.prototype", "h.Object.prototype", "h.shared.list"}
	fuzzOps    = []fuzzOp{
		{`h.shared["$K"];`, true},
		{"h.shared.list[$I];", true},
		{"h.shared.list.length;", true},
		{"Object.keys(h.shared); h.Object.keys(h.shared.list);", true},
		{`h.shared.hasOwnProperty("$K");`, true},
		{"for (var k in h.shared) { h.shared[k]; }", true},
		{"h.shared.list.indexOf($V); h.shared.list.slice($I); h.shared.list.join();", true},
		{"h.shared.list.map(function (e) { return e; }); h.shared.list.concat(h.shared.list);", true},
		{"h.shared.peek(); h.shared.peek.call(null); typeof h.shared.bump;", true},
		{"h.navigator.userAgent; h.screen.width; h.navigator.javaEnabled();", true},
		{"h.title; h.referrer; h.cookie;", true},
		{"JSON.stringify(h.shared.list); String(h.shared.list);", true},
		{`h.shared["$K"] = $V;`, false},
		{`h["$K"] = $V;`, false},
		{"h.shared.list[$I] = $V;", false},
		{`delete h.shared["$K"];`, false},
		{`delete h["$K"];`, false},
		{`Object.defineProperty(h.shared, "$K", {value: $V, writable: true, enumerable: true, configurable: true});`, false},
		{`Object.defineProperty(h.shared, "$K", {get: function () { return $V; }, configurable: true});`, false},
		{"Object.setPrototypeOf(h.shared, $P);", false},
		{"Object.setPrototypeOf(h.shared.list, $P);", false},
		{"Object.freeze(h.shared);", false},
		{"Object.freeze(h.shared.list);", false},
		{"h.shared.list.push($V);", false},
		{"h.shared.list.pop(); h.shared.list.shift();", false},
		{"h.shared.list.reverse();", false},
		{"h.shared.list.sort();", false},
		{"h.shared.list.sort(function (x, y) { return y - x; });", false},
		{"h.shared.list.length = $I;", false},
		{"Array.prototype.push.call(h.shared.list, $V);", false},
		{"h.shared.bump();", false},
		{"mine.v = $V;", false},
		{"h.shared.peek.prototype;", false},
		{"h.shared.peek.name = $V;", false},
		{`h.Error.call(h.shared, "m");`, false},
		{`h.document.createElement("div"); h.createElement("p");`, false},
		{`(h.document || h).body.setAttribute("data-x", $V);`, false},
	}
)

// decodeFuzzScript turns fuzz bytes into at most 24 statements of the
// grammar, each in its own try so that one throwing statement does not end
// the script, and reports whether every statement is a read.
func decodeFuzzScript(data []byte) (string, bool) {
	var b strings.Builder
	read := true
	next := func(pool []string) string {
		if len(data) == 0 {
			return pool[0]
		}
		c := data[0]
		data = data[1:]
		return pool[int(c)%len(pool)]
	}
	for n := 0; n < 24 && len(data) > 0; n++ {
		op := fuzzOps[int(data[0])%len(fuzzOps)]
		data = data[1:]
		read = read && op.read
		src := op.src
		for _, ph := range []struct {
			mark string
			pool []string
		}{{"$K", fuzzKeys}, {"$V", fuzzVals}, {"$I", fuzzIdx}, {"$P", fuzzProtos}} {
			for strings.Contains(src, ph.mark) {
				src = strings.Replace(src, ph.mark, next(ph.pool), 1)
			}
		}
		b.WriteString("try { " + src + " } catch (e) {}\n")
	}
	return b.String(), read
}

// FuzzUntouched checks the seal against the graph digest it replaced: a
// parent script drawn from a grammar of reads, writes, defines, deletes,
// prototype changes, freezes, array mutators, calls into the child's
// closures and DOM natives runs against a child realm handed out through
// one of the four routes. Whenever the child's GraphDigest differs from
// the one taken at exposure, Untouched must be false; after a script of
// reads alone, it must be true.
func FuzzUntouched(f *testing.F) {
	f.Add(uint8(0), []byte{})
	for i := range fuzzOps {
		f.Add(uint8(i%len(exposures)), []byte{byte(i), 1, 2, 3})
	}
	f.Add(uint8(3), []byte{12, 0, 0}) // h.shared.a = 1: the value already there
	cfg := StandardConfig(Ubuntu, Regular, 90, 0)
	f.Fuzz(func(t *testing.T, route uint8, data []byte) {
		child := Build(cfg, &NopHost{}, "https://child.example/")
		evalIn(t, child, childSetup)
		parent := Build(cfg, &frameHost{child: child}, "https://parent.example/")
		evalIn(t, parent, "var mine = {v: 1}; "+exposures[int(route)%len(exposures)].get)
		sealed := child.It.GraphDigest()
		src, read := decodeFuzzScript(data)
		if _, err := parent.It.RunScript(src, "fuzz.js"); err != nil {
			t.Fatalf("script failed outside its try blocks: %v\n%s", err, src)
		}
		untouched := child.Untouched()
		if child.It.GraphDigest() != sealed && untouched {
			t.Fatalf("the child's graph changed but Untouched() is true after\n%s", src)
		}
		if read && !untouched {
			t.Fatalf("a script of reads left Untouched() false:\n%s", src)
		}
	})
}
