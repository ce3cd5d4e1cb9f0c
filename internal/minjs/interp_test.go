package minjs

import (
	"math/rand"
	"strings"
	"testing"
)

// run evaluates src in a fresh realm and returns the completion value.
func run(t *testing.T, src string) Value {
	t.Helper()
	it := New()
	v, err := it.RunScript(src, "test.js")
	if err != nil {
		t.Fatalf("RunScript(%q): %v", src, err)
	}
	return v
}

func runIn(t *testing.T, it *Interp, src string) Value {
	t.Helper()
	v, err := it.RunScript(src, "test.js")
	if err != nil {
		t.Fatalf("RunScript(%q): %v", src, err)
	}
	return v
}

func wantNum(t *testing.T, v Value, want float64) {
	t.Helper()
	if v.Kind != KindNumber || v.Num != want {
		t.Fatalf("got %s %v, want number %v", v.Kind, v, want)
	}
}

func wantStr(t *testing.T, v Value, want string) {
	t.Helper()
	if v.Kind != KindString || v.Str != want {
		t.Fatalf("got %s %q, want string %q", v.Kind, v.ToString(), want)
	}
}

func wantBool(t *testing.T, v Value, want bool) {
	t.Helper()
	if v.Kind != KindBool || v.Bool != want {
		t.Fatalf("got %s %v, want bool %v", v.Kind, v, want)
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 % 3", 1},
		{"2 * 3 + 4 / 2", 8},
		{"-5 + 3", -2},
		{"0x10 + 1", 17},
		{"1e3 / 10", 100},
		{"7 & 3", 3},
		{"1 << 4", 16},
		{"255 >> 4", 15},
		{"5 ^ 1", 4},
	}
	for _, c := range cases {
		wantNum(t, run(t, c.src), c.want)
	}
}

func TestStringOps(t *testing.T) {
	wantStr(t, run(t, `"foo" + "bar"`), "foobar")
	wantStr(t, run(t, `"a" + 1`), "a1")
	wantNum(t, run(t, `"hello".length`), 5)
	wantNum(t, run(t, `"hello".indexOf("ll")`), 2)
	wantBool(t, run(t, `"webdriver".includes("driver")`), true)
	wantStr(t, run(t, `"AbC".toLowerCase()`), "abc")
	wantStr(t, run(t, `"a,b,c".split(",")[1]`), "b")
	wantStr(t, run(t, `"\x41\x42"`), "AB")
	wantStr(t, run(t, `String.fromCharCode(119, 101, 98)`), "web")
	wantStr(t, run(t, `"hello"[1]`), "e")
	wantStr(t, run(t, `"xyx".replace("x", "z")`), "zyx")
	wantStr(t, run(t, `"xyx".replaceAll("x", "z")`), "zyz")
}

func TestVarsAndScope(t *testing.T) {
	wantNum(t, run(t, "var x = 1; var y = 2; x + y"), 3)
	wantNum(t, run(t, "var x = 1; { var y = 2; x = x + y } x"), 3)
	wantNum(t, run(t, `
		function mk() { var n = 0; return function() { n = n + 1; return n; }; }
		var c = mk();
		c(); c(); c()`), 3)
	// closures are independent
	wantNum(t, run(t, `
		function mk() { var n = 0; return function() { n++; return n; }; }
		var a = mk(), b = mk();
		a(); a(); b()`), 1)
}

func TestControlFlow(t *testing.T) {
	wantNum(t, run(t, "var s = 0; for (var i = 0; i < 5; i++) { s += i } s"), 10)
	wantNum(t, run(t, "var s = 0; var i = 0; while (i < 4) { s += 2; i++ } s"), 8)
	wantNum(t, run(t, "var s = 0; for (var i = 0; i < 10; i++) { if (i === 3) break; s = i } s"), 2)
	wantNum(t, run(t, "var s = 0; for (var i = 0; i < 5; i++) { if (i % 2 === 0) continue; s += i } s"), 4)
	wantNum(t, run(t, "var n = 0; do { n++ } while (n < 3); n"), 3)
	wantStr(t, run(t, `var r = ""; switch (2) { case 1: r = "a"; break; case 2: r = "b"; break; default: r = "c" } r`), "b")
	wantStr(t, run(t, `var r = ""; switch (9) { case 1: r = "a"; break; default: r = "c" } r`), "c")
	// fallthrough
	wantStr(t, run(t, `var r = ""; switch (1) { case 1: r += "a"; case 2: r += "b"; break; case 3: r += "z" } r`), "ab")
}

func TestObjectsAndPrototypes(t *testing.T) {
	wantNum(t, run(t, "var o = {a: 1, b: {c: 2}}; o.a + o.b.c"), 3)
	wantNum(t, run(t, `var o = {}; o["x"] = 7; o.x`), 7)
	wantBool(t, run(t, `var o = {a: 1}; o.hasOwnProperty("a")`), true)
	wantBool(t, run(t, `var o = {a: 1}; o.hasOwnProperty("b")`), false)
	wantBool(t, run(t, `var o = {a: 1}; "a" in o`), true)
	// prototype chain via Object.create
	wantNum(t, run(t, `
		var proto = {greet: 41};
		var o = Object.create(proto);
		o.greet + 1`), 42)
	// own property shadows prototype
	wantNum(t, run(t, `
		var proto = {v: 1};
		var o = Object.create(proto);
		o.v = 9;
		o.v + proto.v`), 10)
	// hasOwnProperty distinguishes inherited
	wantBool(t, run(t, `
		var proto = {p: 1};
		var o = Object.create(proto);
		o.hasOwnProperty("p")`), false)
	// delete
	wantBool(t, run(t, `var o = {a: 1}; delete o.a; "a" in o`), false)
}

func TestConstructorsAndInstanceof(t *testing.T) {
	wantNum(t, run(t, `
		function Point(x, y) { this.x = x; this.y = y }
		Point.prototype.sum = function() { return this.x + this.y };
		var p = new Point(3, 4);
		p.sum()`), 7)
	wantBool(t, run(t, `
		function A() {}
		var a = new A();
		a instanceof A`), true)
	wantBool(t, run(t, `
		function A() {} function B() {}
		var a = new A();
		a instanceof B`), false)
	wantBool(t, run(t, `var e = new Error("x"); e instanceof Error`), true)
}

func TestThisBinding(t *testing.T) {
	wantNum(t, run(t, `var o = {v: 5, get: function() { return this.v }}; o.get()`), 5)
	// arrow captures lexical this
	wantNum(t, run(t, `
		var o = {v: 6, get: function() { var f = () => this.v; return f(); }};
		o.get()`), 6)
	// call / apply
	wantNum(t, run(t, `function f() { return this.v } f.call({v: 8})`), 8)
	wantNum(t, run(t, `function f(a, b) { return this.v + a + b } f.apply({v: 1}, [2, 3])`), 6)
	wantNum(t, run(t, `function f(a) { return this.v + a } var g = f.bind({v: 10}); g(5)`), 15)
	// bind with no arguments at all binds undefined and no leading args
	wantNum(t, run(t, `function f(a) { return a } f.bind()(4)`), 4)
}

func TestTryCatchThrow(t *testing.T) {
	wantStr(t, run(t, `
		var r = "";
		try { throw new Error("boom") } catch (e) { r = e.message }
		r`), "boom")
	wantStr(t, run(t, `
		var r = "";
		try { r += "a"; throw "x" } catch (e) { r += "b" } finally { r += "c" }
		r`), "abc")
	wantStr(t, run(t, `
		var r = "";
		try { r += "a" } finally { r += "f" }
		r`), "af")
	// TypeError from calling a non-function is catchable
	wantStr(t, run(t, `
		var r = "none";
		try { var u; u() } catch (e) { r = e.name }
		r`), "TypeError")
	// ReferenceError
	wantStr(t, run(t, `
		var r = "none";
		try { zzz } catch (e) { r = e.name }
		r`), "ReferenceError")
}

func TestErrorStacks(t *testing.T) {
	v := run(t, `
		function inner() { throw new Error("deep") }
		function outer() { inner() }
		var st = "";
		try { outer() } catch (e) { st = e.stack }
		st`)
	if v.Kind != KindString {
		t.Fatalf("stack not a string: %v", v)
	}
	for _, frag := range []string{"inner@test.js", "outer@test.js", "<toplevel>@test.js"} {
		if !strings.Contains(v.Str, frag) {
			t.Errorf("stack missing %q:\n%s", frag, v.Str)
		}
	}
	// innermost frame first (Firefox style)
	if strings.Index(v.Str, "inner@") > strings.Index(v.Str, "outer@") {
		t.Errorf("stack order wrong:\n%s", v.Str)
	}
}

func TestFunctionToString(t *testing.T) {
	// script function returns its exact source text
	v := run(t, `function hello(a) { return a + 1 } hello.toString()`)
	if !strings.HasPrefix(v.Str, "function hello(a)") || !strings.Contains(v.Str, "return a + 1") {
		t.Fatalf("toString = %q", v.Str)
	}
	// native function reports [native code]
	v = run(t, `Object.keys.toString()`)
	if !IsNativeSource(v.Str) {
		t.Fatalf("native toString = %q", v.Str)
	}
	if !strings.Contains(v.Str, "function keys()") {
		t.Fatalf("native toString missing name: %q", v.Str)
	}
}

func TestForIn(t *testing.T) {
	wantStr(t, run(t, `
		var o = {a: 1, b: 2, c: 3};
		var keys = "";
		for (var k in o) { keys += k }
		keys`), "abc")
	// includes inherited enumerable properties
	wantStr(t, run(t, `
		var proto = {p: 1};
		var o = Object.create(proto);
		o.q = 2;
		var keys = "";
		for (var k in o) { keys += k }
		keys`), "qp")
	// non-enumerable properties are skipped
	wantStr(t, run(t, `
		var o = {a: 1};
		Object.defineProperty(o, "hidden", {value: 2, enumerable: false});
		var keys = "";
		for (var k in o) { keys += k }
		keys`), "a")
	// for…of over array
	wantNum(t, run(t, `var s = 0; for (var v of [1, 2, 3]) { s += v } s`), 6)
}

func TestGettersSetters(t *testing.T) {
	wantNum(t, run(t, `
		var o = {};
		var backing = 4;
		Object.defineProperty(o, "x", {
			get: function() { return backing * 2 },
			set: function(v) { backing = v },
			enumerable: true
		});
		o.x = 10;
		o.x`), 20)
	// getter receives correct this
	wantNum(t, run(t, `
		var o = {v: 3};
		Object.defineProperty(o, "x", {get: function() { return this.v }});
		o.x`), 3)
	// inherited accessor fires on descendants
	wantNum(t, run(t, `
		var proto = {};
		Object.defineProperty(proto, "x", {get: function() { return 11 }});
		var o = Object.create(proto);
		o.x`), 11)
	// getOwnPropertyDescriptor round-trip
	wantBool(t, run(t, `
		var o = {};
		Object.defineProperty(o, "x", {get: function() { return 1 }, enumerable: false});
		var d = Object.getOwnPropertyDescriptor(o, "x");
		typeof d.get === "function" && d.enumerable === false`), true)
	// non-configurable property cannot be redefined
	wantStr(t, run(t, `
		var o = {};
		Object.defineProperty(o, "x", {value: 1, configurable: false});
		var r = "ok";
		try { Object.defineProperty(o, "x", {value: 2}) } catch (e) { r = e.name }
		r`), "TypeError")
}

func TestArrays(t *testing.T) {
	wantNum(t, run(t, "[1, 2, 3].length"), 3)
	wantNum(t, run(t, "var a = []; a.push(5); a.push(6); a[1]"), 6)
	wantNum(t, run(t, "[4, 5, 6].indexOf(6)"), 2)
	wantBool(t, run(t, "[1, 2].includes(2)"), true)
	wantStr(t, run(t, `["a", "b"].join("-")`), "a-b")
	wantNum(t, run(t, "[1, 2, 3].slice(1).length"), 2)
	wantNum(t, run(t, "var s = 0; [1, 2, 3].forEach(function(v) { s += v }); s"), 6)
	wantNum(t, run(t, "[1, 2, 3].map(function(v) { return v * 2 })[2]"), 6)
	wantNum(t, run(t, "[1, 2, 3, 4].filter(function(v) { return v % 2 === 0 }).length"), 2)
	wantNum(t, run(t, "var a = [1, 2]; a.length = 0; a.length"), 0)
	wantNum(t, run(t, "var a = [1]; a[3] = 9; a.length"), 4)
	wantBool(t, run(t, "Array.isArray([])"), true)
	wantBool(t, run(t, "Array.isArray({})"), false)
}

func TestEquality(t *testing.T) {
	wantBool(t, run(t, `1 == "1"`), true)
	wantBool(t, run(t, `1 === "1"`), false)
	wantBool(t, run(t, "null == undefined"), true)
	wantBool(t, run(t, "null === undefined"), false)
	wantBool(t, run(t, "NaN === NaN"), false)
	wantBool(t, run(t, "var o = {}; o === o"), true)
	wantBool(t, run(t, "({}) === ({})"), false)
	wantBool(t, run(t, `0 == false`), true)
	wantBool(t, run(t, `"" == false`), true)
}

func TestTypeof(t *testing.T) {
	cases := map[string]string{
		"typeof 1":             "number",
		`typeof "s"`:           "string",
		"typeof true":          "boolean",
		"typeof undefined":     "undefined",
		"typeof null":          "object",
		"typeof {}":            "object",
		"typeof [1]":           "object",
		"typeof function(){}":  "function",
		"typeof Object.keys":   "function",
		"typeof notDeclared":   "undefined", // no throw
		"typeof navigator2022": "undefined",
	}
	for src, want := range cases {
		wantStr(t, run(t, src), want)
	}
}

func TestEval(t *testing.T) {
	wantNum(t, run(t, `eval("1 + 2")`), 3)
	wantNum(t, run(t, `eval("var dynamicVar = 41"); dynamicVar + 1`), 42)
	// EvalHook observes dynamic code
	it := New()
	var seen []string
	it.EvalHook = func(src string) { seen = append(seen, src) }
	runIn(t, it, `eval("var x = 'navigator2'")`)
	if len(seen) != 1 || !strings.Contains(seen[0], "navigator2") {
		t.Fatalf("EvalHook saw %v", seen)
	}
}

func TestArrowFunctions(t *testing.T) {
	wantNum(t, run(t, "var f = x => x * 2; f(21)"), 42)
	wantNum(t, run(t, "var f = (a, b) => a + b; f(1, 2)"), 3)
	wantNum(t, run(t, "var f = () => 7; f()"), 7)
	wantNum(t, run(t, "var f = (x) => { var y = x + 1; return y * 2 }; f(2)"), 6)
	// arrows as arguments
	wantNum(t, run(t, "[1, 2, 3].map(v => v * v)[2]"), 9)
}

func TestConditionalAndLogical(t *testing.T) {
	wantNum(t, run(t, "true ? 1 : 2"), 1)
	wantNum(t, run(t, "false ? 1 : 2"), 2)
	wantNum(t, run(t, "0 || 5"), 5)
	wantNum(t, run(t, "3 && 4"), 4)
	wantNum(t, run(t, "null ?? 9"), 9)
	wantNum(t, run(t, "0 ?? 9"), 0)
	// short-circuit: rhs not evaluated
	wantNum(t, run(t, "var n = 0; function inc() { n++; return true } false && inc(); n"), 0)
	wantNum(t, run(t, "var n = 0; function inc() { n++; return true } true || inc(); n"), 0)
}

func TestGlobalObjectBacksScope(t *testing.T) {
	it := New()
	runIn(t, it, "var fromScript = 123")
	v, err := it.GetMember(ObjectValue(it.Global), "fromScript")
	if err != nil {
		t.Fatal(err)
	}
	wantNum(t, v, 123)

	// host-set globals visible to scripts
	it.Global.Set("fromHost", Int(9))
	wantNum(t, runIn(t, it, "fromHost + 1"), 10)

	// assignment without declaration lands on the global object
	runIn(t, it, "implicitGlobal = 5")
	v, _ = it.GetMember(ObjectValue(it.Global), "implicitGlobal")
	wantNum(t, v, 5)
}

func TestStepLimitInterrupts(t *testing.T) {
	it := New()
	it.StepLimit = 10_000
	_, err := it.RunScript("while (true) {}", "spin.js")
	if err == nil {
		t.Fatal("expected interrupt")
	}
	if _, ok := err.(*InterruptError); !ok {
		t.Fatalf("got %T (%v), want *InterruptError", err, err)
	}
	// interrupts are not catchable by JS
	it2 := New()
	it2.StepLimit = 10_000
	_, err = it2.RunScript("try { while (true) {} } catch (e) {}", "spin2.js")
	if _, ok := err.(*InterruptError); !ok {
		t.Fatalf("interrupt was swallowed: %v", err)
	}
}

func TestRecursionLimit(t *testing.T) {
	it := New()
	_, err := it.RunScript("function f() { return f() } f()", "rec.js")
	if err == nil {
		t.Fatal("expected too-much-recursion error")
	}
}

func TestJSON(t *testing.T) {
	wantStr(t, run(t, `JSON.stringify({a: 1, b: [true, null, "x"]})`), `{"a":1,"b":[true,null,"x"]}`)
	wantNum(t, run(t, `JSON.parse('{"a": {"b": 41}}').a.b + 1`), 42)
	wantNum(t, run(t, `JSON.parse("[1,2,3]")[1]`), 2)
	// cycles throw
	wantStr(t, run(t, `
		var o = {}; o.self = o;
		var r = "ok";
		try { JSON.stringify(o) } catch (e) { r = e.name }
		r`), "TypeError")
}

func TestMathAndGlobals(t *testing.T) {
	wantNum(t, run(t, "Math.floor(3.7)"), 3)
	wantNum(t, run(t, "Math.max(1, 9, 4)"), 9)
	wantNum(t, run(t, `parseInt("42px")`), 42)
	wantNum(t, run(t, `parseInt("ff", 16)`), 255)
	wantBool(t, run(t, `isNaN(parseInt("nope"))`), true)
	wantBool(t, run(t, "Math.random() >= 0 && Math.random() < 1"), true)
	// deterministic per seed
	a := New()
	a.Reseed(7)
	b := New()
	b.Reseed(7)
	va := runIn(t, a, "Math.random()")
	vb := runIn(t, b, "Math.random()")
	if va.Num != vb.Num {
		t.Fatalf("Math.random not deterministic: %v vs %v", va.Num, vb.Num)
	}
}

// Math.random builds its source on the first draw from the latest seed: 42
// until the host reseeds. Draws follow math/rand's sequence for that seed
// whether the source was built before or after a reseed, and a recording
// that swaps in its draw counter before any draw leaves the lazy seeding
// intact.
func TestMathRandomSeededLazily(t *testing.T) {
	seq := func(seed int64) [2]float64 {
		r := rand.New(rand.NewSource(seed))
		return [2]float64{r.Float64(), r.Float64()}
	}
	draws := func(it *Interp) [2]float64 {
		return [2]float64{runIn(t, it, "Math.random()").Num, runIn(t, it, "Math.random()").Num}
	}
	if got, want := draws(New()), seq(42); got != want {
		t.Errorf("default seed: %v, want %v", got, want)
	}
	reseeded := New()
	reseeded.Reseed(7)
	if got, want := draws(reseeded), seq(7); got != want {
		t.Errorf("reseeded: %v, want %v", got, want)
	}
	drawnFirst := New()
	runIn(t, drawnFirst, "Math.random()")
	drawnFirst.Reseed(7)
	if got, want := draws(drawnFirst), seq(7); got != want {
		t.Errorf("reseeded after a draw: %v, want %v", got, want)
	}
	recorded := New()
	recorded.Reseed(7)
	if _, err := recorded.Record(Compile(MustParse("var x = 1;", "r.js"))); err != nil {
		t.Fatal(err)
	}
	if got, want := draws(recorded), seq(7); got != want {
		t.Errorf("after a recording: %v, want %v", got, want)
	}
}

func TestPropAccessHook(t *testing.T) {
	it := New()
	var reads []string
	it.PropAccessHook = func(owner *Object, key string) { reads = append(reads, key) }
	nav := it.NewObjectP()
	nav.Set("webdriver", Boolean(true))
	it.Global.Set("navigator", ObjectValue(nav))
	reads = nil
	runIn(t, it, "navigator.webdriver")
	found := false
	for _, k := range reads {
		if k == "webdriver" {
			found = true
		}
	}
	if !found {
		t.Fatalf("hook missed webdriver read: %v", reads)
	}
}

func TestNumberToStringRadix(t *testing.T) {
	wantStr(t, run(t, "(255).toString(16)"), "ff")
	wantStr(t, run(t, "(7).toString(2)"), "111")
	wantStr(t, run(t, "(3.5).toString()"), "3.5")
}

func TestCompoundAssignAndIncrement(t *testing.T) {
	wantNum(t, run(t, "var x = 1; x += 4; x"), 5)
	wantNum(t, run(t, "var x = 10; x -= 3; x *= 2; x"), 14)
	wantNum(t, run(t, "var x = 5; x++; ++x; x"), 7)
	wantNum(t, run(t, "var x = 5; var y = x++; y"), 5)
	wantNum(t, run(t, "var x = 5; var y = ++x; y"), 6)
	wantStr(t, run(t, `var s = "a"; s += "b"; s`), "ab")
	wantNum(t, run(t, "var o = {n: 1}; o.n += 2; o.n"), 3)
	wantNum(t, run(t, "var a = [1]; a[0]++; a[0]"), 2)
}

func TestUncaughtThrowSurfacesAsError(t *testing.T) {
	it := New()
	_, err := it.RunScript(`throw new TypeError("nope")`, "boom.js")
	thr, ok := err.(*Throw)
	if !ok {
		t.Fatalf("got %T, want *Throw", err)
	}
	if got := thr.Value.ToString(); got != "TypeError: nope" {
		t.Fatalf("thrown = %q", got)
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"var = 3",
		"function (",
		"if (true",
		"{",
		`"unterminated`,
		"for (;;",
		"1 +",
		"o.= 2",
	}
	for _, src := range bad {
		if _, err := Parse(src, "bad.js"); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		} else if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("Parse(%q) error type %T", src, err)
		}
	}
}

func TestNativeThisAndHostBridge(t *testing.T) {
	it := New()
	host := it.NewNative("hostAdd", func(it *Interp, this Value, args []Value) (Value, error) {
		return Number(arg(args, 0).ToNumber() + arg(args, 1).ToNumber()), nil
	})
	it.Global.Set("hostAdd", ObjectValue(host))
	wantNum(t, runIn(t, it, "hostAdd(20, 22)"), 42)
	// native throw is catchable
	boom := it.NewNative("boom", func(it *Interp, this Value, args []Value) (Value, error) {
		return Undefined(), it.ThrowError("TypeError", "host says no")
	})
	it.Global.Set("boom", ObjectValue(boom))
	wantStr(t, runIn(t, it, `var r = ""; try { boom() } catch (e) { r = e.message } r`), "host says no")
}

func TestEnumerationOrderStability(t *testing.T) {
	// insertion order must be stable: honey-property detection depends on it
	src := `
		var o = {};
		o.z = 1; o.a = 2; o.m = 3;
		var keys = [];
		for (var k in o) keys.push(k);
		keys.join(",")`
	wantStr(t, run(t, src), "z,a,m")
}

func TestObjectKeysVsGetOwnPropertyNames(t *testing.T) {
	src := `
		var o = {vis: 1};
		Object.defineProperty(o, "hid", {value: 2, enumerable: false});
		Object.keys(o).length * 10 + Object.getOwnPropertyNames(o).length`
	wantNum(t, run(t, src), 12)
}

func TestSetterOnPrototypeChain(t *testing.T) {
	wantNum(t, run(t, `
		var store = 0;
		var proto = {};
		Object.defineProperty(proto, "x", {
			get: function() { return store },
			set: function(v) { store = v + 100 }
		});
		var o = Object.create(proto);
		o.x = 1; // must invoke inherited setter, not shadow
		o.x`), 101)
}
