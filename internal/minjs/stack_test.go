package minjs

import (
	"strconv"
	"strings"
	"testing"
)

// deepCases recurse to the depth limit, through script calls alone and
// through a native that calls back into script, and capture a stack deep
// enough to span several segments of the frame stack.
var deepCases = []struct{ name, src, want string }{
	{
		"script recursion",
		`function f(n) { return f(n + 1); } var r; try { f(0); } catch (e) { r = e.name + ": " + e.message + "\n" + e.stack; } r`,
		"InternalError: too much recursion\n" + strings.Repeat("f@deep.js:1\n", 199) + "<toplevel>@deep.js:1\n",
	},
	{
		"recursion through a native",
		`function h(n) { return [n].map(function g(x) { return h(x + 1); })[0]; } var r; try { h(0); } catch (e) { r = e.name + ": " + e.message + "\n" + e.stack; } r`,
		"InternalError: too much recursion\nh@deep.js:1\n" + strings.Repeat("g@deep.js:1\nmap@native:0\nh@deep.js:1\n", 66) + "<toplevel>@deep.js:1\n",
	},
	{
		"stack of a deep Error",
		`function k(n) { return n == 0 ? new Error("deep").stack : k(n - 1); } k(150)`,
		strings.Repeat("k@deep.js:1\n", 151) + "<toplevel>@deep.js:1\n",
	},
}

// The frame stack grows in segments as calls nest. Recursion to the depth
// limit and past it fails with the same error and renders the same stack
// as a stack preallocated to the limit did, on a fresh realm and again on
// one whose stack has grown before, and the depth returns to zero after.
func TestFrameStackDeepRecursion(t *testing.T) {
	it := New()
	for round := 0; round < 2; round++ {
		for _, c := range deepCases {
			v, err := it.RunScript(c.src, "deep.js")
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got := v.ToString(); got != c.want {
				t.Errorf("%s, round %d: got\n%s\nwant\n%s", c.name, round, got, c.want)
			}
			if d := it.StackDepth(); d != 0 {
				t.Errorf("%s: depth %d after the run, want 0", c.name, d)
			}
		}
	}
}

// A *Frame the stack handed out stays valid while later pushes open new
// segments: segments never move.
func TestFrameStackPointersStayValid(t *testing.T) {
	it := New()
	n := 3*frameSegLen + 1
	frames := make([]*Frame, n)
	for i := range frames {
		frames[i] = it.pushFrame(Frame{FnName: "f" + strconv.Itoa(i), Script: "s.js", Line: i})
	}
	for i, f := range frames {
		if f != it.stack.at(i) || f.Line != i || f.FnName != "f"+strconv.Itoa(i) {
			t.Fatalf("frame %d reads %+v after %d pushes", i, *f, n)
		}
	}
	for range frames {
		it.popFrame()
	}
	if it.StackDepth() != 0 {
		t.Fatalf("depth %d after popping every frame", it.StackDepth())
	}
}
