package minjs

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
)

// Frame is one entry of the JS call stack, used for Error stack traces.
type Frame struct {
	FnName string
	Script string
	Line   int
}

func (f Frame) String() string {
	name := f.FnName
	if name == "" {
		name = "<anonymous>"
	}
	// hand-rolled concat: stacks are captured on every instrumented access,
	// and fmt.Sprintf was measurably hot there
	var b []byte
	b = append(b, name...)
	b = append(b, '@')
	b = append(b, f.Script...)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(f.Line), 10)
	return string(b)
}

// appendTo writes the frame's rendering plus a newline into b without the
// intermediate string; keep in sync with String.
func (f *Frame) appendTo(b []byte) []byte {
	name := f.FnName
	if name == "" {
		name = "<anonymous>"
	}
	b = append(b, name...)
	b = append(b, '@')
	b = append(b, f.Script...)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(f.Line), 10)
	return append(b, '\n')
}

// Throw carries a thrown JS value as a Go error.
type Throw struct {
	Value Value
	Stack string
}

func (t *Throw) Error() string { return "uncaught " + t.Value.ToString() }

// InterruptError aborts script execution from the host side (step limit,
// deadline). It is not catchable by JS try/catch.
type InterruptError struct{ Reason string }

func (e *InterruptError) Error() string { return "script interrupted: " + e.Reason }

// errBreak/errContinue surface when a break or continue appears outside any
// loop or switch: the statement leaks out of RunProgram/CallFunction as an
// error (a frozen quirk, pinned by the engine golden).
var errBreak = errors.New("minjs: break")
var errContinue = errors.New("minjs: continue")

// Protos holds the intrinsic prototype objects of a realm.
type Protos struct {
	Object   *Object
	Function *Object
	Array    *Object
	Error    *Object
	String   *Object
	Number   *Object
	Boolean  *Object
}

// Interp is an interpreter instance bound to one global object (one realm).
// Interpreters are not safe for concurrent use.
type Interp struct {
	Global *Object
	Protos Protos

	// StepLimit bounds the number of AST nodes evaluated per RunProgram
	// entry; 0 means the default of 5 million.
	StepLimit int64

	// PropAccessHook, when set, observes every successful property read on
	// an object (including prototype-chain hits). Used by tests as a ground
	// -truth oracle of script behaviour.
	PropAccessHook func(owner *Object, key string)

	// EvalHook, when set, observes every dynamically evaluated source text.
	EvalHook func(src string)

	// ConsoleLog collects console.log/warn/error output.
	ConsoleLog []string

	stack    frameStack
	steps    int64
	allocs   int64 // objects allocated through the it.New* helpers
	maxDepth int
	root     *Scope
	curThis  Value      // dynamic `this` for the running script function
	callee   *Object    // the native function running now (see Callee)
	seed     int64      // Math.random seed: 42 until the host reseeds
	rng      *rand.Rand // backs Math.random; nil until the first draw

	// Bytecode VM state: a shared value stack (vs/vsp) and a free list of
	// pooled scopes for closure-free functions and blocks.
	vs        []Value
	vsp       int
	scopeFree []*Scope
	lastVal   Value // toplevel completion value register

	// Per-realm inline-cache tables, keyed by compiled Code. Codes are
	// shared across visits via the script cache, so realm-local object
	// pointers live here rather than on the Code itself.
	icTabs     map[*Code][]icEntry
	lastICCode *Code
	lastICs    []icEntry

	// lazy holds the copies the realm was materialized from, whose
	// function objects are made as script reaches them (see copied).
	lazy []*copied

	// Bump arenas for realm-lifetime allocations (see arena.go).
	objArena   []Object
	fnArena    []funcObject
	scopeArena []Scope
	nameArena  []string
	valArena   []Value
}

// stepLimit is StepLimit with its default applied.
func (it *Interp) stepLimit() int64 {
	if it.StepLimit == 0 {
		return 5_000_000
	}
	return it.StepLimit
}

// Reseed re-seeds the realm's Math.random generator.
func (it *Interp) Reseed(seed int64) { it.seed, it.rng = seed, nil }

// random draws from the realm's Math.random generator, seeding it on the
// first draw: most realms never draw, and a source costs about 5 KB.
func (it *Interp) random() float64 {
	if it.rng == nil {
		it.rng = rand.New(rand.NewSource(it.seed))
	}
	return it.rng.Float64()
}

// Scope is a lexical environment. The root scope of a realm is backed by the
// global object itself: top-level var declarations become global properties.
// Bindings live in parallel slices — scopes are small, and linear scans beat
// a map allocation per call.
type Scope struct {
	names  []string
	vals   []Value
	parent *Scope
	global *Object // set only on the root scope
	pooled bool    // VM-pooled scope; recycled on exit (never captured)

	// writes counts changed bindings, like Object.writes; it shares the
	// last word with pooled so that Scope stays 72 bytes.
	writes uint32
}

// touch records one change to s's bindings.
func (s *Scope) touch() {
	if s.writes < maxWrites {
		s.writes++
	}
}

// store writes v into the binding slot, one of s's own, counting the write
// unless the slot already holds v.
func (s *Scope) store(slot *Value, v Value) {
	if !sameValue(*slot, v) {
		*slot = v
		s.touch()
	}
}

// NewScope returns a child scope of parent.
func NewScope(parent *Scope) *Scope {
	return &Scope{parent: parent}
}

// slot returns a pointer to the binding named name in this exact scope.
// The pointer is only valid until the next declare on this scope.
func (s *Scope) slot(name string) *Value {
	for i := len(s.names) - 1; i >= 0; i-- {
		if s.names[i] == name {
			return &s.vals[i]
		}
	}
	return nil
}

// declare creates a binding in this scope (or the global object for the root).
func (s *Scope) declare(name string, v Value) {
	if s.global != nil {
		s.global.Set(name, v)
		return
	}
	if p := s.slot(name); p != nil {
		s.store(p, v)
		return
	}
	s.names = append(s.names, name)
	s.vals = append(s.vals, v)
	s.touch()
}

// New creates an interpreter with a fresh global object populated with the
// standard built-ins (Object, Array, Error, Math, JSON, parseInt, …).
func New() *Interp {
	it := &Interp{maxDepth: 200, seed: 42}
	it.Protos.Object = &Object{Class: "Object", props: map[string]*Property{}}
	it.Protos.Function = NewObject(it.Protos.Object)
	it.Protos.Function.Class = "Function"
	it.Protos.Array = NewObject(it.Protos.Object)
	it.Protos.Error = NewObject(it.Protos.Object)
	it.Protos.Error.Class = "Error"
	it.Protos.String = NewObject(it.Protos.Object)
	it.Protos.Number = NewObject(it.Protos.Object)
	it.Protos.Boolean = NewObject(it.Protos.Object)
	it.Global = NewObject(it.Protos.Object)
	it.Global.Class = "Window"
	it.root = &Scope{global: it.Global}
	installBuiltins(it)
	return it
}

// NewObjectP returns a plain object using this realm's Object.prototype.
func (it *Interp) NewObjectP() *Object {
	it.allocs++
	o := it.allocObject()
	o.Class = "Object"
	o.Proto = it.Protos.Object
	return o
}

// NewArrayP returns an array using this realm's Array.prototype.
func (it *Interp) NewArrayP(elems ...Value) *Object {
	it.allocs++
	a := it.allocObject()
	a.Class = "Array"
	a.Proto = it.Protos.Array
	if len(elems) > 0 {
		a.Elems = append(it.carveVals(len(elems)), elems...)
	}
	return a
}

// NewNative wraps a Go function as a callable JS object. Its toString
// reports `[native code]` under the given name.
func (it *Interp) NewNative(name string, fn NativeFunc) *Object {
	it.allocs++
	f := it.allocFunc()
	f.Class = "Function"
	f.Proto = it.Protos.Function
	f.fd.Native = fn
	f.fd.NativeName = name
	f.fnd = &f.fd
	return &f.Object
}

// NewError constructs an Error object of the given name with a captured
// stack trace.
func (it *Interp) NewError(name, msg string) *Object {
	it.allocs++
	e := it.allocObject()
	e.Class = "Error"
	e.Proto = it.Protos.Error
	e.Set("name", String(name))
	e.Set("message", String(msg))
	e.Set("stack", String(it.CaptureStack()))
	return e
}

// ThrowError returns a Go error carrying a fresh JS Error.
func (it *Interp) ThrowError(name, format string, args ...any) error {
	e := it.NewError(name, fmt.Sprintf(format, args...))
	return &Throw{Value: ObjectValue(e), Stack: it.CaptureStack()}
}

// CaptureStack renders the current call stack Firefox-style, innermost first.
func (it *Interp) CaptureStack() string {
	b := make([]byte, 0, 64*it.stack.n)
	for i := it.stack.n - 1; i >= 0; i-- {
		b = it.stack.at(i).appendTo(b)
	}
	return string(b)
}

// Callee returns the function object of the native running now on it, nil
// outside one. A native reads it to find the realm it belongs to (through
// the object's Host field), which need not be the calling realm: see
// NativeFunc.
func (it *Interp) Callee() *Object { return it.callee }

// StackDepth reports the current JS call-stack depth.
func (it *Interp) StackDepth() int { return it.stack.n }

// Steps reports AST nodes evaluated since the last RunProgram entry (the
// counter resets per program, so after a run this is that program's cost).
func (it *Interp) Steps() int64 { return it.steps }

// Allocs reports objects allocated through the interpreter's constructors
// over the realm's lifetime; callers interested in one program take deltas.
func (it *Interp) Allocs() int64 { return it.allocs }

// frameSegLen is the length of one segment of the frame stack.
const frameSegLen = 16

// frameStack is the JS call stack in fixed segments that never move, so a
// *Frame stays valid until its frame is popped. The first segment lives in
// the Interp, and deeper segments are allocated as the stack first grows
// into them and kept for later calls.
type frameStack struct {
	n     int // frames in use
	first [frameSegLen]Frame
	more  []*[frameSegLen]Frame
}

// at returns frame i, counted from the bottom of the stack.
func (s *frameStack) at(i int) *Frame {
	if i < frameSegLen {
		return &s.first[i]
	}
	return &s.more[i/frameSegLen-1][i%frameSegLen]
}

// pushFrame pushes a frame and returns a pointer to it, which stays valid
// until the frame is popped.
func (it *Interp) pushFrame(f Frame) *Frame {
	s := &it.stack
	if s.n == it.maxDepth+32 {
		// should be unreachable: CallFunction enforces maxDepth first
		panic("minjs: frame stack overflow")
	}
	if s.n/frameSegLen > len(s.more) {
		s.more = append(s.more, new([frameSegLen]Frame))
	}
	p := s.at(s.n)
	*p = f
	s.n++
	return p
}

func (it *Interp) popFrame() { it.stack.n-- }

// CurrentScript returns the script name of the innermost non-native frame —
// the script whose code is executing right now.
func (it *Interp) CurrentScript() string {
	for i := it.stack.n - 1; i >= 0; i-- {
		if f := it.stack.at(i); f.Script != "native" {
			return f.Script
		}
	}
	return ""
}

// RunProgram executes a program at the top level of the realm. It resets
// the step counter, so each program gets a fresh budget. A program that was
// not compiled yet is compiled first; programs shared between goroutines
// must be compiled before they are shared (see Compile).
func (it *Interp) RunProgram(prog *Program) (Value, error) {
	c := Compile(prog).compiled
	it.steps = 0
	frame := it.pushFrame(Frame{FnName: "<toplevel>", Script: prog.Name, Line: 1})
	v, err := it.runToplevel(c, frame)
	it.popFrame()
	return v, err
}

// RunScript parses, compiles and executes src.
func (it *Interp) RunScript(src, name string) (Value, error) {
	prog, err := Parse(src, name)
	if err != nil {
		return Undefined(), err
	}
	return it.RunProgram(prog)
}

// makeFunction instantiates a function object closing over sc. The "name",
// "length" and "prototype" properties materialise lazily on first access
// (see Interp.functionIntrinsic): most functions never have them read, and
// page instrumentation creates hundreds of wrappers per document.
func (it *Interp) makeFunction(lit *FuncLit, sc *Scope) *Object {
	it.allocs++
	f := it.allocFunc()
	f.Class = "Function"
	f.Proto = it.Protos.Function
	f.fd.Fn = lit
	f.fd.Env = sc
	f.fnd = &f.fd
	return &f.Object
}

// functionIntrinsic resolves the lazily materialised intrinsic properties of
// function objects; called on the property-miss path only.
func (it *Interp) functionIntrinsic(o *Object, key string) (Value, bool) {
	fd := o.fnd
	if fd == nil || (fd.Fn == nil && fd.Native == nil) {
		return Undefined(), false
	}
	switch key {
	case "name":
		if fd.Native != nil {
			return String(fd.NativeName), true
		}
		return String(fd.Fn.Name), true
	case "length":
		if fd.Fn != nil {
			return Int(len(fd.Fn.Params)), true
		}
		return Int(0), true
	case "prototype":
		if fd.Fn == nil || fd.Fn.Arrow {
			return Undefined(), false
		}
		protoObj := it.NewObjectP()
		protoObj.SetNonEnum("constructor", ObjectValue(o))
		o.SetNonEnum("prototype", ObjectValue(protoObj))
		return ObjectValue(protoObj), true
	}
	return Undefined(), false
}

// CallFunction invokes a callable object from the host or the evaluator.
func (it *Interp) CallFunction(fn *Object, this Value, args []Value) (Value, error) {
	var fd *fnData
	if fn != nil {
		fd = fn.fnd
	}
	if fd == nil || (fd.Fn == nil && fd.Native == nil) {
		return Undefined(), it.ThrowError("TypeError", "value is not a function")
	}
	if it.stack.n >= it.maxDepth {
		return Undefined(), it.ThrowError("InternalError", "too much recursion")
	}
	if fd.Native != nil {
		it.pushFrame(Frame{FnName: fd.NativeName, Script: "native"})
		defer it.popFrame()
		outer := it.callee
		it.callee = fn
		v, err := fd.Native(it, this, args)
		it.callee = outer
		return v, err
	}
	lit := fd.Fn
	if lit.Arrow {
		this = fd.thisVal()
	}
	return it.callCompiled(lit, fn, this, args)
}

// Construct implements `new fn(args)`.
func (it *Interp) Construct(fn *Object, args []Value) (Value, error) {
	if fn == nil || fn.fnd == nil || (fn.fnd.Fn == nil && fn.fnd.Native == nil) {
		return Undefined(), it.ThrowError("TypeError", "value is not a constructor")
	}
	proto := it.Protos.Object
	if pv, err := it.GetMember(ObjectValue(fn), "prototype"); err == nil && pv.IsObject() {
		proto = pv.Obj
	}
	obj := NewObject(proto)
	res, err := it.CallFunction(fn, ObjectValue(obj), args)
	if err != nil {
		return Undefined(), err
	}
	if res.IsObject() {
		return res, nil
	}
	return ObjectValue(obj), nil
}
