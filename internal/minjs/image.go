package minjs

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Image is the recorded effect of running one program at the top level of a
// freshly built realm: the objects, script closures and captured scopes the
// program created, the property definitions and deletions it made on objects
// that already existed, and the step and alloc counters it left behind.
// Objects that already existed are named by their path from the realm's
// roots (the global object and the intrinsic prototypes) through property
// values, accessor halves, prototype links and array elements, so an image
// recorded in one realm can be instantiated into any realm built the same
// way. An Image is immutable once recorded and safe to instantiate from
// several goroutines.
type Image struct {
	refs   []imageRef   // pre-existing objects, parents before children
	objs   []imageObj   // objects the program created
	scopes []imageScope // scopes its closures captured; scope slot i+1
	edits  []imageEdit  // changes to pre-existing objects
	steps  int64
	allocs int64
}

// Object slots number the refs first, then the created objects; -1 is nil.
// Scope slot 0 is the realm's root scope, slot i+1 is scopes[i].

// Path edge kinds.
const (
	edgeRoot  uint8 = iota // elem indexes realmRoots
	edgeValue              // data property key
	edgeGet                // getter of accessor key
	edgeSet                // setter of accessor key
	edgeProto              // prototype link
	edgeElem               // array element elem
)

// imageRef names one pre-existing object by a single edge from an earlier
// ref (or a realm root), plus what the object found there must look like.
type imageRef struct {
	parent int32
	edge   uint8
	elem   int32
	key    string
	class  string
	native string   // NativeFnName the resolved object must report
	fn     *FuncLit // script body the resolved object must carry
}

// imageVal is a recorded Value: primitives verbatim, objects by slot.
type imageVal struct {
	v    Value
	slot int32 // -1 for a primitive
}

type imageProp struct {
	key      string
	val      imageVal
	get, set int32
	attrs    Property // flags only; values travel in val/get/set
}

type imageObj struct {
	class    string
	proto    int32
	props    []imageProp
	elems    []imageVal
	notExt   bool
	ver      uint32
	fn       *FuncLit // non-nil for script functions
	env      int32    // closure scope slot of a script function
	this     imageVal
	override string // ToStringOverride
}

type imageScope struct {
	names  []string // shared between realms: cap == len, so declare copies
	vals   []imageVal
	parent int32
}

// Edit operations on a pre-existing object, in the order they are replayed.
const (
	opDelete  uint8 = iota // remove key
	opReplace              // redefine key in place, keeping its position
	opWrite                // overwrite key's property slot in place (no structural change)
	opAppend               // define key after every existing key
)

type imageOp struct {
	kind uint8
	prop imageProp
}

type imageEdit struct {
	slot     int32
	ops      []imageOp
	verDelta uint32
}

// realmRoots lists the objects image paths start from.
func realmRoots(it *Interp) [8]*Object {
	p := &it.Protos
	return [8]*Object{it.Global, p.Object, p.Function, p.Array, p.Error, p.String, p.Number, p.Boolean}
}

// objPath records how a graph walk first reached an object. parent -1 marks
// a root; parent -2 an object reached only through a closure scope or a
// bound this, which no path can name.
type objPath struct {
	parent int32
	edge   uint8
	elem   int32
	key    string
}

// realmGraph is a breadth-first walk of everything reachable from a realm's
// roots. The order depends only on the graph's shape and property order, so
// two realms built the same way number their objects identically.
type realmGraph struct {
	index  map[*Object]int32
	objs   []*Object
	paths  []objPath
	sindex map[*Scope]int32
	scopes []*Scope
	// skip, when set, holds an earlier walk whose objects and scopes this
	// one neither records nor expands
	skip *realmGraph
}

func walkRealm(it *Interp) *realmGraph {
	g := &realmGraph{index: map[*Object]int32{}, sindex: map[*Scope]int32{}}
	for i, r := range realmRoots(it) {
		g.reach(r, objPath{parent: -1, edge: edgeRoot, elem: int32(i)})
	}
	g.scope(it.root)
	for i := 0; i < len(g.objs); i++ {
		g.expand(int32(i), g.objs[i])
	}
	return g
}

func (g *realmGraph) reach(o *Object, p objPath) {
	if o == nil {
		return
	}
	if _, ok := g.index[o]; ok {
		return
	}
	if g.skip != nil {
		if _, ok := g.skip.index[o]; ok {
			return
		}
	}
	g.index[o] = int32(len(g.objs))
	g.objs = append(g.objs, o)
	g.paths = append(g.paths, p)
}

var unnamed = objPath{parent: -2}

func (g *realmGraph) scope(s *Scope) {
	for ; s != nil; s = s.parent {
		if _, ok := g.sindex[s]; ok {
			return
		}
		if g.skip != nil {
			if _, ok := g.skip.sindex[s]; ok {
				return
			}
		}
		g.sindex[s] = int32(len(g.scopes))
		g.scopes = append(g.scopes, s)
		for _, v := range s.vals {
			if v.Kind == KindObject {
				g.reach(v.Obj, unnamed)
			}
		}
	}
}

func (g *realmGraph) expand(i int32, o *Object) {
	o.eachOwn(func(key string, p *Property) {
		switch {
		case p.Accessor:
			g.reach(p.Get, objPath{parent: i, edge: edgeGet, key: key})
			g.reach(p.Set, objPath{parent: i, edge: edgeSet, key: key})
		case p.Value.Kind == KindObject:
			g.reach(p.Value.Obj, objPath{parent: i, edge: edgeValue, key: key})
		}
	})
	g.reach(o.Proto, objPath{parent: i, edge: edgeProto})
	for j, e := range o.Elems {
		if e.Kind == KindObject {
			g.reach(e.Obj, objPath{parent: i, edge: edgeElem, elem: int32(j)})
		}
	}
	if fd := o.fnd; fd != nil {
		g.scope(fd.Env)
		if fd.ThisVal.Kind == KindObject {
			g.reach(fd.ThisVal.Obj, unnamed)
		}
	}
}

// eachOwn calls fn for every own property in definition order.
func (o *Object) eachOwn(fn func(key string, p *Property)) {
	if o.props == nil {
		for _, e := range o.small {
			fn(e.key, e.p)
		}
		return
	}
	for _, k := range o.keys {
		if p := o.props[k]; p != nil {
			fn(k, p)
		}
	}
}

// objSnap is an object's state before the recorded run; its own
// properties are props[off:off+n] of the recording's flat snapshot.
type objSnap struct {
	class    string
	proto    *Object
	elems    []Value
	notExt   bool
	ver      uint32
	env      *Scope
	this     Value
	override string
	off, n   int
}

type propSnap struct {
	key  string
	ptr  *Property
	prop Property
}

// snapshot copies the state of every object and scope g reached.
func snapshot(g *realmGraph) ([]objSnap, []propSnap, [][]Value) {
	scopes := make([][]Value, len(g.scopes))
	for i, sc := range g.scopes {
		scopes[i] = append([]Value(nil), sc.vals...)
	}
	snaps := make([]objSnap, len(g.objs))
	var props []propSnap
	for i, o := range g.objs {
		s := &snaps[i]
		*s = objSnap{class: o.Class, proto: o.Proto, notExt: o.NotExtensible, ver: o.ver, off: len(props)}
		if len(o.Elems) > 0 {
			s.elems = append([]Value(nil), o.Elems...)
		}
		if fd := o.fnd; fd != nil {
			s.env, s.this, s.override = fd.Env, fd.ThisVal, fd.ToStringOverride
		}
		o.eachOwn(func(key string, p *Property) { props = append(props, propSnap{key, p, *p}) })
		s.n = len(props) - s.off
	}
	return snaps, props, scopes
}

// sameValue reports whether a and b are the identical value (NaN equals
// itself here: this compares recorded state, not JS equality).
func sameValue(a, b Value) bool {
	if a.Kind == KindNumber && b.Kind == KindNumber {
		return math.Float64bits(a.Num) == math.Float64bits(b.Num)
	}
	return a.Kind == b.Kind && a.Bool == b.Bool && a.Str == b.Str && a.Obj == b.Obj && a.Num == b.Num
}

func sameProp(a, b *Property) bool {
	return a.Accessor == b.Accessor && a.Enumerable == b.Enumerable && a.Writable == b.Writable &&
		a.Configurable == b.Configurable && a.Get == b.Get && a.Set == b.Set && sameValue(a.Value, b.Value)
}

// drawCounter is the Math.random source during a recording. It only counts
// draws: any draw fails the recording, so the values never matter.
type drawCounter struct{ draws int }

func (s *drawCounter) Int63() int64 { s.draws++; return 0 }
func (s *drawCounter) Seed(int64)   {}

// Record runs prog at the top level of the realm, exactly as RunProgram
// would, and returns an Image of its effect. The realm should be freshly
// built: everything the program reaches must be reachable from the realm's
// roots, and the program must depend on nothing but the realm's structure
// (no clock, no host state). Record fails when the run fails or when the
// effect is one an image cannot reproduce: a draw from Math.random, console
// output, a new native function or host object, a change to an existing
// object other than defining or deleting its properties, or a closure over a
// scope that existed before the run.
func (it *Interp) Record(prog *Program) (*Image, error) {
	before := walkRealm(it)
	snaps, props, scopes := snapshot(before)
	consoleN, allocs0 := len(it.ConsoleLog), it.allocs
	rng := it.rng
	src := &drawCounter{}
	it.rng = rand.New(src)
	_, err := it.RunProgram(prog)
	it.rng = rng
	if err != nil {
		return nil, err
	}
	switch {
	case src.draws > 0:
		return nil, errors.New("minjs: image: program drew from Math.random")
	case len(it.ConsoleLog) != consoleN:
		return nil, errors.New("minjs: image: program wrote to the console")
	}
	r := &recorder{before: before, snaps: snaps, props: props, scopeVals: scopes}
	img, err := r.build(it)
	if err != nil {
		return nil, err
	}
	img.steps, img.allocs = it.steps, it.allocs-allocs0
	return img, nil
}

type recorder struct {
	before    *realmGraph
	snaps     []objSnap
	props     []propSnap
	scopeVals [][]Value   // bindings of every scope the before walk reached
	after     *realmGraph // what the run created: objects and captured scopes
	root      *Scope
	need      []bool  // before-walk objects the effect references, plus their path ancestors
	refSlot   []int32 // slot of each needed before-walk object
	nRefs     int32
	err       error
}

func (r *recorder) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("minjs: image: "+format, args...)
	}
}

// use notes a reference to o while scanning what the run created or changed.
func (r *recorder) use(o *Object) {
	if o == nil {
		return
	}
	i, ok := r.before.index[o]
	if !ok {
		return // created by the run
	}
	for ; i >= 0 && !r.need[i]; i = r.before.paths[i].parent {
		if r.before.paths[i].parent == -2 {
			r.fail("program references an object no path from the realm roots names")
			return
		}
		r.need[i] = true
	}
}

func (r *recorder) useValue(v Value) {
	if v.Kind == KindObject {
		r.use(v.Obj)
	}
}

func (r *recorder) useProp(p *Property) {
	r.useValue(p.Value)
	r.use(p.Get)
	r.use(p.Set)
}

// captured reports whether s is a scope the image can name: the root scope
// or one the run created.
func (r *recorder) captured(s *Scope) bool {
	_, ok := r.after.sindex[s]
	return ok || s == r.root
}

func (r *recorder) build(it *Interp) (*Image, error) {
	img := &Image{}
	r.root = it.root
	r.need = make([]bool, len(r.before.objs))
	for i, s := range r.before.scopes {
		old := r.scopeVals[i]
		if len(s.vals) != len(old) {
			r.fail("program declared a binding in a scope that predates the run")
			continue
		}
		for j := range old {
			if !sameValue(s.vals[j], old[j]) {
				r.fail("program rebound %q in a scope that predates the run", s.names[j])
			}
		}
	}
	// Whatever the run created hangs off an object it changed, so a walk
	// from the changed objects that stops at everything the before walk saw
	// finds exactly the new objects and scopes.
	var edited []int32
	r.after = &realmGraph{index: map[*Object]int32{}, sindex: map[*Scope]int32{}, skip: r.before}
	for i, o := range r.before.objs {
		if r.changed(int32(i), o) {
			edited = append(edited, int32(i))
			r.after.expand(-2, o)
		}
	}
	for i := 0; i < len(r.after.objs); i++ {
		r.after.expand(int32(i), r.after.objs[i])
	}
	for _, s := range r.after.scopes {
		if s.pooled || s.global != nil {
			r.fail("program captured a pooled or global scope")
		}
		if s.parent != nil && !r.captured(s.parent) {
			r.fail("captured scope's parent predates the run")
		}
		for _, v := range s.vals {
			r.useValue(v)
		}
	}

	// pass 1: which pre-existing objects does the effect reference?
	for _, o := range r.after.objs {
		if o.Host != nil {
			r.fail("program created a host object of class %s", o.Class)
		}
		if fd := o.fnd; fd != nil {
			if fd.Fn == nil || fd.Native != nil {
				r.fail("program created a native function %q", fd.NativeName)
				continue
			}
			if !r.captured(fd.Env) {
				r.fail("function %q closes over a scope that predates the run", fd.Fn.Name)
			}
			r.useValue(fd.ThisVal)
		}
		r.use(o.Proto)
		o.eachOwn(func(_ string, p *Property) { r.useProp(p) })
		for _, e := range o.Elems {
			r.useValue(e)
		}
	}
	var edits []rawEdit
	for _, i := range edited {
		e := r.diff(i)
		r.use(r.before.objs[i])
		for _, op := range e.ops {
			if op.p != nil {
				r.useProp(op.p)
			}
		}
		edits = append(edits, e)
	}
	if r.err != nil {
		return nil, r.err
	}

	// refs in walk order, so a parent always precedes its child
	r.refSlot = make([]int32, len(r.before.objs))
	for i, needed := range r.need {
		if !needed {
			continue
		}
		o, p := r.before.objs[i], r.before.paths[i]
		r.refSlot[i] = int32(len(img.refs))
		ref := imageRef{parent: -1, edge: p.edge, elem: p.elem, key: p.key, class: o.Class, native: o.NativeFnName()}
		if p.parent >= 0 {
			ref.parent = r.refSlot[p.parent]
		}
		if o.fnd != nil {
			ref.fn = o.fnd.Fn
		}
		img.refs = append(img.refs, ref)
	}
	r.nRefs = int32(len(img.refs))

	// pass 2: encode
	img.objs = make([]imageObj, len(r.after.objs))
	for i, o := range r.after.objs {
		ob := &img.objs[i]
		*ob = imageObj{class: o.Class, proto: r.slot(o.Proto), notExt: o.NotExtensible, ver: o.ver, env: -1, this: imageVal{slot: -1}}
		o.eachOwn(func(key string, p *Property) { ob.props = append(ob.props, r.prop(key, p)) })
		if len(o.Elems) > 0 {
			ob.elems = make([]imageVal, len(o.Elems))
			for j, e := range o.Elems {
				ob.elems[j] = r.val(e)
			}
		}
		if fd := o.fnd; fd != nil {
			ob.fn, ob.env, ob.this, ob.override = fd.Fn, r.scopeSlot(fd.Env), r.val(fd.ThisVal), fd.ToStringOverride
		}
	}
	img.scopes = make([]imageScope, len(r.after.scopes))
	for i, s := range r.after.scopes {
		sc := imageScope{names: make([]string, len(s.names)), vals: make([]imageVal, len(s.vals)), parent: r.scopeSlot(s.parent)}
		copy(sc.names, s.names)
		for j, v := range s.vals {
			sc.vals[j] = r.val(v)
		}
		img.scopes[i] = sc
	}
	for _, e := range edits {
		ie := imageEdit{slot: r.refSlot[e.obj], verDelta: r.before.objs[e.obj].ver - r.snaps[e.obj].ver, ops: make([]imageOp, len(e.ops))}
		for j, op := range e.ops {
			ie.ops[j] = imageOp{kind: op.kind, prop: imageProp{key: op.key}}
			if op.p != nil {
				ie.ops[j].prop = r.prop(op.key, op.p)
			}
		}
		img.edits = append(img.edits, ie)
	}
	return img, nil
}

// slot numbers o in the image: refs first, then the created objects in walk
// order; nil is -1.
func (r *recorder) slot(o *Object) int32 {
	if o == nil {
		return -1
	}
	if i, ok := r.before.index[o]; ok {
		return r.refSlot[i]
	}
	return r.nRefs + r.after.index[o]
}

// scopeSlot numbers s in the image: the root scope is 0, the captured
// scopes follow in walk order; nil is -1.
func (r *recorder) scopeSlot(s *Scope) int32 {
	if s == nil {
		return -1
	}
	if i, ok := r.after.sindex[s]; ok {
		return i + 1
	}
	return 0
}

func (r *recorder) val(v Value) imageVal {
	if v.Kind != KindObject {
		return imageVal{v: v, slot: -1}
	}
	return imageVal{v: Value{Kind: KindObject}, slot: r.slot(v.Obj)}
}

func (r *recorder) prop(key string, p *Property) imageProp {
	return imageProp{key: key, val: r.val(p.Value), get: r.slot(p.Get), set: r.slot(p.Set),
		attrs: Property{Accessor: p.Accessor, Enumerable: p.Enumerable, Writable: p.Writable, Configurable: p.Configurable}}
}

// changed reports whether the run altered pre-existing object i, failing
// the recording for alterations an image cannot replay.
func (r *recorder) changed(i int32, o *Object) bool {
	s := &r.snaps[i]
	if o.Class != s.class || o.Proto != s.proto || o.NotExtensible != s.notExt || len(o.Elems) != len(s.elems) {
		r.fail("program altered the shape of a %s object", s.class)
		return false
	}
	for j := range o.Elems {
		if !sameValue(o.Elems[j], s.elems[j]) {
			r.fail("program altered an element of a %s array", s.class)
			return false
		}
	}
	if fd := o.fnd; fd != nil && (fd.Env != s.env || !sameValue(fd.ThisVal, s.this) || fd.ToStringOverride != s.override) {
		r.fail("program altered function %q", o.NativeFnName())
		return false
	}
	if o.ver != s.ver {
		return true
	}
	old := r.props[s.off : s.off+s.n]
	n := 0
	diff := false
	o.eachOwn(func(key string, p *Property) {
		if n >= len(old) || old[n].key != key || old[n].ptr != p || !sameProp(p, &old[n].prop) {
			diff = true
		}
		n++
	})
	return diff || n != len(old)
}

// rawEdit is one pre-existing object's replay operations before encoding.
type rawEdit struct {
	obj int32
	ops []rawOp
}

type rawOp struct {
	kind uint8
	key  string
	p    *Property // nil for opDelete
}

// diff derives the replay operations for pre-existing object i. Keys that
// survived keep their relative order and precede every key the run added,
// so the longest prefix of the final key order that runs through the old
// keys in their old order stays put; every other old key was deleted (and
// perhaps re-added, which appends it).
func (r *recorder) diff(i int32) rawEdit {
	o, s := r.before.objs[i], &r.snaps[i]
	snap := r.props[s.off : s.off+s.n]
	e := rawEdit{obj: i}
	old := make(map[string]int, len(snap))
	for j, ps := range snap {
		old[ps.key] = j
	}
	var keys []string
	var ptrs []*Property
	o.eachOwn(func(key string, p *Property) {
		keys = append(keys, key)
		ptrs = append(ptrs, p)
	})
	prefix, last := 0, -1
	for prefix < len(keys) {
		j, ok := old[keys[prefix]]
		if !ok || j <= last {
			break
		}
		last = j
		prefix++
	}
	kept := make(map[string]bool, prefix)
	for _, k := range keys[:prefix] {
		kept[k] = true
	}
	for _, ps := range snap {
		if !kept[ps.key] {
			e.ops = append(e.ops, rawOp{kind: opDelete, key: ps.key})
		}
	}
	for n, k := range keys {
		p := ptrs[n]
		switch {
		case n >= prefix:
			e.ops = append(e.ops, rawOp{kind: opAppend, key: k, p: p})
		case p != snap[old[k]].ptr:
			e.ops = append(e.ops, rawOp{kind: opReplace, key: k, p: p})
		case !sameProp(p, &snap[old[k]].prop):
			e.ops = append(e.ops, rawOp{kind: opWrite, key: k, p: p})
		}
	}
	return e
}

// resolve finds ref's object in the realm whose earlier refs fill slots.
func (ref *imageRef) resolve(it *Interp, slots []*Object) *Object {
	var o *Object
	if ref.parent < 0 {
		o = realmRoots(it)[ref.elem]
	} else {
		p := slots[ref.parent]
		switch ref.edge {
		case edgeValue, edgeGet, edgeSet:
			pr, ok := p.lookupOwn(ref.key)
			switch {
			case !ok:
			case ref.edge == edgeGet && pr.Accessor:
				o = pr.Get
			case ref.edge == edgeSet && pr.Accessor:
				o = pr.Set
			case ref.edge == edgeValue && !pr.Accessor && pr.Value.Kind == KindObject:
				o = pr.Value.Obj
			}
		case edgeProto:
			o = p.Proto
		case edgeElem:
			if int(ref.elem) < len(p.Elems) && p.Elems[ref.elem].Kind == KindObject {
				o = p.Elems[ref.elem].Obj
			}
		}
	}
	if o == nil || o.Class != ref.class || o.NativeFnName() != ref.native {
		return nil
	}
	var fn *FuncLit
	if o.fnd != nil {
		fn = o.fnd.Fn
	}
	if fn != ref.fn {
		return nil
	}
	return o
}

// applies reports whether every key e touches is present (or, for an
// append, absent) on o as the recording found it.
func (e *imageEdit) applies(o *Object) bool {
	var deleted []string
	for _, op := range e.ops {
		_, has := o.lookupOwn(op.prop.key)
		switch op.kind {
		case opDelete:
			if !has {
				return false
			}
			deleted = append(deleted, op.prop.key)
		case opAppend:
			if has && !contains(deleted, op.prop.key) {
				return false
			}
		default:
			if !has {
				return false
			}
		}
	}
	return true
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func (v imageVal) in(slots []*Object) Value {
	if v.slot < 0 {
		return v.v
	}
	return Value{Kind: KindObject, Obj: slots[v.slot]}
}

func (p *imageProp) in(slots []*Object) Property {
	q := p.attrs
	q.Value = p.val.in(slots)
	if p.get >= 0 {
		q.Get = slots[p.get]
	}
	if p.set >= 0 {
		q.Set = slots[p.set]
	}
	return q
}

// Instantiate reproduces img's effect in this realm: it clones the recorded
// objects and scopes, rebinds their references to this realm's objects,
// replays the property edits and sets the step and alloc counters as the
// recorded run left them. It reports false, leaving the realm untouched,
// when a recorded path no longer leads to an object of the recorded class
// and native name, when an edit's keys are not as recorded, when an
// observation hook is installed (the recorded run fired none), or when the
// realm's step limit would have interrupted the recorded run. The caller
// owns the harder precondition: the realm must be built exactly as the
// recorded one was, and no script may have touched it since.
func (it *Interp) Instantiate(img *Image) bool {
	// a step limit below the recorded run's cost would have interrupted it
	if it.PropAccessHook != nil || it.EvalHook != nil || img.steps > it.stepLimit() {
		return false
	}
	slots := make([]*Object, len(img.refs)+len(img.objs))
	for i := range img.refs {
		if slots[i] = img.refs[i].resolve(it, slots); slots[i] == nil {
			return false
		}
	}
	for i := range img.edits {
		if !img.edits[i].applies(slots[img.edits[i].slot]) {
			return false
		}
	}

	// nothing below can fail. Everything comes from the realm's arenas or
	// from chunked batches whose capacity-capped sub-slices make a later
	// append copy instead of overrunning a neighbour.
	base := len(img.refs)
	for i := range img.objs {
		if img.objs[i].fn != nil {
			f := it.allocFunc()
			f.fnd = &f.fd
			slots[base+i] = &f.Object
		} else {
			slots[base+i] = it.allocObject()
		}
	}
	var props []Property
	var entries []propEntry
	scopes := make([]*Scope, len(img.scopes)+1)
	scopes[0] = it.root
	for i := range img.scopes {
		scopes[i+1] = it.allocScope()
	}
	for i := range img.scopes {
		sc, s := &img.scopes[i], scopes[i+1]
		s.names = sc.names
		s.vals = it.carveVals(len(sc.vals))
		for j := range sc.vals {
			s.vals = append(s.vals, sc.vals[j].in(slots))
		}
		if sc.parent >= 0 {
			s.parent = scopes[sc.parent]
		}
	}
	for i := range img.objs {
		ob, o := &img.objs[i], slots[base+i]
		o.Class, o.NotExtensible, o.ver = ob.class, ob.notExt, ob.ver
		if ob.proto >= 0 {
			o.Proto = slots[ob.proto]
		}
		if n := len(ob.props); n > smallPropsMax {
			o.props = make(map[string]*Property, n)
			o.keys = make([]string, n)
			ps := carve(&props, n, propBatch)
			for j := range ob.props {
				ps[j] = ob.props[j].in(slots)
				o.props[ob.props[j].key] = &ps[j]
				o.keys[j] = ob.props[j].key
			}
		} else if n > 0 {
			ps := carve(&props, n, propBatch)
			o.small = carve(&entries, n, entryBatch)
			for j := range ob.props {
				ps[j] = ob.props[j].in(slots)
				o.small[j] = propEntry{key: ob.props[j].key, p: &ps[j]}
			}
		}
		if len(ob.elems) > 0 {
			o.Elems = it.carveVals(len(ob.elems))
			for j := range ob.elems {
				o.Elems = append(o.Elems, ob.elems[j].in(slots))
			}
		}
		if ob.fn != nil {
			fd := o.fnd
			fd.Fn, fd.Env, fd.ThisVal, fd.ToStringOverride = ob.fn, scopes[ob.env], ob.this.in(slots), ob.override
		}
	}
	for i := range img.edits {
		e := &img.edits[i]
		o := slots[e.slot]
		ver := o.ver + e.verDelta
		for j := range e.ops {
			op := &e.ops[j]
			switch op.kind {
			case opDelete:
				o.Delete(op.prop.key)
			case opWrite:
				*o.GetOwn(op.prop.key) = op.prop.in(slots)
			default: // opReplace keeps the key's position, opAppend adds it last
				p := &carve(&props, 1, propBatch)[0]
				*p = op.prop.in(slots)
				o.DefineProperty(op.prop.key, p)
			}
		}
		o.ver = ver
	}
	it.steps = img.steps
	it.allocs += img.allocs
	return true
}

// Batch sizes for Instantiate's property slots and entries: small enough
// that every batch stays in the allocator's small-object size classes.
const (
	propBatch  = 128
	entryBatch = 256
)

// carve returns the next n elements of *buf as a capacity-capped slice,
// refilling *buf with a fresh batch of at least chunk elements when short.
func carve[T any](buf *[]T, n, chunk int) []T {
	if len(*buf) < n {
		*buf = make([]T, max(n, chunk))
	}
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

// GraphDigest returns a SHA-256 digest of the realm's object graph as
// script can observe it from the global object and the intrinsic
// prototypes: every reachable object's class, prototype link, own keys in
// order with their attributes and values, array elements, and function
// identity (script source position and text, or native name), plus the
// bindings of every reachable closure scope. Objects and scopes are
// numbered in walk order, so two realms digest equal exactly when their
// reachable graphs are isomorphic.
func (it *Interp) GraphDigest() [32]byte {
	g := walkRealm(it)
	h := sha256.New()
	var buf []byte
	str := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	num := func(n int64) { buf = binary.AppendVarint(buf, n) }
	flag := func(b bool) {
		if b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	ref := func(o *Object) {
		if o == nil {
			num(-1)
			return
		}
		num(int64(g.index[o]))
	}
	val := func(v Value) {
		buf = append(buf, byte(v.Kind))
		switch v.Kind {
		case KindBool:
			flag(v.Bool)
		case KindNumber:
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v.Num))
		case KindString:
			str(v.Str)
		case KindObject:
			ref(v.Obj)
		}
	}
	for _, o := range g.objs {
		buf = buf[:0]
		str(o.Class)
		ref(o.Proto)
		flag(o.NotExtensible)
		o.eachOwn(func(key string, p *Property) {
			str(key)
			flag(p.Accessor)
			flag(p.Enumerable)
			flag(p.Writable)
			flag(p.Configurable)
			if p.Accessor {
				ref(p.Get)
				ref(p.Set)
			} else {
				val(p.Value)
			}
		})
		num(int64(len(o.Elems)))
		for _, e := range o.Elems {
			val(e)
		}
		if fd := o.fnd; fd != nil {
			str(fd.NativeName)
			flag(fd.Native != nil)
			if fd.Fn != nil {
				str(fd.Fn.Script)
				num(int64(fd.Fn.Line))
				str(fd.Fn.SrcText)
			}
			str(fd.ToStringOverride)
			val(fd.ThisVal)
			if fd.Env != nil {
				num(int64(g.sindex[fd.Env]))
			} else {
				num(-1)
			}
		}
		h.Write(buf)
	}
	for _, s := range g.scopes {
		buf = buf[:0]
		flag(s.global != nil)
		for i, name := range s.names {
			str(name)
			val(s.vals[i])
		}
		if s.parent != nil {
			num(int64(g.sindex[s.parent]))
		} else {
			num(-1)
		}
		h.Write(buf)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}
