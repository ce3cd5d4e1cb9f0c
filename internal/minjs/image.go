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
	graph             // what the program created; its outside slots are refs
	refs  []imageRef  // pre-existing objects, parents before children
	edits []imageEdit // changes to pre-existing objects
	// the counters the run left: steps in total, allocs as a delta
	steps, allocs int64
	nAppends      int // properties the edits append
}

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

// Edit operations on a pre-existing object, in the order they are replayed.
const (
	opDelete uint8 = iota // remove key
	opWrite               // redefine or overwrite key, keeping its position
	opAppend              // define key after every existing key
)

type imageOp struct {
	kind uint8
	prop propRec // only the key for opDelete
}

// imageEdit is what the run did to one pre-existing object: its ops, and
// how far its version and write counter moved, which replaying the ops
// alone need not reproduce (a key written twice, or written back).
type imageEdit struct {
	slot                 int32
	ops                  []imageOp
	verDelta, writeDelta uint32
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

// walkRealm walks the realm from its roots and then from extra, objects
// only the host holds, which no path can name.
func walkRealm(it *Interp, extra ...*Object) *realmGraph {
	g := &realmGraph{index: map[*Object]int32{}, sindex: map[*Scope]int32{}}
	for i, r := range realmRoots(it) {
		g.reach(r, objPath{parent: -1, edge: edgeRoot, elem: int32(i)})
	}
	for _, r := range extra {
		g.reach(r, unnamed)
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
		if fd.this != nil && fd.this.Kind == KindObject {
			g.reach(fd.this.Obj, unnamed)
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
	class  string
	proto  *Object
	elems  []Value
	notExt bool
	ver    uint32
	writes uint32
	env    *Scope
	this   Value
	off, n int
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
		*s = objSnap{class: o.Class, proto: o.Proto, notExt: o.NotExtensible, ver: o.ver, writes: o.writes, off: len(props)}
		if len(o.Elems) > 0 {
			s.elems = append([]Value(nil), o.Elems...)
		}
		if fd := o.fnd; fd != nil {
			s.env, s.this = fd.Env, fd.thisVal()
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
	rng := it.rng // nil before the first draw; restored as is
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
			r.useValue(fd.thisVal())
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
	// pass 2: flatten what the run created, naming the refs as outside
	// slots
	f := &flattener{g: &img.graph, index: r.after.index, sindex: r.after.sindex,
		outside: func(o *Object) int32 { return r.refSlot[r.before.index[o]] }}
	img.nOut = int32(len(img.refs))
	f.flatten(r.after.objs, r.after.scopes)
	for _, e := range edits {
		o, s := r.before.objs[e.obj], &r.snaps[e.obj]
		ie := imageEdit{slot: r.refSlot[e.obj], verDelta: o.ver - s.ver, writeDelta: o.writes - s.writes, ops: make([]imageOp, len(e.ops))}
		for j, op := range e.ops {
			ie.ops[j] = imageOp{kind: op.kind, prop: propRec{key: op.key}}
			if op.p != nil {
				ie.ops[j].prop = f.prop(op.key, op.p)
			}
			if op.kind == opAppend {
				img.nAppends++
			}
		}
		img.edits = append(img.edits, ie)
	}
	return img, nil
}

// changed reports whether the run altered pre-existing object i or moved
// its counters, failing the recording for alterations an image cannot
// replay.
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
	if fd := o.fnd; fd != nil && (fd.Env != s.env || !sameValue(fd.thisVal(), s.this)) {
		r.fail("program altered function %q", o.NativeFnName())
		return false
	}
	if o.ver != s.ver || o.writes != s.writes {
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
		case p != snap[old[k]].ptr || !sameProp(p, &snap[old[k]].prop):
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

// Instantiate reproduces img's effect in this realm: it materializes the
// recorded objects and scopes with their references rebound to this
// realm's objects, replays the property edits, and sets the edited
// objects' counters and the step and alloc counters as the recorded run
// left them. It reports false, leaving the realm untouched, when a
// recorded path no longer leads to an object of the recorded class and
// native name, when an edit's keys are not as recorded, when an
// observation hook is installed (the recorded run fired none), or when the
// realm's step limit would have interrupted the recorded run. The caller
// owns the harder precondition: the realm must be built exactly as the
// recorded one was, and no script may have touched it since.
func (it *Interp) Instantiate(img *Image) bool {
	// a step limit below the recorded run's cost would have interrupted it
	if it.PropAccessHook != nil || it.EvalHook != nil || img.steps > it.stepLimit() {
		return false
	}
	refs := make([]*Object, len(img.refs))
	for i := range img.refs {
		if refs[i] = img.refs[i].resolve(it, refs); refs[i] == nil {
			return false
		}
	}
	for i := range img.edits {
		if !img.edits[i].applies(refs[img.edits[i].slot]) {
			return false
		}
	}

	// nothing below can fail
	c := img.materialize(it, refs, nil, img.nAppends)
	for i := range img.edits {
		e := &img.edits[i]
		o := refs[e.slot]
		ver, writes := o.ver+e.verDelta, o.writes+e.writeDelta
		if writes < o.writes {
			writes = maxWrites // stop where touch stops instead of wrapping
		}
		for j := range e.ops {
			op := &e.ops[j]
			switch op.kind {
			case opDelete:
				o.Delete(op.prop.key)
			case opAppend:
				p := &carve(&c.props, 1)[0]
				c.fill(p, &op.prop)
				o.DefineProperty(op.prop.key, p)
			case opWrite:
				// a redefined key keeps its position, so its slot can take
				// the new property: with the counters set below, that is
				// what redefining it would leave
				c.fill(o.GetOwn(op.prop.key), &op.prop)
			}
		}
		o.ver, o.writes = ver, writes
	}
	it.steps = img.steps
	it.allocs += img.allocs
	return true
}

// GraphDigest returns a SHA-256 digest of the realm's object graph as
// script can observe it from the global object and the intrinsic
// prototypes: every reachable object's class, prototype link, own keys in
// order with their attributes and values, array elements, and function
// identity (script source position and text, or native name), plus the
// bindings of every reachable closure scope. Objects and scopes are
// numbered in walk order, so two realms digest equal exactly when their
// reachable graphs are isomorphic. It is the tests' oracle for images and
// for the write counters behind MarkWrites; the crawl never calls it.
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
			val(fd.thisVal())
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

// ObjectCounters is one object's class and counters: ver counts its
// structural changes, Writes every change script can see.
type ObjectCounters struct {
	Class       string
	Ver, Writes uint32
}

// Counters returns the class and counters of every object GraphDigest
// walks, in its walk order. Like GraphDigest it is a tests' oracle, here
// for realm templates: a stamped realm must carry the counters its
// construction would have left, which the digest does not cover.
func (it *Interp) Counters() []ObjectCounters {
	g := walkRealm(it)
	out := make([]ObjectCounters, len(g.objs))
	for i, o := range g.objs {
		out[i] = ObjectCounters{Class: o.Class, Ver: o.ver, Writes: o.writes}
	}
	return out
}
