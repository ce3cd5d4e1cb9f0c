package minjs

// A graph is a flattened piece of a realm: objects, their properties and
// elements, and closure scopes, with every pointer turned into a slot
// number. It is the one snapshot format behind realm templates (the whole
// realm as construction left it) and instrument images (what one program
// added to a realm). A flattener writes it from a walk; materialize copies
// it into a realm, making function objects and scopes only as they are
// reached.
//
// Object slots number first the objects the graph refers to but does not
// hold, which materialize is given (an image's pre-existing objects; a
// template has none), then the graph's plain objects, then its function
// objects; -1 is nil. The plain objects' properties and elements come
// before the function objects'. Scope slot 0 is the realm's root scope and
// slot i+1 is scopes[i]; -1 is nil. A graph is immutable once written and
// safe to materialize from several goroutines.
type graph struct {
	nOut   int32      // slots before the graph's own objects
	objs   []objRec   // plain objects, then function objects
	nPlain int        // how many of objs are plain objects
	scopes []scopeRec // scopes the graph's functions close over
	props  []propRec  // every object's own properties, object after object, then an image's edits'
	vals   []valRec   // every array's elements, then every scope's bindings
	nSmall int        // plain objects' props held in the small representation
}

// Host kinds of an object record; values >= 0 name an object's slot.
const (
	hostNone   int32 = -1 // Host is nil
	hostStamp  int32 = -2 // Host is the host value materialize is given
	hostInterp int32 = -3 // Host is the realm's interpreter
)

// objRec is one object: its own properties are props[props:props+nprops]
// and its elements vals[elems:elems+nelems].
type objRec struct {
	class   string
	keys    []string   // key order of a spilled object (cap == len, shared by every copy); nil in the small representation
	native  NativeFunc // native function objects
	name    string     // native name
	fn      *FuncLit   // script function objects
	this    *valRec    // an arrow function's bound this
	proto   int32
	host    int32
	env     int32 // closure scope slot of a script function
	props   int32
	nprops  int32
	elems   int32
	nelems  int32
	ver     uint32
	writes  uint32
	notExt  bool
	spilled bool // props live in the map representation
}

// propRec is one own property: its attributes and primitive value, with
// object references held as slots.
type propRec struct {
	key           string
	prop          Property // Value.Obj, Get and Set are nil
	val, get, set int32
}

// valRec is a Value: primitives verbatim, objects by slot.
type valRec struct {
	v   Value
	obj int32 // -1 for a primitive
}

// scopeRec is one closure scope: its bindings are vals[vals:vals+nvals].
type scopeRec struct {
	names  []string // cap == len, shared by every copy, so declare copies
	vals   int32
	nvals  int32
	parent int32
	writes uint32
}

// flattener writes the objects and scopes of one walk into a graph.
type flattener struct {
	g      *graph
	index  map[*Object]int32 // walk index of every object the graph holds
	sindex map[*Scope]int32  // walk index of every scope the graph holds
	order  []int32           // slot of each walk index
	// outside is the slot of an object the graph refers to but does not
	// hold; nil when it holds everything it refers to
	outside func(*Object) int32
}

// flatten writes objs, whose walk indices f.index holds, and scopes, whose
// walk indices f.sindex holds, into f.g. Every object's host kind is
// hostNone; a caller whose objects carry a Host sets the kinds after.
func (f *flattener) flatten(objs []*Object, scopes []*Scope) {
	g := f.g
	f.order = make([]int32, len(objs))
	byOrder := make([]*Object, 0, len(objs))
	for _, fns := range []bool{false, true} {
		for i, o := range objs {
			if (o.fnd != nil) == fns {
				f.order[i] = g.nOut + int32(len(byOrder))
				byOrder = append(byOrder, o)
			}
		}
		if !fns {
			g.nPlain = len(byOrder)
		}
	}
	nprops, nvals := 0, 0
	for _, o := range byOrder {
		if o.props != nil {
			nprops += len(o.props)
		} else {
			nprops += len(o.small)
		}
		nvals += len(o.Elems)
	}
	for _, s := range scopes {
		nvals += len(s.vals)
	}
	g.objs = make([]objRec, len(byOrder))
	g.props = make([]propRec, 0, nprops)
	g.vals = make([]valRec, 0, nvals)
	for i, o := range byOrder {
		rec := &g.objs[i]
		*rec = objRec{class: o.Class, proto: f.slot(o.Proto), host: hostNone, env: -1,
			ver: o.ver, writes: o.writes, notExt: o.NotExtensible, spilled: o.props != nil}
		if fd := o.fnd; fd != nil {
			rec.native, rec.name, rec.fn, rec.env = fd.Native, fd.NativeName, fd.Fn, f.scopeSlot(fd.Env)
			if fd.this != nil {
				this := f.val(*fd.this)
				rec.this = &this
			}
		}
		rec.props = int32(len(g.props))
		o.eachOwn(func(key string, p *Property) {
			g.props = append(g.props, f.prop(key, p))
			if rec.spilled {
				rec.keys = append(rec.keys, key)
			}
		})
		rec.nprops = int32(len(g.props)) - rec.props
		if rec.spilled {
			rec.keys = append(make([]string, 0, len(rec.keys)), rec.keys...)
		} else if i < g.nPlain {
			g.nSmall += int(rec.nprops)
		}
		rec.elems = int32(len(g.vals))
		for _, e := range o.Elems {
			g.vals = append(g.vals, f.val(e))
		}
		rec.nelems = int32(len(g.vals)) - rec.elems
	}
	g.scopes = make([]scopeRec, len(scopes))
	for i, s := range scopes {
		g.scopes[i] = scopeRec{names: append(make([]string, 0, len(s.names)), s.names...), vals: int32(len(g.vals)),
			nvals: int32(len(s.vals)), parent: f.scopeSlot(s.parent), writes: s.writes}
		for _, v := range s.vals {
			g.vals = append(g.vals, f.val(v))
		}
	}
}

// slot numbers o in the graph; nil is -1.
func (f *flattener) slot(o *Object) int32 {
	if o == nil {
		return -1
	}
	if i, ok := f.index[o]; ok {
		return f.order[i]
	}
	return f.outside(o)
}

// scopeSlot numbers s in the graph: a scope it holds is its walk index
// plus one, any other is the root scope; nil is -1.
func (f *flattener) scopeSlot(s *Scope) int32 {
	if s == nil {
		return -1
	}
	if i, ok := f.sindex[s]; ok {
		return i + 1
	}
	return 0
}

func (f *flattener) val(v Value) valRec {
	if v.Kind != KindObject {
		return valRec{v: v, obj: -1}
	}
	return valRec{v: Value{Kind: KindObject}, obj: f.slot(v.Obj)}
}

func (f *flattener) prop(key string, p *Property) propRec {
	r := propRec{key: key, prop: *p, val: -1, get: f.slot(p.Get), set: f.slot(p.Set)}
	r.prop.Get, r.prop.Set = nil, nil
	if p.Value.Kind == KindObject {
		r.val = f.slot(p.Value.Obj)
		r.prop.Value.Obj = nil
	}
	return r
}

// copied is one materialize's storage and its table of lazy functions.
// Plain objects are made in bulk when the graph is materialized. A function
// object is made only when something first reaches it: a property slot that
// names one not made yet holds a lazy value instead (see Property.force),
// and every other reference (a prototype link, a Host, an array element, a
// scope binding, an arrow function's this, a root) makes the function as
// the object holding it is made. Making a function makes its own properties
// and, for a script function, its closure scopes with their bindings, so
// what is made is always a closed cluster. Each slot becomes at most one
// object, which keeps the version and write counter the graph recorded:
// making is not a write, and the realm's step and alloc counters were
// charged when the graph was materialized.
type copied struct {
	anchor Object // the Obj of every lazy property value; its Host is the copy
	g      *graph
	it     *Interp
	host   any
	out    []*Object // the objects before the graph's own
	objs   []Object
	fns    []*Object  // function objects made so far; nil for the rest
	scopes []*Scope   // scopes made so far: scopes[i] is scope slot i+1
	made   []int32    // what was made, in order: function k as k, scope i as ^i
	props  []Property // property slots left after the graph's
}

// kindLazy marks the value of a property slot that names a function not
// made yet: Num is the index of the slot's record in its graph's props and
// Obj the copy's anchor. It never leaves the slot: lookupOwn and eachOwn
// force the slot before handing it out.
const kindLazy = KindObject + 1

// force makes the objects the lazy slot p names and stores them in it.
func (p *Property) force() {
	c := p.Value.Obj.Host.(*copied)
	r := &c.g.props[int(p.Value.Num)]
	p.Value = r.prop.Value
	c.resolve(p, r)
}

// at returns the object in slot i, making it if it is a function not made
// yet.
func (c *copied) at(i int32) *Object {
	if int(i) < len(c.out) {
		return c.out[i]
	}
	i -= int32(len(c.out))
	if int(i) < len(c.objs) {
		return &c.objs[i]
	}
	return c.fn(int(i) - len(c.objs))
}

func (c *copied) ref(i int32) *Object {
	if i < 0 {
		return nil
	}
	return c.at(i)
}

// unmade reports whether slot i is a function not made yet.
func (c *copied) unmade(i int32) bool {
	k := int(i) - len(c.out) - len(c.objs)
	return i >= 0 && k >= 0 && c.fns[k] == nil
}

func (c *copied) val(r *valRec) Value {
	v := r.v
	if r.obj >= 0 {
		v.Obj = c.at(r.obj)
	}
	return v
}

// fill sets *p to the property record ri of the graph, lazy when it names a
// function not made yet.
func (c *copied) fill(p *Property, ri int32) {
	r := &c.g.props[ri]
	*p = r.prop
	if c.unmade(r.val) || c.unmade(r.get) || c.unmade(r.set) {
		p.Value = Value{Kind: kindLazy, Num: float64(ri), Obj: &c.anchor}
		return
	}
	c.resolve(p, r)
}

// resolve points p, which holds r's primitive parts, at the objects r
// names, making those not made yet.
func (c *copied) resolve(p *Property, r *propRec) {
	if r.val >= 0 {
		p.Value.Obj = c.at(r.val)
	}
	if r.get >= 0 {
		p.Get = c.at(r.get)
	}
	if r.set >= 0 {
		p.Set = c.at(r.set)
	}
}

// fn returns function k of the graph, making it and what it references
// if it is not made yet.
func (c *copied) fn(k int) *Object {
	if o := c.fns[k]; o != nil {
		return o
	}
	f := c.it.allocFunc()
	c.fns[k] = &f.Object
	c.made = append(c.made, int32(k))
	rec := &c.g.objs[c.g.nPlain+k]
	f.fnd = &f.fd
	f.fd.Native, f.fd.NativeName, f.fd.Fn = rec.native, rec.name, rec.fn
	var ps []Property
	var entries []propEntry
	var elems []Value
	if rec.nprops > 0 {
		ps = make([]Property, rec.nprops)
		if !rec.spilled {
			entries = make([]propEntry, rec.nprops)
		}
	}
	if rec.nelems > 0 {
		elems = make([]Value, rec.nelems)
	}
	c.build(&f.Object, rec, ps, entries, elems)
	f.fd.Env = c.scope(rec.env)
	if rec.this != nil {
		this := c.val(rec.this)
		f.fd.this = &this
	}
	return &f.Object
}

// scope returns scope slot i, making it, its bindings and its parents if
// they are not made yet.
func (c *copied) scope(i int32) *Scope {
	switch {
	case i < 0:
		return nil
	case i == 0:
		return c.it.root
	case c.scopes[i-1] != nil:
		return c.scopes[i-1]
	}
	rec, s := &c.g.scopes[i-1], c.it.allocScope()
	c.scopes[i-1] = s
	c.made = append(c.made, ^(i - 1))
	s.names, s.writes = rec.names, rec.writes
	s.vals = c.it.carveVals(int(rec.nvals))[:rec.nvals]
	for j := range s.vals {
		s.vals[j] = c.val(&c.g.vals[rec.vals+int32(j)])
	}
	s.parent = c.scope(rec.parent)
	return s
}

// build makes o the object rec records, its own properties stored in ps
// (with entries for the small representation) and its elements in elems,
// each sized from rec.
func (c *copied) build(o *Object, rec *objRec, ps []Property, entries []propEntry, elems []Value) {
	o.Class, o.Proto, o.NotExtensible, o.ver, o.writes = rec.class, c.ref(rec.proto), rec.notExt, rec.ver, rec.writes
	switch rec.host {
	case hostNone:
	case hostStamp:
		o.Host = c.host
	case hostInterp:
		o.Host = c.it
	default:
		o.Host = c.at(rec.host)
	}
	for j := range ps {
		c.fill(&ps[j], rec.props+int32(j))
	}
	switch {
	case rec.spilled:
		o.props = make(map[string]*Property, len(ps))
		for j := range ps {
			o.props[c.g.props[rec.props+int32(j)].key] = &ps[j]
		}
		o.keys = rec.keys
	case len(ps) > 0:
		o.small = entries
		for j := range ps {
			o.small[j] = propEntry{key: c.g.props[rec.props+int32(j)].key, p: &ps[j]}
		}
	}
	for j := range elems {
		elems[j] = c.val(&c.g.vals[rec.elems+int32(j)])
	}
	if len(elems) > 0 {
		o.Elems = elems
	}
}

// materialize copies g into the realm it: out fills the slots before g's
// own objects, objects of host kind hostStamp get host, and extra property
// slots are left in the result's props for the caller. The plain objects,
// their property slots, small-representation entries and elements each
// land in one allocation sized from g, and every slice carved from them is
// capacity-capped, so a later append copies instead of overrunning a
// neighbour. Function objects and scopes are made as they are reached (see
// copied). Each object keeps the version, write counter and extensibility
// g recorded.
func (g *graph) materialize(it *Interp, out []*Object, host any, extra int) *copied {
	c := &copied{g: g, it: it, host: host, out: out, objs: make([]Object, g.nPlain),
		fns: make([]*Object, len(g.objs)-g.nPlain), scopes: make([]*Scope, len(g.scopes))}
	c.anchor.Host = c
	it.lazy = append(it.lazy, c)
	var nprops, nvals int32
	if g.nPlain > 0 {
		last := &g.objs[g.nPlain-1]
		nprops, nvals = last.props+last.nprops, last.elems+last.nelems
	}
	props := make([]Property, int(nprops)+extra)
	entries := make([]propEntry, g.nSmall)
	vals := make([]Value, nvals)
	for i := range c.objs {
		rec := &g.objs[i]
		lo, hi := rec.props, rec.props+rec.nprops
		var es []propEntry
		if !rec.spilled {
			es = carve(&entries, int(rec.nprops))
		}
		c.build(&c.objs[i], rec, props[lo:hi:hi], es, vals[rec.elems:rec.elems+rec.nelems:rec.elems+rec.nelems])
	}
	c.props = props[nprops:]
	return c
}

// LazyFunctions reports how many function objects of the copies the realm
// was stamped or installed from have been made so far, and how many are
// still deferred until something reaches them.
func (it *Interp) LazyFunctions() (made, deferred int) {
	for _, c := range it.lazy {
		for _, o := range c.fns {
			if o != nil {
				made++
			} else {
				deferred++
			}
		}
	}
	return made, deferred
}

// carve returns the next n elements of *buf as a capacity-capped slice.
func carve[T any](buf *[]T, n int) []T {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}
