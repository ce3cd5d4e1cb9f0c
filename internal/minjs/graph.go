package minjs

// A graph is a flattened piece of a realm: objects, their properties and
// elements, and closure scopes, with every pointer turned into a slot
// number. It is the one snapshot format behind realm templates (the whole
// realm as construction left it) and instrument images (what one program
// added to a realm). A flattener writes it from a walk; materialize copies
// it into a realm, each kind of record into one bulk array.
//
// Object slots number first the objects the graph refers to but does not
// hold, which materialize is given (an image's pre-existing objects; a
// template has none), then the graph's plain objects, then its function
// objects; -1 is nil. Scope slot 0 is the realm's root scope and slot i+1
// is scopes[i]; -1 is nil. A graph is immutable once written and safe to
// materialize from several goroutines.
type graph struct {
	nOut   int32      // slots before the graph's own objects
	objs   []objRec   // plain objects, then function objects
	nPlain int        // how many of objs are plain objects
	scopes []scopeRec // scopes the graph's functions close over
	props  []propRec  // every object's own properties, object after object
	vals   []valRec   // every array's elements, then every scope's bindings
	nSmall int        // props held in the small representation
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
		} else {
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

// copied is one materialize's bulk storage, through which slots become
// objects.
type copied struct {
	out   []*Object // the objects before the graph's own
	objs  []Object
	fns   []funcObject
	props []Property // property slots left after the graph's
}

func (c *copied) at(i int32) *Object {
	if int(i) < len(c.out) {
		return c.out[i]
	}
	i -= int32(len(c.out))
	if int(i) < len(c.objs) {
		return &c.objs[i]
	}
	return &c.fns[int(i)-len(c.objs)].Object
}

func (c *copied) ref(i int32) *Object {
	if i < 0 {
		return nil
	}
	return c.at(i)
}

func (c *copied) val(r *valRec) Value {
	v := r.v
	if r.obj >= 0 {
		v.Obj = c.at(r.obj)
	}
	return v
}

// fill sets *p to the property r records.
func (c *copied) fill(p *Property, r *propRec) {
	*p = r.prop
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

// materialize copies g into the realm it: out fills the slots before g's
// own objects, objects of host kind hostStamp get host, and extra property
// slots beyond g's are left in the result's props for the caller. Objects,
// function objects, scopes, property slots, small-representation entries
// and values each land in one allocation sized from g; every slice carved
// from them is capacity-capped, so a later append copies instead of
// overrunning a neighbour. Each object keeps the version, write counter
// and extensibility g recorded.
func (g *graph) materialize(it *Interp, out []*Object, host any, extra int) copied {
	c := copied{out: out, objs: make([]Object, g.nPlain), fns: make([]funcObject, len(g.objs)-g.nPlain)}
	props := make([]Property, len(g.props)+extra)
	entries := make([]propEntry, g.nSmall)
	vals := make([]Value, len(g.vals))
	run := func(lo, n int32) []Value {
		v := vals[lo : lo+n : lo+n]
		for j := range v {
			v[j] = c.val(&g.vals[lo+int32(j)])
		}
		return v
	}
	scopes := make([]Scope, len(g.scopes))
	scope := func(i int32) *Scope {
		switch {
		case i < 0:
			return nil
		case i == 0:
			return it.root
		}
		return &scopes[i-1]
	}
	for i := range g.scopes {
		rec, s := &g.scopes[i], &scopes[i]
		s.names, s.vals, s.parent, s.writes = rec.names, run(rec.vals, rec.nvals), scope(rec.parent), rec.writes
	}
	for i := range g.objs {
		rec := &g.objs[i]
		o := c.at(g.nOut + int32(i))
		o.Class, o.Proto, o.NotExtensible, o.ver, o.writes = rec.class, c.ref(rec.proto), rec.notExt, rec.ver, rec.writes
		switch rec.host {
		case hostNone:
		case hostStamp:
			o.Host = host
		case hostInterp:
			o.Host = it
		default:
			o.Host = c.at(rec.host)
		}
		lo, hi := rec.props, rec.props+rec.nprops
		ps, rps := props[lo:hi:hi], g.props[lo:hi]
		for j := range rps {
			c.fill(&ps[j], &rps[j])
		}
		switch {
		case rec.spilled:
			o.props = make(map[string]*Property, len(rps))
			for j := range rps {
				o.props[rps[j].key] = &ps[j]
			}
			o.keys = rec.keys
		case len(rps) > 0:
			o.small = carve(&entries, len(rps))
			for j := range rps {
				o.small[j] = propEntry{key: rps[j].key, p: &ps[j]}
			}
		}
		if rec.nelems > 0 {
			o.Elems = run(rec.elems, rec.nelems)
		}
		if i >= g.nPlain {
			f := &c.fns[i-g.nPlain]
			f.fnd = &f.fd
			f.fd.Native, f.fd.NativeName, f.fd.Fn, f.fd.Env = rec.native, rec.name, rec.fn, scope(rec.env)
			if rec.this != nil {
				this := c.val(rec.this)
				f.fd.this = &this
			}
		}
	}
	c.props = props[len(g.props):]
	return c
}

// carve returns the next n elements of *buf as a capacity-capped slice.
func carve[T any](buf *[]T, n int) []T {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}
