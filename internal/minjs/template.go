package minjs

import (
	"errors"
	"fmt"
)

// Template is a built realm frozen as a copy source. Stamp makes a new realm
// whose object graph, object counters, step and alloc counters and natives
// equal the template's, by copying the graph once instead of running the
// construction code that built it: objects, function objects and property
// slots land in a few bulk allocations, and every pointer is remapped by
// index. A template holds no pointer into the object graph it was made
// from, is immutable once made, and is safe to stamp from several
// goroutines.
//
// Stamped realms share the template's natives, so every native in the
// template must find its realm through its receiver or through its own
// function object (Interp.Callee), never through a Go closure over
// per-realm state: see NativeFunc.
type Template struct {
	objs   []tplObj  // plain objects first, then function objects
	nPlain int       // how many of objs are plain objects
	props  []tplProp // every object's own properties, object after object
	elems  []tplVal  // every array's elements, array after array
	nSmall int       // props entries held in the small representation
	roots  [8]int32  // realmRoots, by index
	extra  []int32   // the extra roots NewTemplate was given

	steps, allocs int64
	stepLimit     int64
	seed          int64
	maxDepth      int
}

// Host field kinds of a template object; values >= 0 name an object.
const (
	hostNone   int32 = -1 // Host is nil
	hostStamp  int32 = -2 // Host is the host value the stamp is given
	hostInterp int32 = -3 // Host is the realm's interpreter
)

type tplObj struct {
	class   string
	keys    []string   // key order of an object in the map representation (cap == len, shared by every stamp); nil in the small one
	native  NativeFunc // function objects only
	name    string     // native name
	proto   int32
	host    int32
	props   int32 // first of the object's props
	nprops  int32
	elems   int32 // first of the object's elements
	nelems  int32
	notExt  bool
	ver     uint32
	writes  uint32
	spilled bool
}

// tplProp is one own property: its attributes and primitive value, with
// object references held as indices (-1 for none).
type tplProp struct {
	key           string
	prop          Property
	val, get, set int32
}

type tplVal struct {
	v   Value
	obj int32
}

// NewTemplate freezes the realm it, as it stands, into a Template. host is
// the value natives carry in their Host field to name the realm's host-side
// state; a stamp replaces it with the host value it is given. roots are
// objects outside the graph reachable from the realm's own roots (the
// global object, the intrinsic prototypes and the root scope) that the
// host keeps for the realm; Stamp returns their copies in the same order.
//
// NewTemplate fails for what a stamp cannot copy: a script function, a
// closure scope, an observation hook, console output, a started Math.random
// generator, or a Host field that is neither nil, host, it nor an object of
// the graph. The realm should not be used again: it is the template's
// source, not a realm to run script in.
func NewTemplate(it *Interp, host any, roots ...*Object) (*Template, error) {
	switch {
	case it.PropAccessHook != nil || it.EvalHook != nil:
		return nil, errors.New("minjs: template: realm has an observation hook")
	case len(it.ConsoleLog) > 0:
		return nil, errors.New("minjs: template: realm wrote to the console")
	case it.rng != nil:
		return nil, errors.New("minjs: template: realm drew from Math.random")
	case len(it.stack) > 0:
		return nil, errors.New("minjs: template: realm is running")
	}
	g := walkRealm(it, roots...)
	if len(g.scopes) != 1 || len(it.root.names) > 0 {
		return nil, errors.New("minjs: template: realm holds a closure scope")
	}
	t := &Template{steps: it.steps, allocs: it.allocs, stepLimit: it.StepLimit, seed: it.seed, maxDepth: it.maxDepth}

	// template order: plain objects, then function objects, each in walk
	// order
	order := make([]int32, len(g.objs))
	for i, o := range g.objs {
		if o.fnd == nil {
			order[i] = int32(t.nPlain)
			t.nPlain++
		}
	}
	nFn := t.nPlain
	for i, o := range g.objs {
		if o.fnd != nil {
			order[i] = int32(nFn)
			nFn++
		}
	}
	idx := func(o *Object) int32 {
		if o == nil {
			return -1
		}
		return order[g.index[o]]
	}
	t.objs = make([]tplObj, len(g.objs))
	for i, o := range g.objs {
		to := &t.objs[order[i]]
		*to = tplObj{class: o.Class, proto: idx(o.Proto), host: hostNone, notExt: o.NotExtensible, ver: o.ver, writes: o.writes, spilled: o.props != nil}
		if fd := o.fnd; fd != nil {
			if fd.Native == nil || fd.Fn != nil || fd.Env != nil || fd.this != nil {
				return nil, errors.New("minjs: template: realm holds a script function")
			}
			to.native, to.name = fd.Native, fd.NativeName
		}
		switch h := o.Host.(type) {
		case nil:
		case *Object:
			j, ok := g.index[h]
			if !ok {
				return nil, fmt.Errorf("minjs: template: a %s object's host object is outside the graph", o.Class)
			}
			to.host = order[j]
		case *Interp:
			if h != it {
				return nil, fmt.Errorf("minjs: template: a %s object's host is another realm", o.Class)
			}
			to.host = hostInterp
		default:
			if o.Host != host {
				return nil, fmt.Errorf("minjs: template: a %s object's host is %T, not the realm's host", o.Class, o.Host)
			}
			to.host = hostStamp
		}
	}
	// properties and elements follow the template order, so each object's
	// run in props and elems is contiguous
	byOrder := make([]*Object, len(g.objs))
	for i, o := range g.objs {
		byOrder[order[i]] = o
	}
	for i, o := range byOrder {
		to := &t.objs[i]
		to.props = int32(len(t.props))
		o.eachOwn(func(key string, p *Property) {
			tp := tplProp{key: key, prop: *p, val: -1, get: idx(p.Get), set: idx(p.Set)}
			tp.prop.Get, tp.prop.Set = nil, nil
			if p.Value.Kind == KindObject {
				tp.val = idx(p.Value.Obj)
				tp.prop.Value.Obj = nil
			}
			t.props = append(t.props, tp)
			if to.spilled {
				to.keys = append(to.keys, key)
			}
		})
		to.nprops = int32(len(t.props)) - to.props
		if to.spilled {
			to.keys = append(make([]string, 0, len(to.keys)), to.keys...)
		} else {
			t.nSmall += int(to.nprops)
		}
		to.elems = int32(len(t.elems))
		for _, e := range o.Elems {
			tv := tplVal{v: e, obj: -1}
			if e.Kind == KindObject {
				tv.obj = idx(e.Obj)
				tv.v.Obj = nil
			}
			t.elems = append(t.elems, tv)
		}
		to.nelems = int32(len(t.elems)) - to.elems
	}
	for i, r := range realmRoots(it) {
		t.roots[i] = idx(r)
	}
	t.extra = make([]int32, len(roots))
	for i, r := range roots {
		t.extra[i] = idx(r)
	}
	return t, nil
}

// stamp is one Stamp's bulk storage for the template's objects.
type stamp struct {
	objs []Object
	fns  []funcObject
}

func (s *stamp) at(i int32) *Object {
	if int(i) < len(s.objs) {
		return &s.objs[i]
	}
	return &s.fns[int(i)-len(s.objs)].Object
}

func (s *stamp) ref(i int32) *Object {
	if i < 0 {
		return nil
	}
	return s.at(i)
}

// Stamp returns a new realm copied from the template, and the copies of the
// extra roots NewTemplate was given. Every object whose Host field held the
// template's host value holds host instead. The realm's object counters,
// step and alloc counters, step limit and Math.random seed are the
// template's; nothing is shared with the template or with other stamps
// except immutable data: strings, the natives' Go functions and the key
// order of objects in the map representation, which a stamp copies before
// it changes.
func (t *Template) Stamp(host any) (*Interp, []*Object) {
	it := &Interp{StepLimit: t.stepLimit, steps: t.steps, allocs: t.allocs, maxDepth: t.maxDepth, seed: t.seed}
	it.stack = make([]Frame, 0, it.maxDepth+32)
	s := &stamp{objs: make([]Object, t.nPlain), fns: make([]funcObject, len(t.objs)-t.nPlain)}
	props := make([]Property, len(t.props))
	entries := make([]propEntry, t.nSmall)
	vals := make([]Value, len(t.elems))
	for i := range t.objs {
		to := &t.objs[i]
		o := s.at(int32(i))
		o.Class, o.Proto, o.NotExtensible, o.ver, o.writes = to.class, s.ref(to.proto), to.notExt, to.ver, to.writes
		switch to.host {
		case hostNone:
		case hostStamp:
			o.Host = host
		case hostInterp:
			o.Host = it
		default:
			o.Host = s.at(to.host)
		}
		lo, hi := to.props, to.props+to.nprops
		ps, tps := props[lo:hi:hi], t.props[lo:hi]
		for j := range tps {
			tp := &tps[j]
			ps[j] = tp.prop
			if tp.val >= 0 {
				ps[j].Value.Obj = s.at(tp.val)
			}
			if tp.get >= 0 {
				ps[j].Get = s.at(tp.get)
			}
			if tp.set >= 0 {
				ps[j].Set = s.at(tp.set)
			}
		}
		switch {
		case to.spilled:
			o.props = make(map[string]*Property, len(tps))
			for j := range tps {
				o.props[tps[j].key] = &ps[j]
			}
			o.keys = to.keys
		case len(tps) > 0:
			o.small = carve(&entries, len(tps))
			for j := range tps {
				o.small[j] = propEntry{key: tps[j].key, p: &ps[j]}
			}
		}
		if to.nelems > 0 {
			lo, hi := to.elems, to.elems+to.nelems
			o.Elems = vals[lo:hi:hi]
			for j, tv := range t.elems[lo:hi] {
				o.Elems[j] = tv.v
				if tv.obj >= 0 {
					o.Elems[j].Obj = s.at(tv.obj)
				}
			}
		}
		if to.native != nil {
			f := &s.fns[i-t.nPlain]
			f.fd.Native, f.fd.NativeName = to.native, to.name
			f.fnd = &f.fd
		}
	}
	it.Global = s.at(t.roots[0])
	it.Protos = Protos{
		Object: s.at(t.roots[1]), Function: s.at(t.roots[2]), Array: s.at(t.roots[3]), Error: s.at(t.roots[4]),
		String: s.at(t.roots[5]), Number: s.at(t.roots[6]), Boolean: s.at(t.roots[7]),
	}
	it.root = &Scope{global: it.Global}
	extra := make([]*Object, len(t.extra))
	for i, r := range t.extra {
		extra[i] = s.ref(r)
	}
	return it, extra
}
