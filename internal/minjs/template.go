package minjs

import (
	"errors"
	"fmt"
)

// Template is a built realm frozen as a copy source. Stamp makes a new realm
// whose object graph, object counters, step and alloc counters and natives
// equal the template's, by materializing the realm's flattened graph once
// instead of running the construction code that built it. A template holds
// no pointer into the object graph it was made from, is immutable once
// made, and is safe to stamp from several goroutines.
//
// Stamped realms share the template's natives, so every native in the
// template must find its realm through its receiver or through its own
// function object (Interp.Callee), never through a Go closure over
// per-realm state: see NativeFunc.
type Template struct {
	graph
	roots []int32 // realmRoots, then the extra roots NewTemplate was given

	steps, allocs int64
	stepLimit     int64
	seed          int64
	maxDepth      int
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
	f := &flattener{g: &t.graph, index: g.index}
	f.flatten(g.objs, nil)
	for i, o := range g.objs {
		if fd := o.fnd; fd != nil && (fd.Native == nil || fd.Fn != nil || fd.Env != nil || fd.this != nil) {
			return nil, errors.New("minjs: template: realm holds a script function")
		}
		rec := &t.objs[f.order[i]]
		switch h := o.Host.(type) {
		case nil:
		case *Object:
			if _, ok := g.index[h]; !ok {
				return nil, fmt.Errorf("minjs: template: a %s object's host object is outside the graph", o.Class)
			}
			rec.host = f.slot(h)
		case *Interp:
			if h != it {
				return nil, fmt.Errorf("minjs: template: a %s object's host is another realm", o.Class)
			}
			rec.host = hostInterp
		default:
			if o.Host != host {
				return nil, fmt.Errorf("minjs: template: a %s object's host is %T, not the realm's host", o.Class, o.Host)
			}
			rec.host = hostStamp
		}
	}
	own := realmRoots(it)
	for _, r := range append(own[:], roots...) {
		t.roots = append(t.roots, f.slot(r))
	}
	return t, nil
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
	it.root = &Scope{}
	c := t.materialize(it, nil, host, 0)
	r := func(i int) *Object { return c.ref(t.roots[i]) }
	it.Global, it.root.global = r(0), r(0)
	it.Protos = Protos{Object: r(1), Function: r(2), Array: r(3), Error: r(4), String: r(5), Number: r(6), Boolean: r(7)}
	extra := make([]*Object, len(t.roots)-8)
	for i := range extra {
		extra[i] = r(8 + i)
	}
	return it, extra
}
