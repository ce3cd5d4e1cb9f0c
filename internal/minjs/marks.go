package minjs

// WriteMarks holds the write counter of every object and scope reachable
// from a realm's roots at one moment. The roots and edges are those
// GraphDigest follows: the global object, the intrinsic prototypes and the
// root scope; property values, accessor halves, prototype links, array
// elements, closure scopes, arrow functions' bound this and scope bindings.
type WriteMarks struct {
	objs   []objMark
	scopes []scopeMark
	// saturated is set when a counter had already stopped at maxWrites, so
	// a later write to that object or scope would not move it
	saturated bool
}

type objMark struct {
	o      *Object
	writes uint32
}

type scopeMark struct {
	s      *Scope
	writes uint32
}

// markHint presizes the walk: a realm is sealed when it is first exposed,
// before its instrument install, and a freshly built page realm reaches
// about 450 objects.
const markHint = 512

// MarkWrites records the write counters of everything reachable from the
// realm's roots. The walk only collects pointers and counters: it hashes
// nothing and reads no property keys.
func (it *Interp) MarkWrites() WriteMarks {
	w := marker{seen: make(map[*Object]struct{}, markHint), sseen: map[*Scope]struct{}{}}
	w.m.objs = make([]objMark, 0, markHint)
	for _, r := range realmRoots(it) {
		w.reach(r)
	}
	w.scope(it.root)
	for i := 0; i < len(w.m.objs); i++ {
		w.expand(w.m.objs[i].o)
	}
	return w.m
}

// Unchanged reports whether every object and scope m marked still has the
// counter it had then. Counters only grow, so a change to any of them shows.
// Script can only change what it reaches, and nothing m did not mark can
// become reachable without a change to something m marked, so true means
// no script-visible change since MarkWrites, apart from objects only a
// native's Go closure holds, which no walk from the roots sees. It walks
// nothing.
func (m *WriteMarks) Unchanged() bool {
	if m.saturated {
		return false
	}
	for _, om := range m.objs {
		if om.o.writes != om.writes {
			return false
		}
	}
	for _, sm := range m.scopes {
		if sm.s.writes != sm.writes {
			return false
		}
	}
	return true
}

// marker is MarkWrites' breadth-first walk; m.objs doubles as its queue.
type marker struct {
	m     WriteMarks
	seen  map[*Object]struct{}
	sseen map[*Scope]struct{}
}

func (w *marker) reach(o *Object) {
	if o == nil {
		return
	}
	if _, ok := w.seen[o]; ok {
		return
	}
	w.seen[o] = struct{}{}
	w.m.objs = append(w.m.objs, objMark{o, o.writes})
	w.m.saturated = w.m.saturated || o.writes == maxWrites
}

func (w *marker) scope(s *Scope) {
	for ; s != nil; s = s.parent {
		if _, ok := w.sseen[s]; ok {
			return
		}
		w.sseen[s] = struct{}{}
		w.m.scopes = append(w.m.scopes, scopeMark{s, s.writes})
		w.m.saturated = w.m.saturated || s.writes == maxWrites
		for i := range s.vals {
			w.value(&s.vals[i])
		}
	}
}

func (w *marker) value(v *Value) {
	if v.Kind == KindObject {
		w.reach(v.Obj)
	}
}

func (w *marker) prop(p *Property) {
	if p.Accessor {
		w.reach(p.Get)
		w.reach(p.Set)
	} else {
		w.value(&p.Value)
	}
}

func (w *marker) expand(o *Object) {
	if o.props == nil {
		for _, e := range o.small {
			w.prop(e.p)
		}
	} else {
		for _, p := range o.props {
			if p != nil {
				w.prop(p)
			}
		}
	}
	w.reach(o.Proto)
	for i := range o.Elems {
		w.value(&o.Elems[i])
	}
	if fd := o.fnd; fd != nil {
		w.scope(fd.Env)
		if fd.this != nil {
			w.value(fd.this)
		}
	}
}
