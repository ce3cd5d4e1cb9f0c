package minjs

// WriteMarks holds the write counter of every object and scope reachable
// from a realm's roots at one moment. The roots and edges are those
// GraphDigest follows: the global object, the intrinsic prototypes and the
// root scope; property values, accessor halves, prototype links, array
// elements, closure scopes, arrow functions' bound this and scope bindings.
// A function or scope not made yet is marked by the counter its graph
// recorded, which it carries when it is made.
type WriteMarks struct {
	objs   []objMark
	scopes []scopeMark
	// lazy holds every copy whose lazy slots the walk met, with how much
	// of it was made then: what is made later is compared against the
	// counters its graph recorded
	lazy []lazyMark
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

type lazyMark struct {
	c    *copied
	made int
}

// markHint presizes the walk: a realm is sealed when it is first exposed,
// before its instrument install, and a freshly built page realm reaches
// about 450 objects.
const markHint = 512

// MarkWrites records the write counters of everything reachable from the
// realm's roots. The walk only collects pointers and counters: it hashes
// nothing and reads no property keys. It makes no lazy function: it walks
// an unmade function's graph records instead, marking the objects they
// reach, and notes how much of each lazy copy was made.
func (it *Interp) MarkWrites() WriteMarks {
	w := marker{seen: make(map[*Object]struct{}, markHint), sseen: map[*Scope]struct{}{}}
	w.m.objs = make([]objMark, 0, markHint)
	for _, r := range realmRoots(it) {
		w.reach(r)
	}
	w.scope(it.root)
	for i, j := 0, 0; i < len(w.m.objs) || j < len(w.queue); {
		if i < len(w.m.objs) {
			w.expand(w.m.objs[i].o)
			i++
			continue
		}
		w.expandLazy(w.queue[j].t, w.queue[j].k)
		j++
	}
	for _, t := range w.lazy {
		w.m.lazy = append(w.m.lazy, lazyMark{t.c, len(t.c.made)})
	}
	return w.m
}

// Unchanged reports whether every object and scope m marked still has the
// counter it had then, and every function and scope made since from a copy
// the walk met still has the counter its graph recorded. Counters only
// grow, so a change to any of them shows.
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
	for _, l := range m.lazy {
		c := l.c
		for _, id := range c.made[l.made:] {
			if id >= 0 && c.fns[id].writes != c.g.objs[c.g.nPlain+int(id)].writes ||
				id < 0 && c.scopes[^id].writes != c.g.scopes[^id].writes {
				return false
			}
		}
	}
	return true
}

// marker is MarkWrites' breadth-first walk; m.objs doubles as its queue
// of objects, and queue holds the lazy functions it reached.
type marker struct {
	m     WriteMarks
	seen  map[*Object]struct{}
	sseen map[*Scope]struct{}
	lazy  []*lazySeen
	queue []lazyFn
}

// lazySeen is what the walk met of one copy's unmade functions and scopes.
type lazySeen struct {
	c      *copied
	fns    []bool
	scopes []bool
}

type lazyFn struct {
	t *lazySeen
	k int
}

// seenOf returns the walk's record of copy c.
func (w *marker) seenOf(c *copied) *lazySeen {
	for _, t := range w.lazy {
		if t.c == c {
			return t
		}
	}
	t := &lazySeen{c: c, fns: make([]bool, len(c.fns)), scopes: make([]bool, len(c.scopes))}
	w.lazy = append(w.lazy, t)
	return t
}

// slot reaches slot i of t's copy: a made object, or an unmade function
// whose records the walk will follow.
func (w *marker) slot(t *lazySeen, i int32) {
	if i < 0 {
		return
	}
	if !t.c.unmade(i) {
		w.reach(t.c.at(i))
		return
	}
	k := int(i) - len(t.c.out) - len(t.c.objs)
	if !t.fns[k] {
		t.fns[k] = true
		w.m.saturated = w.m.saturated || t.c.g.objs[t.c.g.nPlain+k].writes == maxWrites
		w.queue = append(w.queue, lazyFn{t, k})
	}
}

// lazyProp reaches what the lazy slot p names.
func (w *marker) lazyProp(p *Property) {
	c := p.Value.Obj.Host.(*copied)
	w.propRec(w.seenOf(c), &c.g.props[int(p.Value.Num)])
}

// propRec reaches what property record r of t's copy names.
func (w *marker) propRec(t *lazySeen, r *propRec) {
	w.slot(t, r.val)
	w.slot(t, r.get)
	w.slot(t, r.set)
}

// expandLazy reaches what the records of unmade function k name.
func (w *marker) expandLazy(t *lazySeen, k int) {
	g := t.c.g
	rec := &g.objs[g.nPlain+k]
	w.slot(t, rec.proto)
	if rec.host >= 0 {
		w.slot(t, rec.host)
	}
	for i := rec.props; i < rec.props+rec.nprops; i++ {
		w.propRec(t, &g.props[i])
	}
	for i := rec.elems; i < rec.elems+rec.nelems; i++ {
		w.slot(t, g.vals[i].obj)
	}
	if rec.this != nil {
		w.slot(t, rec.this.obj)
	}
	i := rec.env
	for i > 0 {
		if s := t.c.scopes[i-1]; s != nil {
			w.scope(s)
			return
		}
		if t.scopes[i-1] {
			return
		}
		t.scopes[i-1] = true
		sr := &g.scopes[i-1]
		w.m.saturated = w.m.saturated || sr.writes == maxWrites
		for j := sr.vals; j < sr.vals+sr.nvals; j++ {
			w.slot(t, g.vals[j].obj)
		}
		i = sr.parent
	}
	if i == 0 {
		w.scope(t.c.it.root)
	}
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
	if p.Value.Kind == kindLazy {
		w.lazyProp(p)
		return
	}
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
