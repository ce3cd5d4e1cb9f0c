package minjs

// Realm-lifetime bump allocators. Objects, function objects and scopes are
// never freed individually — a realm's whole object graph dies with its
// Interp — so the hot constructors carve zeroed structs out of chunked
// arrays instead of paying one GC allocation each. Pointers into a chunk
// stay valid forever: chunks are never reused or shrunk, only abandoned to
// the collector when the realm goes away. None of this touches the manual
// it.allocs counter, which keeps counting JS-visible allocations exactly as
// before.
//
// Each chunk's byte size sits just under one of the allocator's size
// classes, so rounding a chunk up to its class wastes at most 2% of it
// (layout_test.go pins this): 125 Objects of 152 B fill 19,000 of a 19,072 B
// class, 81 function objects of 200 B fill 16,200 of 16,384, 131 Scopes of
// 72 B fill 9,432 of 9,472, and 512 Values or strings fill 20,480 or 8,192
// exactly.

const (
	objArenaChunk   = 125
	fnArenaChunk    = 81
	scopeArenaChunk = 131
	slotArenaChunk  = 512
)

func (it *Interp) allocObject() *Object {
	if len(it.objArena) == 0 {
		it.objArena = make([]Object, objArenaChunk)
	}
	o := &it.objArena[0]
	it.objArena = it.objArena[1:]
	return o
}

func (it *Interp) allocFunc() *funcObject {
	if len(it.fnArena) == 0 {
		it.fnArena = make([]funcObject, fnArenaChunk)
	}
	f := &it.fnArena[0]
	it.fnArena = it.fnArena[1:]
	return f
}

// carveVals returns an empty Value slice with capacity n carved from the
// realm arena. Appending past n falls back to a normal heap grow, so the
// capacity is a hint, never a bound.
func (it *Interp) carveVals(n int) []Value {
	if n >= slotArenaChunk {
		return make([]Value, 0, n)
	}
	if len(it.valArena) < n {
		it.valArena = make([]Value, slotArenaChunk)
	}
	v := it.valArena[:0:n]
	it.valArena = it.valArena[n:]
	return v
}

func (it *Interp) carveNames(n int) []string {
	if n >= slotArenaChunk {
		return make([]string, 0, n)
	}
	if len(it.nameArena) < n {
		it.nameArena = make([]string, slotArenaChunk)
	}
	s := it.nameArena[:0:n]
	it.nameArena = it.nameArena[n:]
	return s
}

// newScopeIn returns a child scope presized for n bindings with the Scope
// struct and both binding slices carved from the realm arenas: a call-frame
// scope costs zero dedicated heap allocations in the common case.
func (it *Interp) newScopeIn(parent *Scope, n int) *Scope {
	s := it.allocScope()
	if n > 0 {
		s.names = it.carveNames(n)
		s.vals = it.carveVals(n)
	}
	s.parent = parent
	return s
}

func (it *Interp) allocScope() *Scope {
	if len(it.scopeArena) == 0 {
		it.scopeArena = make([]Scope, scopeArenaChunk)
	}
	s := &it.scopeArena[0]
	it.scopeArena = it.scopeArena[1:]
	return s
}
