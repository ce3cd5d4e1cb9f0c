package bad

// VisitFallsOff violates spanpair's path check: the End sits behind an
// unrelated condition, and the false arm falls off the function end with the
// span still open. The old optimistic walker missed this shape; the CFG
// does not.
func VisitFallsOff(f flight, ok bool) {
	span := f.Begin("visit", 0, 0) // want spanpair
	if ok {
		f.End(span, "visit", 1)
	}
}

// VisitGuardFallOff is the legal guard idiom: on the fall-through edge the
// guard proves span == 0, so there is provably nothing to End.
func VisitGuardFallOff(f flight) {
	span := f.Begin("visit", 0, 0)
	if span != 0 {
		f.End(span, "visit", 1)
	}
}

// VisitChild is legal: passing the visit span as a child's parent is the span
// protocol, not an escape, so both spans are still checked and both End.
func VisitChild(f flight) {
	span := f.Begin("visit", 0, 0)
	child := f.Begin("page-load", span, 0)
	f.End(child, "page-load", 1)
	f.End(span, "visit", 2)
}

// BeginVisit is legal: the span id is returned, so the caller owns the End.
func BeginVisit(f flight) int64 {
	span := f.Begin("visit", 0, 0)
	return span
}

// openSpan pairs a span id with its name for whoever closes it later.
type openSpan struct {
	id   int64
	name string
}

// StoreVisit is legal: the span id is stored in a composite literal, so the
// holder of that value owns the End.
func StoreVisit(f flight, dst *openSpan) {
	span := f.Begin("visit", 0, 0)
	*dst = openSpan{id: span, name: "visit"}
}
