package minjs

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the runtime value categories.
type Kind uint8

// Value kinds.
const (
	KindUndefined Kind = iota
	KindNull
	KindBool
	KindNumber
	KindString
	KindObject
)

func (k Kind) String() string {
	switch k {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindObject:
		return "object"
	}
	return "invalid"
}

// Value is a JavaScript value. The zero Value is undefined. Field order is
// chosen for size: values are copied on every stack push, argument pass and
// property read, so the struct packs to 40 bytes.
type Value struct {
	Num  float64
	Str  string
	Obj  *Object
	Kind Kind
	Bool bool
}

// Undefined returns the undefined value.
func Undefined() Value { return Value{} }

// Null returns the null value.
func Null() Value { return Value{Kind: KindNull} }

// Boolean wraps a Go bool.
func Boolean(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// Number wraps a Go float64.
func Number(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// Int wraps a Go int as a JS number.
func Int(i int) Value { return Number(float64(i)) }

// String wraps a Go string.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// ObjectValue wraps an object pointer; a nil object yields null.
func ObjectValue(o *Object) Value {
	if o == nil {
		return Null()
	}
	return Value{Kind: KindObject, Obj: o}
}

// IsUndefined reports whether v is undefined.
func (v Value) IsUndefined() bool { return v.Kind == KindUndefined }

// IsNullish reports whether v is undefined or null.
func (v Value) IsNullish() bool { return v.Kind == KindUndefined || v.Kind == KindNull }

// IsObject reports whether v holds an object.
func (v Value) IsObject() bool { return v.Kind == KindObject }

// IsFunction reports whether v is a callable object.
func (v Value) IsFunction() bool {
	return v.Kind == KindObject && v.Obj != nil && v.Obj.fnd != nil &&
		(v.Obj.fnd.Fn != nil || v.Obj.fnd.Native != nil)
}

// Truthy implements ToBoolean.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindUndefined, KindNull:
		return false
	case KindBool:
		return v.Bool
	case KindNumber:
		return v.Num != 0 && !math.IsNaN(v.Num)
	case KindString:
		return v.Str != ""
	default:
		return true
	}
}

// TypeOf implements the typeof operator.
func (v Value) TypeOf() string {
	switch v.Kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "object"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	default:
		if v.IsFunction() {
			return "function"
		}
		return "object"
	}
}

// ToString implements a pragmatic ToString: objects use their class or
// function source, arrays join with commas.
func (v Value) ToString() string {
	switch v.Kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		if v.Bool {
			return "true"
		}
		return "false"
	case KindNumber:
		return numToString(v.Num)
	case KindString:
		return v.Str
	default:
		o := v.Obj
		if o == nil {
			return "null"
		}
		if o.fnd != nil && (o.fnd.Fn != nil || o.fnd.Native != nil) {
			return o.FunctionSource()
		}
		if isComposite(o) {
			var b strings.Builder
			writeComposite(&b, o, nil)
			return b.String()
		}
		return "[object " + o.Class + "]"
	}
}

func isComposite(o *Object) bool { return o.Class == "Array" || o.Class == "Error" }

// writeComposite renders an array (elements joined with commas) or an Error
// ("name: message") into b. Like real engines it renders a reference back
// into the object being rendered as the empty string, and it stops once b
// passes maxStringLen, so neither a cycle nor a self-similar nesting can
// exhaust the stack or memory.
func writeComposite(b *strings.Builder, o *Object, stack []*Object) {
	for _, s := range stack {
		if s == o {
			return
		}
	}
	stack = append(stack, o)
	part := func(b *strings.Builder, v Value) {
		if v.Kind == KindObject && v.Obj != nil && !v.IsFunction() && isComposite(v.Obj) {
			writeComposite(b, v.Obj, stack)
		} else {
			b.WriteString(v.ToString())
		}
	}
	if o.Class == "Array" {
		for i, e := range o.Elems {
			if b.Len() > maxStringLen {
				return
			}
			if i > 0 {
				b.WriteByte(',')
			}
			if !e.IsNullish() {
				part(b, e)
			}
		}
		return
	}
	name := "Error"
	if n, ok := o.lookupOwn("name"); ok && n.Value.Kind == KindString {
		name = n.Value.Str
	}
	var msg strings.Builder
	if m, ok := o.lookupOwn("message"); ok {
		part(&msg, m.Value)
	}
	b.WriteString(name)
	if msg.Len() > 0 {
		b.WriteString(": ")
		b.WriteString(msg.String())
	}
}

// ToNumber implements a pragmatic ToNumber.
func (v Value) ToNumber() float64 {
	switch v.Kind {
	case KindUndefined:
		return math.NaN()
	case KindNull:
		return 0
	case KindBool:
		if v.Bool {
			return 1
		}
		return 0
	case KindNumber:
		return v.Num
	case KindString:
		s := strings.TrimSpace(v.Str)
		if s == "" {
			return 0
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	default:
		// objects: use array-of-one / string content; else NaN
		return Value{Kind: KindString, Str: v.ToString()}.ToNumber()
	}
}

func numToString(f float64) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	if math.IsInf(f, 1) {
		return "Infinity"
	}
	if math.IsInf(f, -1) {
		return "-Infinity"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e21 {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// StrictEquals implements ===.
func StrictEquals(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindUndefined, KindNull:
		return true
	case KindBool:
		return a.Bool == b.Bool
	case KindNumber:
		return a.Num == b.Num // NaN !== NaN falls out naturally
	case KindString:
		return a.Str == b.Str
	default:
		return a.Obj == b.Obj
	}
}

// LooseEquals implements == with the common coercions.
func LooseEquals(a, b Value) bool {
	if a.Kind == b.Kind {
		return StrictEquals(a, b)
	}
	if a.IsNullish() && b.IsNullish() {
		return true
	}
	if a.IsNullish() || b.IsNullish() {
		return false
	}
	// number/string/bool cross-comparisons via ToNumber
	if a.Kind != KindObject && b.Kind != KindObject {
		return a.ToNumber() == b.ToNumber()
	}
	// object vs primitive: compare via ToString/ToNumber
	if a.Kind == KindObject {
		return LooseEquals(String(a.ToString()), b)
	}
	return LooseEquals(a, String(b.ToString()))
}

// NativeFunc is the host-function bridge signature. this is the receiver
// value, args the call arguments. it is the calling realm's interpreter,
// which need not be the one the native belongs to: a script that reaches
// another realm's native (through a frame or an opened window) calls it on
// its own interpreter. A native that acts on its own realm's state therefore
// finds that realm through its receiver or through its own function object,
// it.Callee(), whose Host field names the realm; never through it, and never
// through a Go closure over per-realm objects. A realm stamped from a
// Template shares the template's natives, so a closure over the template's
// realm would act on the template from every stamp; closures may hold only
// what every realm built from one configuration shares.
type NativeFunc func(it *Interp, this Value, args []Value) (Value, error)

// Property is a property slot: either a data property (Value) or an accessor
// (Get/Set). The flags mirror JS property attributes.
type Property struct {
	Value        Value
	Get, Set     *Object
	Accessor     bool
	Enumerable   bool
	Writable     bool
	Configurable bool
}

// Object is a JavaScript object: an ordered property map with a prototype
// link. Functions and arrays are Objects with extra slots.
type Object struct {
	Class string // "Object", "Function", "Array", "Error", or a host class name
	Proto *Object

	// Own properties live in one of two representations. Small objects —
	// the overwhelming majority of script-created ones — keep an
	// insertion-ordered slice scanned linearly; past smallPropsMax the
	// entries spill into the map + key-order slice. Lookup, definition
	// order and *Property pointer stability are identical in both modes.
	small []propEntry
	props map[string]*Property
	keys  []string // insertion order when props != nil, for for…in

	// chunk block-allocates Property slots for Set/SetNonEnum/DefineAccessor
	// so each new property does not cost its own heap object, and carries the
	// backing array for the small entry slice so a 1-4 property object makes
	// exactly one property-storage allocation. Pointers into a chunk stay
	// valid forever (chunks are never reused or grown).
	chunk *propChunk

	// fnd holds the callable-only slots, allocated once per function
	// object; the far more numerous plain objects pay one nil pointer.
	fnd *fnData

	// Array element storage (Class == "Array").
	Elems []Value

	// Host is an opaque pointer back to the host-side entity (DOM node,
	// browser, instrument channel, …).
	Host any

	// chunkUsed counts the Property slots newProp handed out of chunk.
	// It and the small fields below share the struct's last word so that
	// Object stays 152 bytes (layout_test.go pins it).
	chunkUsed uint8

	// NotExtensible prevents adding new properties (Object.freeze-lite).
	NotExtensible bool

	// ver counts structural mutations (property add/replace/delete). The
	// VM's inline caches validate against it; in-place data writes through
	// Set's fast path keep the same *Property and do not bump it. It is
	// not a change detector: an image applies its own delta to it, and
	// writes counts what ver leaves out.
	ver uint32

	// writes counts every change script can see: property define, replace
	// and delete, in-place value writes, attribute changes, prototype and
	// extensibility changes and element writes, but not a write that
	// stores the value already there. It only grows, and stops at
	// maxWrites so that it never wraps back to an earlier value; see
	// Interp.MarkWrites.
	writes uint32
}

// maxWrites is where the write counters of objects and scopes stop.
const maxWrites = math.MaxUint32

// touch records one change to o.
func (o *Object) touch() {
	if o.writes < maxWrites {
		o.writes++
	}
}

// setValue stores v in o's data property p, counting the write unless p
// already holds v.
func (o *Object) setValue(p *Property, v Value) {
	if !sameValue(p.Value, v) {
		p.Value = v
		o.touch()
	}
}

// setElem stores v as o's element i, counting the write unless the element
// already holds v.
func (o *Object) setElem(i int, v Value) {
	if !sameValue(o.Elems[i], v) {
		o.Elems[i] = v
		o.touch()
	}
}

// setProto points o's prototype link at proto.
func (o *Object) setProto(proto *Object) {
	if o.Proto != proto {
		o.Proto = proto
		o.touch()
	}
}

// fnData is the function half of an Object: exactly one of Fn/Native is set
// for callables.
type fnData struct {
	Fn         *FuncLit   // script function body
	Env        *Scope     // closure environment for script functions
	this       *Value     // bound this of an arrow function; nil for the rest
	Native     NativeFunc // host function
	NativeName string     // name reported by native toString
}

// thisVal is the this an arrow function bound, undefined for every other
// function.
func (fd *fnData) thisVal() Value {
	if fd.this == nil {
		return Undefined()
	}
	return *fd.this
}

// funcObject co-allocates an Object with its fnData so creating a function
// costs a single heap object; fnd points at the embedded fd.
type funcObject struct {
	Object
	fd fnData
}

// NativeFnName returns the name a native function reports ("" for script
// functions and non-callables).
func (o *Object) NativeFnName() string {
	if o.fnd == nil {
		return ""
	}
	return o.fnd.NativeName
}

// NewObject returns a plain object with the given prototype. The property
// map is created lazily on first definition.
func NewObject(proto *Object) *Object {
	return &Object{Class: "Object", Proto: proto}
}

// NewArray returns an array object with the given elements.
func NewArray(proto *Object, elems ...Value) *Object {
	o := NewObject(proto)
	o.Class = "Array"
	o.Elems = append([]Value(nil), elems...)
	return o
}

// propEntry is one own property in the small (linear) representation.
type propEntry struct {
	key string
	p   *Property
}

// smallPropsMax is the linear-representation bound: at most this many own
// properties are scanned sequentially before spilling to the map. Interned
// atom keys make the string compares pointer-equality in the common case.
const smallPropsMax = 8

// propChunkLen is the Property block-allocation size.
const propChunkLen = 4

// propChunk is one block of property storage: slots for the Property values
// handed out by newProp, plus the initial backing array for the small entry
// slice, so defining the first few properties costs one allocation total.
type propChunk struct {
	slots   [propChunkLen]Property
	entries [propChunkLen]propEntry
}

// newProp returns a Property slot from o's current chunk, amortising
// propChunkLen property definitions per heap allocation.
func (o *Object) newProp(p Property) *Property {
	if o.chunk == nil || o.chunkUsed == propChunkLen {
		o.chunk = new(propChunk)
		o.chunkUsed = 0
	}
	sp := &o.chunk.slots[o.chunkUsed]
	o.chunkUsed++
	*sp = p
	return sp
}

// lookupOwn returns the own property named key.
func (o *Object) lookupOwn(key string) (*Property, bool) {
	if o.props != nil {
		p, ok := o.props[key]
		return p, ok
	}
	for i := range o.small {
		if o.small[i].key == key {
			return o.small[i].p, true
		}
	}
	return nil, false
}

// GetOwn returns the own property, or nil.
func (o *Object) GetOwn(key string) *Property {
	p, _ := o.lookupOwn(key)
	return p
}

// HasOwn reports whether o itself holds key (including array indices/length).
func (o *Object) HasOwn(key string) bool {
	if _, ok := o.lookupOwn(key); ok {
		return true
	}
	if o.Class == "Array" {
		if key == "length" {
			return true
		}
		if idx, ok := arrayIndex(key); ok && idx < len(o.Elems) {
			return true
		}
	}
	return false
}

// Has reports whether key is reachable on o or its prototype chain.
func (o *Object) Has(key string) bool {
	for cur := o; cur != nil; cur = cur.Proto {
		if cur.HasOwn(key) {
			return true
		}
	}
	return false
}

// FindProperty walks the prototype chain and returns the first object owning
// key along with its property slot.
func (o *Object) FindProperty(key string) (*Object, *Property) {
	for cur := o; cur != nil; cur = cur.Proto {
		if p, ok := cur.lookupOwn(key); ok {
			return cur, p
		}
	}
	return nil, nil
}

// Set defines or overwrites key as an enumerable, writable, configurable
// data property. Overwriting an existing plain data property reuses its
// slot in place — the hot path for repeated assignments.
func (o *Object) Set(key string, v Value) {
	if p, ok := o.lookupOwn(key); ok && !p.Accessor && p.Enumerable && p.Writable && p.Configurable {
		o.setValue(p, v)
		return
	}
	o.DefineProperty(key, o.newProp(Property{Value: v, Enumerable: true, Writable: true, Configurable: true}))
}

// SetNonEnum defines key as a non-enumerable data property; used for
// built-ins and prototype methods.
func (o *Object) SetNonEnum(key string, v Value) {
	o.DefineProperty(key, o.newProp(Property{Value: v, Enumerable: false, Writable: true, Configurable: true}))
}

// DefineProperty installs prop under key, preserving insertion order for
// first-time definitions.
func (o *Object) DefineProperty(key string, prop *Property) {
	o.ver++
	o.touch()
	if o.props == nil {
		for i := range o.small {
			if o.small[i].key == key {
				o.small[i].p = prop
				return
			}
		}
		if len(o.small) < smallPropsMax {
			if o.small == nil {
				// seed the entry slice from the chunk's embedded backing
				// array; append spills to the heap past propChunkLen
				if o.chunk == nil {
					o.chunk = new(propChunk)
				}
				o.small = o.chunk.entries[:0:propChunkLen]
			}
			o.small = append(o.small, propEntry{key: key, p: prop})
			return
		}
		o.spill()
	}
	if _, exists := o.props[key]; !exists {
		o.keys = append(o.keys, key)
	}
	o.props[key] = prop
}

// spill migrates the small linear representation into the map form,
// preserving insertion order.
func (o *Object) spill() {
	o.props = make(map[string]*Property, 2*smallPropsMax)
	o.keys = make([]string, 0, 2*smallPropsMax)
	for _, e := range o.small {
		o.props[e.key] = e.p
		o.keys = append(o.keys, e.key)
	}
	o.small = nil
}

// DefineAccessor installs a getter/setter pair (either may be nil).
func (o *Object) DefineAccessor(key string, get, set *Object, enumerable bool) {
	o.DefineProperty(key, o.newProp(Property{Get: get, Set: set, Accessor: true, Enumerable: enumerable, Configurable: true}))
}

// Delete removes an own property; it reports whether the property existed.
func (o *Object) Delete(key string) bool {
	if o.props == nil {
		for i := range o.small {
			if o.small[i].key == key {
				o.small = append(o.small[:i:i], o.small[i+1:]...)
				o.ver++
				o.touch()
				return true
			}
		}
		return false
	}
	if _, ok := o.props[key]; !ok {
		return false
	}
	delete(o.props, key)
	o.ver++
	o.touch()
	for i, k := range o.keys {
		if k == key {
			o.keys = append(o.keys[:i:i], o.keys[i+1:]...)
			break
		}
	}
	return true
}

// OwnKeys returns own enumerable-and-not property names in insertion order;
// array objects report indices and length first.
func (o *Object) OwnKeys(enumerableOnly bool) []string {
	var out []string
	if o.Class == "Array" {
		for i := range o.Elems {
			out = append(out, strconv.Itoa(i))
		}
	}
	if o.props == nil {
		for i := range o.small {
			if enumerableOnly && !o.small[i].p.Enumerable {
				continue
			}
			out = append(out, o.small[i].key)
		}
		return out
	}
	for _, k := range o.keys {
		p := o.props[k]
		if p == nil {
			continue
		}
		if enumerableOnly && !p.Enumerable {
			continue
		}
		out = append(out, k)
	}
	return out
}

// EnumerateAll returns own + inherited enumerable property names in
// prototype-chain order, deduplicated; this is the for…in order.
func (o *Object) EnumerateAll() []string {
	seen := map[string]bool{}
	var out []string
	for cur := o; cur != nil; cur = cur.Proto {
		for _, k := range cur.OwnKeys(true) {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// SortedOwnKeys returns own property names sorted; handy for deterministic
// host-side inspection.
func (o *Object) SortedOwnKeys() []string {
	ks := o.OwnKeys(false)
	sort.Strings(ks)
	return ks
}

// FunctionSource returns the text Function.prototype.toString reports.
func (o *Object) FunctionSource() string {
	fd := o.fnd
	if fd == nil {
		return "function () { }"
	}
	if fd.Native != nil {
		return NativeSource(fd.NativeName)
	}
	if fd.Fn != nil {
		if fd.Fn.SrcText != "" {
			return fd.Fn.SrcText
		}
		return "function " + fd.Fn.Name + "() { }"
	}
	return "function () { }"
}

// NativeSource formats the `[native code]` toString body for a function name.
func NativeSource(name string) string {
	return "function " + name + "() {\n    [native code]\n}"
}

// IsNativeSource reports whether src looks like a native-function toString.
func IsNativeSource(src string) bool {
	return strings.Contains(src, "[native code]")
}

func arrayIndex(key string) (int, bool) {
	if key == "" {
		return 0, false
	}
	for i := 0; i < len(key); i++ {
		if key[i] < '0' || key[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(key)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
