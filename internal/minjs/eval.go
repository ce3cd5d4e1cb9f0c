package minjs

// This file holds the value-level semantics the VM's opcodes call into:
// identifier resolution along the scope chain, the binary operators, and
// property reads and writes (GetMember/SetMember, also the host API).

import (
	"math"
)

// lookupSlot finds the binding slot for name along the scope chain and the
// scope that holds it, or nils.
func lookupSlot(sc *Scope, name string) (*Scope, *Value) {
	for cur := sc; cur != nil; cur = cur.parent {
		if p := cur.slot(name); p != nil {
			return cur, p
		}
	}
	return nil, nil
}

// lookupIdentVM resolves an identifier along the scope chain, ending at the
// global object, and throws a ReferenceError when nothing binds it. A non-nil
// e is an inline-cache slot for the global leg of the resolution. The
// scope-chain walk always runs — a local binding can shadow a global between
// executions of the same instruction — but when it comes up empty, a cache
// hit keyed on the global object's identity and mutation version skips the
// global's property-chain walk. Observable behaviour (PropAccessHook owner,
// accessor invocation, values, errors) is identical with or without a cache
// slot; accessor properties are never cached.
func (it *Interp) lookupIdentVM(name string, sc *Scope, e *icEntry) (Value, error) {
	for cur := sc; cur != nil; cur = cur.parent {
		if p := cur.slot(name); p != nil {
			return *p, nil
		}
		g := cur.global
		if g == nil {
			continue
		}
		if e != nil && e.prop != nil && e.recv == g && e.recvVer == g.ver {
			owner := g
			ok := e.proto == nil
			if !ok && g.Proto == e.proto && e.protoVer == e.proto.ver {
				owner, ok = e.proto, true
			}
			if ok {
				if it.PropAccessHook != nil {
					it.PropAccessHook(owner, name)
				}
				return e.prop.Value, nil
			}
		}
		owner, prop := g.FindProperty(name)
		if prop == nil {
			continue
		}
		if it.PropAccessHook != nil {
			it.PropAccessHook(owner, name)
		}
		if prop.Accessor {
			if prop.Get == nil {
				return Undefined(), nil
			}
			return it.CallFunction(prop.Get, ObjectValue(g), nil)
		}
		if e != nil {
			if owner == g {
				*e = icEntry{recv: g, recvVer: g.ver, prop: prop}
			} else if owner == g.Proto {
				*e = icEntry{recv: g, recvVer: g.ver, proto: owner, protoVer: owner.ver, prop: prop}
			}
		}
		return prop.Value, nil
	}
	return Undefined(), it.ThrowError("ReferenceError", "%s is not defined", name)
}

func toInt32(f float64) int32 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return int32(int64(f))
}

// maxStringLen bounds string growth: a hostile `s = s + s` loop would
// otherwise exhaust memory long before the step limit fires (real engines
// throw "allocation size overflow" similarly).
const maxStringLen = 4 << 20

// maxArrayLen bounds array growth the way maxStringLen bounds strings, and
// bulk growth is charged to the step budget at one step per 8 elements, so
// neither one huge array nor an allocate-and-retain loop can exhaust memory
// before the step limit fires.
const maxArrayLen = 1 << 20

// growElems extends o's elements with undefined up to length n.
func (it *Interp) growElems(o *Object, n int) error {
	if err := it.reserveElems(len(o.Elems), n); err != nil {
		return err
	}
	if grow := n - len(o.Elems); grow > 0 {
		o.Elems = append(o.Elems, make([]Value, grow)...)
		o.touch()
	}
	return nil
}

// reserveElems admits growing an array from have to n elements: it throws
// a RangeError past maxArrayLen and charges the growth to the step budget.
func (it *Interp) reserveElems(have, n int) error {
	if n < 0 || n > maxArrayLen {
		return it.ThrowError("RangeError", "invalid array length")
	}
	if n > have {
		it.steps += int64(n-have) / 8
	}
	return nil
}

// checkStrLen throws the concatenation RangeError when a builtin would
// build a string longer than maxStringLen.
func (it *Interp) checkStrLen(n int) error {
	if n > maxStringLen {
		return it.ThrowError("RangeError", "allocation size overflow")
	}
	return nil
}

// Binary operator codes: the compiler resolves operator strings once so the
// VM dispatches on integers.
const (
	binAdd = iota
	binSub
	binMul
	binDiv
	binMod
	binLooseEq
	binLooseNe
	binStrictEq
	binStrictNe
	binLt
	binGt
	binLe
	binGe
	binBitAnd
	binBitOr
	binBitXor
	binShl
	binShr
	binUshr
	binIn
	binInstanceof
)

var binOpCodes = map[string]int32{
	"+": binAdd, "-": binSub, "*": binMul, "/": binDiv, "%": binMod,
	"==": binLooseEq, "!=": binLooseNe, "===": binStrictEq, "!==": binStrictNe,
	"<": binLt, ">": binGt, "<=": binLe, ">=": binGe,
	"&": binBitAnd, "|": binBitOr, "^": binBitXor,
	"<<": binShl, ">>": binShr, ">>>": binUshr,
	"in": binIn, "instanceof": binInstanceof,
}

func (it *Interp) binop(code int32, l, r Value) (Value, error) {
	switch code {
	case binAdd:
		if l.Kind == KindString || r.Kind == KindString ||
			(l.Kind == KindObject && !l.IsNullish()) || (r.Kind == KindObject && !r.IsNullish()) {
			ls, rs := l.ToString(), r.ToString()
			if len(ls)+len(rs) > maxStringLen {
				return Undefined(), it.ThrowError("RangeError", "allocation size overflow")
			}
			// large concatenations consume step budget proportionally, so
			// catch-and-retry loops still hit the interrupt
			it.steps += int64(len(ls)+len(rs)) / 256
			return String(ls + rs), nil
		}
		return Number(l.ToNumber() + r.ToNumber()), nil
	case binSub:
		return Number(l.ToNumber() - r.ToNumber()), nil
	case binMul:
		return Number(l.ToNumber() * r.ToNumber()), nil
	case binDiv:
		return Number(l.ToNumber() / r.ToNumber()), nil
	case binMod:
		return Number(math.Mod(l.ToNumber(), r.ToNumber())), nil
	case binLooseEq:
		return Boolean(LooseEquals(l, r)), nil
	case binLooseNe:
		return Boolean(!LooseEquals(l, r)), nil
	case binStrictEq:
		return Boolean(StrictEquals(l, r)), nil
	case binStrictNe:
		return Boolean(!StrictEquals(l, r)), nil
	case binLt, binGt, binLe, binGe:
		if l.Kind == KindString && r.Kind == KindString {
			switch code {
			case binLt:
				return Boolean(l.Str < r.Str), nil
			case binGt:
				return Boolean(l.Str > r.Str), nil
			case binLe:
				return Boolean(l.Str <= r.Str), nil
			default:
				return Boolean(l.Str >= r.Str), nil
			}
		}
		ln, rn := l.ToNumber(), r.ToNumber()
		switch code {
		case binLt:
			return Boolean(ln < rn), nil
		case binGt:
			return Boolean(ln > rn), nil
		case binLe:
			return Boolean(ln <= rn), nil
		default:
			return Boolean(ln >= rn), nil
		}
	case binBitAnd:
		return Number(float64(toInt32(l.ToNumber()) & toInt32(r.ToNumber()))), nil
	case binBitOr:
		return Number(float64(toInt32(l.ToNumber()) | toInt32(r.ToNumber()))), nil
	case binBitXor:
		return Number(float64(toInt32(l.ToNumber()) ^ toInt32(r.ToNumber()))), nil
	case binShl:
		return Number(float64(toInt32(l.ToNumber()) << (uint32(toInt32(r.ToNumber())) & 31))), nil
	case binShr:
		return Number(float64(toInt32(l.ToNumber()) >> (uint32(toInt32(r.ToNumber())) & 31))), nil
	case binUshr:
		return Number(float64(uint32(toInt32(l.ToNumber())) >> (uint32(toInt32(r.ToNumber())) & 31))), nil
	case binIn:
		if !r.IsObject() {
			return Undefined(), it.ThrowError("TypeError", "'in' requires an object")
		}
		return Boolean(r.Obj.Has(l.ToString())), nil
	case binInstanceof:
		if !r.IsFunction() {
			return Undefined(), it.ThrowError("TypeError", "right-hand side of instanceof is not callable")
		}
		pv, err := it.GetMember(r, "prototype")
		if err != nil || !pv.IsObject() {
			return Boolean(false), nil
		}
		if !l.IsObject() {
			return Boolean(false), nil
		}
		for cur := l.Obj.Proto; cur != nil; cur = cur.Proto {
			if cur == pv.Obj {
				return Boolean(true), nil
			}
		}
		return Boolean(false), nil
	}
	return Undefined(), it.ThrowError("InternalError", "unknown binary op code %d", code)
}

// GetMember reads property key from a value, invoking getters and firing the
// property-access hook. It implements string/number primitive boxing.
func (it *Interp) GetMember(objV Value, key string) (Value, error) {
	v, _, _, err := it.getMember(objV, key)
	return v, err
}

// getMember is GetMember plus the (owner, prop) pair when the read resolved
// through an ordinary property slot; the VM fills its inline caches from it.
// owner/prop are nil for primitive boxing, array fast paths, intrinsics and
// misses.
func (it *Interp) getMember(objV Value, key string) (Value, *Object, *Property, error) {
	switch objV.Kind {
	case KindUndefined, KindNull:
		err := it.ThrowError("TypeError", "cannot read property %q of %s", key, objV.TypeOf())
		return Undefined(), nil, nil, err
	case KindString:
		v, err := it.stringMember(objV.Str, key)
		return v, nil, nil, err
	case KindNumber:
		v, err := it.protoMember(it.Protos.Number, objV, key)
		return v, nil, nil, err
	case KindBool:
		v, err := it.protoMember(it.Protos.Boolean, objV, key)
		return v, nil, nil, err
	}
	o := objV.Obj
	// array fast paths
	if o.Class == "Array" {
		if key == "length" {
			return Int(len(o.Elems)), nil, nil, nil
		}
		if idx, ok := arrayIndex(key); ok {
			if idx < len(o.Elems) {
				return o.Elems[idx], nil, nil, nil
			}
			return Undefined(), nil, nil, nil
		}
	}
	owner, prop := o.FindProperty(key)
	if prop == nil {
		if v, ok := it.functionIntrinsic(o, key); ok {
			return v, nil, nil, nil
		}
		return Undefined(), nil, nil, nil
	}
	if it.PropAccessHook != nil {
		it.PropAccessHook(owner, key)
	}
	if prop.Accessor {
		if prop.Get == nil {
			return Undefined(), nil, nil, nil
		}
		v, err := it.CallFunction(prop.Get, objV, nil)
		return v, nil, nil, err
	}
	return prop.Value, owner, prop, nil
}

// protoMember resolves key on a primitive's prototype, binding `this`.
func (it *Interp) protoMember(proto *Object, this Value, key string) (Value, error) {
	owner, prop := proto.FindProperty(key)
	if prop == nil {
		return Undefined(), nil
	}
	if it.PropAccessHook != nil {
		it.PropAccessHook(owner, key)
	}
	if prop.Accessor {
		if prop.Get == nil {
			return Undefined(), nil
		}
		return it.CallFunction(prop.Get, this, nil)
	}
	return prop.Value, nil
}

func (it *Interp) stringMember(s, key string) (Value, error) {
	if key == "length" {
		return Int(len(s)), nil
	}
	if idx, ok := arrayIndex(key); ok {
		if idx < len(s) {
			return String(s[idx : idx+1]), nil
		}
		return Undefined(), nil
	}
	return it.protoMember(it.Protos.String, String(s), key)
}

// setMember writes property key on o, honouring setters along the chain.
func (it *Interp) setMember(o *Object, key string, val Value) error {
	if o.Class == "Array" {
		if key == "length" {
			n := int(val.ToNumber())
			if n < 0 {
				n = 0
			}
			if err := it.growElems(o, n); err != nil {
				return err
			}
			if n < len(o.Elems) {
				o.Elems = o.Elems[:n]
				o.touch()
			}
			return nil
		}
		if idx, ok := arrayIndex(key); ok {
			if err := it.growElems(o, idx+1); err != nil {
				return err
			}
			o.setElem(idx, val)
			return nil
		}
	}
	// own property?
	if prop, ok := o.lookupOwn(key); ok {
		if prop.Accessor {
			if prop.Set == nil {
				return nil // silently ignored (sloppy mode)
			}
			_, err := it.CallFunction(prop.Set, ObjectValue(o), []Value{val})
			return err
		}
		if !prop.Writable {
			return nil
		}
		o.setValue(prop, val)
		return nil
	}
	// inherited accessor?
	if _, prop := o.FindProperty(key); prop != nil && prop.Accessor {
		if prop.Set == nil {
			return nil
		}
		_, err := it.CallFunction(prop.Set, ObjectValue(o), []Value{val})
		return err
	}
	if o.NotExtensible {
		return nil
	}
	o.Set(key, val)
	return nil
}

// SetMember is the exported host-side property write.
func (it *Interp) SetMember(o *Object, key string, val Value) error {
	return it.setMember(o, key, val)
}
