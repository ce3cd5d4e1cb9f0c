package minjs

import "math"

// Completion signals threaded between exec levels. Loops compiled as jumps
// handle break/continue locally; where a construct's body runs in a
// recursive exec call (try, for-in, switch), break/continue surface as
// signals and the construct's handler routes or propagates them.
const (
	sigNone byte = iota
	sigBreak
	sigContinue
	sigReturn
)

// runToplevel executes a compiled program's toplevel code at global scope
// under frame, returning the program's completion value. It does not touch
// the step counter: RunProgram resets it, eval deliberately does not. A
// stray toplevel break/continue leaks errBreak/errContinue to the caller.
func (it *Interp) runToplevel(c *Code, frame *Frame) (Value, error) {
	savedLast := it.lastVal // reentrant: eval, timers and events nest runs
	it.lastVal = Undefined()
	it.ensureStack(int(c.maxStack))
	rv, sig, err := it.exec(c, 0, int32(len(c.ins)), it.root, frame)
	last := it.lastVal
	it.lastVal = savedLast
	if err != nil {
		return Undefined(), err
	}
	switch sig {
	case sigReturn:
		return rv, nil
	case sigBreak:
		return Undefined(), errBreak
	case sigContinue:
		return Undefined(), errContinue
	}
	return last, nil
}

// callCompiled invokes a script function through its bytecode. The caller
// (CallFunction) has already performed the depth check and arrow-this
// resolution. args may alias the caller's value stack: everything borrowed
// is copied into the callee scope before exec touches the stack.
func (it *Interp) callCompiled(lit *FuncLit, fn *Object, this Value, args []Value) (Value, error) {
	c := lit.compiled
	var sc *Scope
	if c.poolScope {
		sc = it.getPooledScope(fn.fnd.Env, c.scopeSize)
	} else {
		sc = it.newScopeIn(fn.fnd.Env, int(c.scopeSize))
	}
	for i, p := range lit.Params {
		if i < len(args) {
			sc.declare(p, args[i])
		} else {
			sc.declare(p, Undefined())
		}
	}
	if lit.UsesArguments {
		sc.declare("arguments", ObjectValue(it.NewArrayP(args...)))
	}
	frame := it.pushFrame(Frame{FnName: lit.Name, Script: lit.Script, Line: lit.Line})
	savedThis := it.curThis
	it.curThis = this
	it.ensureStack(int(c.maxStack))
	rv, sig, err := it.exec(c, 0, int32(len(c.ins)), sc, frame)
	it.curThis = savedThis
	it.popFrame()
	it.releaseScope(sc)
	if err != nil {
		return Undefined(), err
	}
	switch sig {
	case sigReturn:
		return rv, nil
	case sigBreak:
		// a break outside any loop leaks (frozen quirk)
		return Undefined(), errBreak
	case sigContinue:
		return Undefined(), errContinue
	}
	return Undefined(), nil
}

// ensureStack grows the shared value stack so the next exec has room for n
// slots above the current watermark.
func (it *Interp) ensureStack(n int) {
	need := it.vsp + n + 8
	if need <= len(it.vs) {
		return
	}
	size := len(it.vs)*2 + 64
	if size < need {
		size = need
	}
	ns := make([]Value, size)
	copy(ns, it.vs[:it.vsp])
	it.vs = ns
}

// getPooledScope returns a recycled scope (or a fresh poolable one) parented
// at parent. Only scopes the compiler proved capture-free are pooled.
func (it *Interp) getPooledScope(parent *Scope, n int32) *Scope {
	if k := len(it.scopeFree); k > 0 {
		s := it.scopeFree[k-1]
		it.scopeFree = it.scopeFree[:k-1]
		s.parent = parent
		return s
	}
	return &Scope{
		parent: parent,
		names:  make([]string, 0, n),
		vals:   make([]Value, 0, n),
		pooled: true,
	}
}

// releaseScope recycles a pooled scope. Non-pooled scopes (which may be
// captured by closures) are left untouched.
func (it *Interp) releaseScope(s *Scope) {
	if s == nil || !s.pooled {
		return
	}
	clear(s.names)
	clear(s.vals)
	s.names = s.names[:0]
	s.vals = s.vals[:0]
	s.parent = nil
	if len(it.scopeFree) < 64 {
		it.scopeFree = append(it.scopeFree, s)
	}
}

// icsFor returns this interpreter's inline-cache table for c. Tables are
// realm-local (cached Codes are shared across concurrent visits; object
// pointers must never leak into them) and die with the interpreter.
func (it *Interp) icsFor(c *Code) []icEntry {
	if c.numICs == 0 {
		return nil
	}
	if it.lastICCode == c {
		return it.lastICs
	}
	t := it.icTabs[c]
	if t == nil {
		if it.icTabs == nil {
			it.icTabs = make(map[*Code][]icEntry, 16)
		}
		t = make([]icEntry, c.numICs)
		it.icTabs[c] = t
	}
	it.lastICCode, it.lastICs = c, t
	return t
}

// exec runs instructions [lo,hi) of c against scope sc. It returns the
// value carried by sigReturn, the completion signal, and any error. The
// value stack is it.vs; exec's frame of it starts at it.vsp and is restored
// on exit. Reentrant operations (calls, property hooks into getters/setters,
// nested exec ranges) see the live watermark via it.vsp, which is mirrored
// from the local sp before each of them; it.vs must always be indexed
// directly because nested calls may grow (reallocate) it.
func (it *Interp) exec(c *Code, lo, hi int32, sc *Scope, frame *Frame) (Value, byte, error) {
	base := it.vsp
	entrySc := sc
	sp := base
	limit := it.stepLimit()
	ics := it.icsFor(c)
	var rv Value
	var rsig byte
	var rerr error
	pc := lo

run:
	for pc < hi {
		in := c.ins[pc]
		pc++
		switch in.op {
		case opStmt:
			it.steps++
			if it.steps > limit {
				rerr = &InterruptError{Reason: "step limit exceeded"}
				break run
			}
			frame.Line = int(in.a)

		case opStep:
			it.steps++
			if it.steps > limit {
				rerr = &InterruptError{Reason: "step limit exceeded"}
				break run
			}

		case opConst:
			it.vs[sp] = c.consts[in.a]
			sp++

		case opConstStep:
			it.steps++
			if it.steps > limit {
				rerr = &InterruptError{Reason: "step limit exceeded"}
				break run
			}
			it.vs[sp] = c.consts[in.a]
			sp++

		case opUndefined:
			it.vs[sp] = Undefined()
			sp++

		case opLoadName:
			it.steps++
			if it.steps > limit {
				rerr = &InterruptError{Reason: "step limit exceeded"}
				break run
			}
			it.vsp = sp // global reads can hit instrumented accessors
			var e *icEntry
			if ics != nil {
				e = &ics[in.b]
			}
			v, err := it.lookupIdentVM(c.atoms[in.a], sc, e)
			if err != nil {
				rerr = err
				break run
			}
			it.vs[sp] = v
			sp++

		case opThis:
			it.steps++
			if it.steps > limit {
				rerr = &InterruptError{Reason: "step limit exceeded"}
				break run
			}
			if it.curThis.Kind == KindUndefined {
				it.vs[sp] = ObjectValue(it.Global)
			} else {
				it.vs[sp] = it.curThis
			}
			sp++

		case opArray:
			n := int(in.a)
			sp -= n
			arr := it.NewArrayP(it.vs[sp : sp+n]...)
			it.vs[sp] = ObjectValue(arr)
			sp++

		case opObject:
			n := int(in.b)
			keys := c.shapes[in.a]
			sp -= n
			o := it.NewObjectP()
			for i := 0; i < n; i++ {
				o.Set(keys[i], it.vs[sp+i])
			}
			it.vs[sp] = ObjectValue(o)
			sp++

		case opClosure:
			lit := c.fns[in.a]
			fn := it.makeFunction(lit, sc)
			if lit.Arrow {
				this := it.curThis
				if this.Kind == KindUndefined {
					this = ObjectValue(it.Global)
				}
				fn.fnd.this = &this
			}
			it.vs[sp] = ObjectValue(fn)
			sp++

		case opDeclare:
			sp--
			sc.declare(c.atoms[in.a], it.vs[sp])

		case opPop:
			sp--

		case opStoreLast:
			sp--
			it.lastVal = it.vs[sp]

		case opClearLast:
			it.lastVal = Undefined()

		case opJump:
			pc = in.a

		case opJumpIfFalse:
			sp--
			if !it.vs[sp].Truthy() {
				pc = in.a
			}

		case opJumpIfTrue:
			sp--
			if it.vs[sp].Truthy() {
				pc = in.a
			}

		case opAndJump:
			if !it.vs[sp-1].Truthy() {
				pc = in.a
			} else {
				sp--
			}

		case opOrJump:
			if it.vs[sp-1].Truthy() {
				pc = in.a
			} else {
				sp--
			}

		case opNullishJump:
			if !it.vs[sp-1].IsNullish() {
				pc = in.a
			} else {
				sp--
			}

		case opBinary:
			r := it.vs[sp-1]
			l := it.vs[sp-2]
			sp--
			if l.Kind == KindNumber && r.Kind == KindNumber {
				var v Value
				ok := true
				switch in.a {
				case binAdd:
					v = Number(l.Num + r.Num)
				case binSub:
					v = Number(l.Num - r.Num)
				case binMul:
					v = Number(l.Num * r.Num)
				case binDiv:
					v = Number(l.Num / r.Num)
				case binLt:
					v = Boolean(l.Num < r.Num)
				case binGt:
					v = Boolean(l.Num > r.Num)
				case binLe:
					v = Boolean(l.Num <= r.Num)
				case binGe:
					v = Boolean(l.Num >= r.Num)
				case binStrictEq, binLooseEq:
					v = Boolean(l.Num == r.Num)
				case binStrictNe, binLooseNe:
					v = Boolean(l.Num != r.Num)
				default:
					ok = false
				}
				if ok {
					it.vs[sp-1] = v
					continue
				}
			}
			it.vsp = sp - 1 // instanceof may read a "prototype" accessor
			v, err := it.binop(in.a, l, r)
			if err != nil {
				rerr = err
				break run
			}
			it.vs[sp-1] = v

		case opUnary:
			v := it.vs[sp-1]
			switch in.a {
			case unNot:
				it.vs[sp-1] = Boolean(!v.Truthy())
			case unNeg:
				it.vs[sp-1] = Number(-v.ToNumber())
			case unPlus:
				it.vs[sp-1] = Number(v.ToNumber())
			case unBitNot:
				it.vs[sp-1] = Number(float64(^toInt32(v.ToNumber())))
			}

		case opTypeofName:
			it.steps++
			if it.steps > limit {
				rerr = &InterruptError{Reason: "step limit exceeded"}
				break run
			}
			it.vsp = sp
			// lookup failures (including interrupts raised by accessor
			// globals) yield "undefined"
			if v, err := it.lookupIdentVM(c.atoms[in.a], sc, nil); err == nil {
				it.vs[sp] = String(v.TypeOf())
			} else {
				it.vs[sp] = String("undefined")
			}
			sp++

		case opTypeofVal:
			it.vs[sp-1] = String(it.vs[sp-1].TypeOf())

		case opPreIncDec:
			it.vs[sp-1] = Number(it.vs[sp-1].ToNumber() + float64(in.a))

		case opPostIncDec:
			n := it.vs[sp-1].ToNumber()
			it.vs[sp-1] = Number(n)
			it.vs[sp] = Number(n + float64(in.a))
			sp++

		case opGetMember:
			name := c.atoms[in.a]
			objV := it.vs[sp-1]
			if objV.Kind == KindObject && ics != nil {
				e := &ics[in.b]
				if e.prop != nil && e.recv == objV.Obj && e.recvVer == objV.Obj.ver {
					if e.proto == nil {
						if it.PropAccessHook != nil {
							it.PropAccessHook(objV.Obj, name)
						}
						it.vs[sp-1] = e.prop.Value
						continue
					}
					if objV.Obj.Proto == e.proto && e.protoVer == e.proto.ver {
						if it.PropAccessHook != nil {
							it.PropAccessHook(e.proto, name)
						}
						it.vs[sp-1] = e.prop.Value
						continue
					}
				}
			}
			it.vsp = sp
			v, owner, prop, err := it.getMember(objV, name)
			if err != nil {
				rerr = err
				break run
			}
			if prop != nil && ics != nil && objV.Kind == KindObject {
				o := objV.Obj
				if owner == o {
					ics[in.b] = icEntry{recv: o, recvVer: o.ver, prop: prop}
				} else if owner == o.Proto {
					ics[in.b] = icEntry{recv: o, recvVer: o.ver, proto: owner, protoVer: owner.ver, prop: prop}
				}
			}
			it.vs[sp-1] = v

		case opGetMemberC:
			kv := it.vs[sp-1]
			objV := it.vs[sp-2]
			sp -= 2
			if kv.Kind == KindNumber {
				f := kv.Num
				idx := int(f)
				if float64(idx) == f && idx >= 0 && !(f == 0 && math.Signbit(f)) {
					if objV.Kind == KindObject && objV.Obj.Class == "Array" {
						if idx < len(objV.Obj.Elems) {
							it.vs[sp] = objV.Obj.Elems[idx]
						} else {
							it.vs[sp] = Undefined()
						}
						sp++
						continue
					}
					if objV.Kind == KindString {
						if idx < len(objV.Str) {
							it.vs[sp] = String(objV.Str[idx : idx+1])
						} else {
							it.vs[sp] = Undefined()
						}
						sp++
						continue
					}
				}
			}
			it.vsp = sp
			v, _, _, err := it.getMember(objV, kv.ToString())
			if err != nil {
				rerr = err
				break run
			}
			it.vs[sp] = v
			sp++

		case opSetMember:
			objV := it.vs[sp-1]
			sp--
			val := it.vs[sp-1]
			name := c.atoms[in.a]
			if !objV.IsObject() {
				rerr = it.ThrowError("TypeError", "cannot set property %q on %s", name, objV.TypeOf())
				break run
			}
			it.vsp = sp
			if err := it.setMember(objV.Obj, name, val); err != nil {
				rerr = err
				break run
			}

		case opSetMemberC:
			kv := it.vs[sp-1]
			objV := it.vs[sp-2]
			sp -= 2
			val := it.vs[sp-1]
			if !objV.IsObject() {
				rerr = it.ThrowError("TypeError", "cannot set property %q on %s", kv.ToString(), objV.TypeOf())
				break run
			}
			if kv.Kind == KindNumber && objV.Obj.Class == "Array" {
				f := kv.Num
				idx := int(f)
				if float64(idx) == f && idx >= 0 && !(f == 0 && math.Signbit(f)) {
					o := objV.Obj
					if err := it.growElems(o, idx+1); err != nil {
						rerr = err
						break run
					}
					o.setElem(idx, val)
					continue
				}
			}
			it.vsp = sp
			if err := it.setMember(objV.Obj, kv.ToString(), val); err != nil {
				rerr = err
				break run
			}

		case opDeleteMember:
			objV := it.vs[sp-1]
			if !objV.IsObject() {
				it.vs[sp-1] = Boolean(true)
			} else {
				it.vs[sp-1] = Boolean(objV.Obj.Delete(c.atoms[in.a]))
			}

		case opDeleteMemberC:
			kv := it.vs[sp-1]
			objV := it.vs[sp-2]
			sp--
			if !objV.IsObject() {
				it.vs[sp-1] = Boolean(true)
			} else {
				it.vs[sp-1] = Boolean(objV.Obj.Delete(kv.ToString()))
			}

		case opStoreName:
			val := it.vs[sp-1]
			name := c.atoms[in.a]
			stored := false
			for cur := sc; cur != nil; cur = cur.parent {
				if slot := cur.slot(name); slot != nil {
					cur.store(slot, val)
					stored = true
					break
				}
				if cur.global != nil {
					it.vsp = sp
					if err := it.setMember(cur.global, name, val); err != nil {
						rerr = err
						break run
					}
					stored = true
					break
				}
			}
			if !stored {
				it.Global.Set(name, val)
			}

		case opMethod:
			name := c.atoms[in.a]
			objV := it.vs[sp-1]
			var fnV Value
			hit := false
			if objV.Kind == KindObject && ics != nil {
				e := &ics[in.b]
				if e.prop != nil && e.recv == objV.Obj && e.recvVer == objV.Obj.ver {
					if e.proto == nil {
						if it.PropAccessHook != nil {
							it.PropAccessHook(objV.Obj, name)
						}
						fnV = e.prop.Value
						hit = true
					} else if objV.Obj.Proto == e.proto && e.protoVer == e.proto.ver {
						if it.PropAccessHook != nil {
							it.PropAccessHook(e.proto, name)
						}
						fnV = e.prop.Value
						hit = true
					}
				}
			}
			if !hit {
				it.vsp = sp
				v, owner, prop, err := it.getMember(objV, name)
				if err != nil {
					rerr = err
					break run
				}
				if prop != nil && ics != nil && objV.Kind == KindObject {
					o := objV.Obj
					if owner == o {
						ics[in.b] = icEntry{recv: o, recvVer: o.ver, prop: prop}
					} else if owner == o.Proto {
						ics[in.b] = icEntry{recv: o, recvVer: o.ver, proto: owner, protoVer: owner.ver, prop: prop}
					}
				}
				fnV = v
			}
			if !fnV.IsFunction() {
				rerr = it.ThrowError("TypeError", "%s.%s is not a function", objV.TypeOf(), name)
				break run
			}
			it.vs[sp] = fnV
			sp++

		case opMethodC:
			kv := it.vs[sp-1]
			objV := it.vs[sp-2]
			key := kv.ToString()
			sp-- // receiver stays on the stack as `this`
			it.vsp = sp
			fnV, _, _, err := it.getMember(objV, key)
			if err != nil {
				rerr = err
				break run
			}
			if !fnV.IsFunction() {
				rerr = it.ThrowError("TypeError", "%s.%s is not a function", objV.TypeOf(), key)
				break run
			}
			it.vs[sp] = fnV
			sp++

		case opCheckFn:
			if !it.vs[sp-1].IsFunction() {
				name := "value"
				if in.a >= 0 {
					name = c.atoms[in.a]
				}
				rerr = it.ThrowError("TypeError", "%s is not a function", name)
				break run
			}

		case opCheckCtor:
			if !it.vs[sp-1].IsFunction() {
				rerr = it.ThrowError("TypeError", "not a constructor")
				break run
			}

		case opCall:
			n := int(in.a)
			var fnV, thisV Value
			var newSp int
			if in.b != 0 {
				fnV = it.vs[sp-1-n]
				thisV = it.vs[sp-2-n]
				newSp = sp - 2 - n
			} else {
				fnV = it.vs[sp-1-n]
				thisV = ObjectValue(it.Global)
				newSp = sp - 1 - n
			}
			args := it.vs[sp-n : sp]
			if fnV.Obj.fnd != nil && fnV.Obj.fnd.Native != nil {
				// natives may retain args (bind); script calls copy them
				// into the callee scope before the stack is reused
				args = append(make([]Value, 0, n), args...)
			}
			it.vsp = newSp
			v, err := it.CallFunction(fnV.Obj, thisV, args)
			if err != nil {
				rerr = err
				break run
			}
			sp = newSp
			it.vs[sp] = v
			sp++

		case opNew:
			n := int(in.a)
			cv := it.vs[sp-1-n]
			args := append(make([]Value, 0, n), it.vs[sp-n:sp]...)
			newSp := sp - 1 - n
			it.vsp = newSp
			v, err := it.Construct(cv.Obj, args)
			if err != nil {
				rerr = err
				break run
			}
			sp = newSp
			it.vs[sp] = v
			sp++

		case opReturn:
			sp--
			rv = it.vs[sp]
			rsig = sigReturn
			break run

		case opThrow:
			sp--
			rerr = &Throw{Value: it.vs[sp], Stack: it.CaptureStack()}
			break run

		case opSignal:
			rsig = byte(in.a)
			break run

		case opPushScope:
			if in.b != 0 {
				sc = it.getPooledScope(sc, in.a)
			} else {
				sc = NewScope(sc)
			}

		case opPopScope:
			p := sc.parent
			it.releaseScope(sc)
			sc = p

		case opUnwind:
			for i := int32(0); i < in.a; i++ {
				p := sc.parent
				it.releaseScope(sc)
				sc = p
			}

		case opTry:
			aux := &c.tries[in.b]
			it.vsp = sp
			v, sig, err := it.execTry(c, aux, sc, frame)
			if err != nil {
				rerr = err
				break run
			}
			switch sig {
			case sigBreak:
				if aux.breakPC >= 0 {
					pc = aux.breakPC
				} else {
					rsig = sigBreak
					break run
				}
			case sigContinue:
				if aux.contPC >= 0 {
					pc = aux.contPC
				} else {
					rsig = sigContinue
					break run
				}
			case sigReturn:
				rv = v
				rsig = sigReturn
				break run
			}

		case opForIn:
			sp--
			objV := it.vs[sp]
			it.vsp = sp
			aux := &c.forins[in.b]
			v, sig, err := it.execForIn(c, aux, objV, sc, frame)
			if err != nil {
				rerr = err
				break run
			}
			if sig == sigReturn {
				rv = v
				rsig = sigReturn
				break run
			}

		case opSwitch:
			sp--
			tag := it.vs[sp]
			it.vsp = sp
			aux := &c.switches[in.b]
			v, sig, err := it.execSwitch(c, aux, tag, sc, frame)
			if err != nil {
				rerr = err
				break run
			}
			switch sig {
			case sigContinue:
				if aux.contPC >= 0 {
					pc = aux.contPC
				} else {
					rsig = sigContinue
					break run
				}
			case sigReturn:
				rv = v
				rsig = sigReturn
				break run
			}

		case opInvalidAssign:
			rerr = it.ThrowError("ReferenceError", "invalid assignment target")
			break run
		}
	}

	it.vsp = base
	for s := sc; s != entrySc && s != nil; {
		p := s.parent
		it.releaseScope(s)
		s = p
	}
	return rv, rsig, rerr
}

// execValue runs an expression range and returns the single value it leaves.
func (it *Interp) execValue(c *Code, lo, hi int32, sc *Scope, frame *Frame) (Value, error) {
	at := it.vsp
	_, _, err := it.exec(c, lo, hi, sc, frame)
	if err != nil {
		return Undefined(), err
	}
	return it.vs[at], nil
}

// execTry runs a try statement: catch handles only *Throw, and any abnormal
// finally completion overrides the pending one.
func (it *Interp) execTry(c *Code, aux *tryAux, sc *Scope, frame *Frame) (Value, byte, error) {
	rv, rsig, rerr := it.exec(c, aux.body[0], aux.body[1], sc, frame)
	if thr, ok := rerr.(*Throw); ok && aux.catch[0] >= 0 {
		var inner *Scope
		if aux.catchPool {
			inner = it.getPooledScope(sc, aux.catchSize)
		} else {
			inner = NewScope(sc)
		}
		if aux.catchAtom >= 0 {
			inner.declare(c.atoms[aux.catchAtom], thr.Value)
		}
		rv, rsig, rerr = it.exec(c, aux.catch[0], aux.catch[1], inner, frame)
		it.releaseScope(inner)
	}
	if aux.finally[0] >= 0 {
		fv, fsig, ferr := it.exec(c, aux.finally[0], aux.finally[1], sc, frame)
		if ferr != nil || fsig != sigNone {
			rv, rsig, rerr = fv, fsig, ferr
		}
	}
	if rerr != nil {
		return Undefined(), sigNone, rerr
	}
	return rv, rsig, nil
}

// execForIn runs a for-in/for-of loop, including its frozen quirks:
// assignment to an existing global swallows setter errors, for-of array
// iteration snapshots the element slice header, and primitives other than
// strings iterate nothing.
func (it *Interp) execForIn(c *Code, aux *forInAux, objV Value, sc *Scope, frame *Frame) (Value, byte, error) {
	var inner *Scope
	if aux.pool {
		inner = it.getPooledScope(sc, aux.size)
	} else {
		inner = NewScope(sc)
	}
	name := c.atoms[aux.nameAtom]
	assign := func(v Value) {
		if aux.hasDecl {
			inner.declare(name, v)
		} else if s, slot := lookupSlot(inner, name); slot != nil {
			s.store(slot, v)
		} else if it.Global.Has(name) {
			if err := it.setMember(it.Global, name, v); err == nil {
				return
			}
		} else {
			inner.declare(name, v)
		}
	}
	// runBody returns stop=true on break (or return, with sig/rv set).
	runBody := func() (stop bool, rv Value, sig byte, err error) {
		bv, bsig, berr := it.exec(c, aux.body[0], aux.body[1], inner, frame)
		if berr != nil {
			return false, Undefined(), sigNone, berr
		}
		switch bsig {
		case sigBreak:
			return true, Undefined(), sigNone, nil
		case sigReturn:
			return true, bv, sigReturn, nil
		}
		return false, Undefined(), sigNone, nil
	}
	done := func(rv Value, sig byte, err error) (Value, byte, error) {
		it.releaseScope(inner)
		return rv, sig, err
	}
	if aux.of {
		switch {
		case objV.IsObject() && objV.Obj.Class == "Array":
			for _, el := range objV.Obj.Elems {
				assign(el)
				stop, rv, sig, err := runBody()
				if err != nil || sig == sigReturn {
					return done(rv, sig, err)
				}
				if stop {
					break
				}
			}
		case objV.Kind == KindString:
			for _, r := range objV.Str {
				assign(String(string(r)))
				stop, rv, sig, err := runBody()
				if err != nil || sig == sigReturn {
					return done(rv, sig, err)
				}
				if stop {
					break
				}
			}
		case objV.IsNullish():
			return done(Undefined(), sigNone, it.ThrowError("TypeError", "cannot iterate %s", objV.TypeOf()))
		}
		return done(Undefined(), sigNone, nil)
	}
	if !objV.IsObject() {
		return done(Undefined(), sigNone, nil)
	}
	for _, key := range objV.Obj.EnumerateAll() {
		assign(String(key))
		stop, rv, sig, err := runBody()
		if err != nil || sig == sigReturn {
			return done(rv, sig, err)
		}
		if stop {
			break
		}
	}
	return done(Undefined(), sigNone, nil)
}

// execSwitch runs a switch statement: strict-equals matching in source
// order, fallthrough across case bodies with the default interleaved at its
// source position, break consumed, and — a frozen quirk — no hoisting of
// function declarations in case bodies.
func (it *Interp) execSwitch(c *Code, aux *switchAux, tag Value, sc *Scope, frame *Frame) (Value, byte, error) {
	inner := sc
	if !aux.elide {
		if aux.pool {
			inner = it.getPooledScope(sc, 4)
		} else {
			inner = NewScope(sc)
		}
	}
	done := func(rv Value, sig byte, err error) (Value, byte, error) {
		if !aux.elide {
			it.releaseScope(inner)
		}
		return rv, sig, err
	}
	matched := int32(-1)
	for i := range aux.tests {
		tv, err := it.execValue(c, aux.tests[i][0], aux.tests[i][1], inner, frame)
		if err != nil {
			return done(Undefined(), sigNone, err)
		}
		if StrictEquals(tag, tv) {
			matched = int32(i)
			break
		}
	}
	runList := func(r [2]int32) (Value, byte, error) {
		return it.exec(c, r[0], r[1], inner, frame)
	}
	runFrom := func(start, includeDefaultAt int32) (Value, byte, error) {
		for i := start; i < int32(len(aux.bodies)); i++ {
			if includeDefaultAt == i && aux.hasDef {
				if rv, sig, err := runList(aux.def); err != nil || sig != sigNone {
					return rv, sig, err
				}
			}
			if rv, sig, err := runList(aux.bodies[i]); err != nil || sig != sigNone {
				return rv, sig, err
			}
		}
		if includeDefaultAt >= int32(len(aux.bodies)) && aux.hasDef {
			if rv, sig, err := runList(aux.def); err != nil || sig != sigNone {
				return rv, sig, err
			}
		}
		return Undefined(), sigNone, nil
	}
	var rv Value
	var rsig byte
	var rerr error
	if matched >= 0 {
		rv, rsig, rerr = runFrom(matched, -1)
	} else if aux.hasDef {
		rv, rsig, rerr = runFrom(aux.defPos, aux.defPos)
	}
	if rerr != nil {
		return done(Undefined(), sigNone, rerr)
	}
	if rsig == sigBreak {
		rsig = sigNone
	}
	return done(rv, rsig, nil)
}
