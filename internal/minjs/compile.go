package minjs

import "fmt"

// This file lowers minjs ASTs to the flat bytecode executed by vm.go. The
// engine's observable behaviour — values, error strings, step and alloc
// counts, PropAccessHook sequences and stack traces — is frozen in
// testdata/engine.golden.json, recorded from the reference tree-walking
// interpreter this VM replaced. Each opcode below maps to a specific slice
// of that behaviour, including its quirks (switch bodies never hoist
// function declarations, `delete x` does not evaluate x, and so on); any
// change that moves a golden channel is a semantics change.

// Op is a bytecode opcode.
type Op uint8

const (
	opStmt          Op = iota // statement prologue: step, frame.Line = a
	opStep                    // expression prologue: step only
	opConst                   // push consts[a] (no step)
	opConstStep               // step + push consts[a] (fused literal)
	opUndefined               // push undefined (no step)
	opLoadName                // step + lookupIdentVM(atoms[a]); push; b = inline-cache site
	opThis                    // step + push curThis (or global)
	opArray                   // step was separate; pop a elems, push new array
	opObject                  // pop b values, push object with shape shapes[a]
	opClosure                 // push closure over fns[a]
	opDeclare                 // pop v, declare atoms[a] in current scope
	opPop                     // pop and discard
	opStoreLast               // pop into the toplevel completion register
	opClearLast               // completion register = undefined
	opJump                    // pc = a
	opJumpIfFalse             // pop; if falsy pc = a
	opJumpIfTrue              // pop; if truthy pc = a
	opAndJump                 // if peek falsy: keep, pc = a; else pop
	opOrJump                  // if peek truthy: keep, pc = a; else pop
	opNullishJump             // if peek non-nullish: keep, pc = a; else pop
	opBinary                  // pop r, l; push binop(a, l, r)
	opUnary                   // replace top with unary op a
	opTypeofName              // step + typeof identifier atoms[a] (swallows lookup errors)
	opTypeofVal               // replace top with typeof string
	opPreIncDec               // replace top number n with n+a
	opPostIncDec              // replace top with Number(n); push Number(n+a)
	opGetMember               // pop obj; push obj.atoms[a]; b = inline-cache site
	opGetMemberC              // pop idx, obj; push obj[idx]
	opSetMember               // pop obj (val stays at top); obj.atoms[a] = val
	opSetMemberC              // pop idx, obj (val stays); obj[idx] = val
	opDeleteMember            // pop obj; push delete obj.atoms[a]
	opDeleteMemberC           // pop idx, obj; push delete obj[idx]
	opStoreName               // peek val; assign to atoms[a] (assignTo Ident logic)
	opMethod                  // pop obj; push obj, obj.atoms[a] (checked callable); b = IC site
	opMethodC                 // pop idx, obj; push obj, obj[idx] (checked callable)
	opCheckFn                 // top must be callable else TypeError (a = name atom or -1)
	opCheckCtor               // top must be callable else "not a constructor"
	opCall                    // pop a args (+fn, +this when b==1); push result
	opNew                     // pop a args + ctor; push constructed
	opReturn                  // pop; return value
	opThrow                   // pop; throw value
	opSignal                  // break (a==1) / continue (a==2) across an exec boundary
	opPushScope               // enter block scope (a = size hint, b = poolable)
	opPopScope                // leave block scope
	opUnwind                  // leave a scopes (break/continue jumping out of blocks)
	opTry                     // run tries[b] (try/catch/finally)
	opForIn                   // pop obj; run forins[b] (for-in / for-of)
	opSwitch                  // pop tag; run switches[b]
	opInvalidAssign           // throw ReferenceError "invalid assignment target"
)

// inst is one instruction. Jumps are absolute pc values in a.
type inst struct {
	op   Op
	a, b int32
}

// tryAux describes a try/catch/finally region. Ranges are [lo,hi) slices of
// the instruction stream executed by recursive exec calls; lo == -1 means
// the clause is absent. breakPC/contPC point at trampolines that route
// break/continue signals escaping the region to the enclosing loop at the
// try's own exec level, or -1 to propagate further out.
type tryAux struct {
	body, catch, finally [2]int32
	catchAtom            int32 // -1: unnamed catch
	catchSize            int32
	catchPool            bool
	breakPC, contPC      int32
}

// forInAux describes a for-in/for-of loop body region.
type forInAux struct {
	body     [2]int32
	of       bool
	hasDecl  bool
	nameAtom int32
	size     int32
	pool     bool
}

// switchAux describes a switch region: test expression ranges, case body
// ranges and the default body range, in source order.
type switchAux struct {
	tests  [][2]int32
	bodies [][2]int32
	def    [2]int32
	hasDef bool
	defPos int32
	elide  bool // no case declares into the switch scope: skip creating it
	pool   bool
	contPC int32
}

// icEntry is an inline-cache entry for one property-load site. proto == nil
// caches an own property of recv; otherwise the property lives on recv's
// direct prototype. Validation compares the receiver identity and the
// version counters captured at fill time; any structural mutation on either
// object bumps its counter and kills the entry. Entries live in per-Interp
// tables (Interp.icsFor), never on the shared Code: Codes are cached across
// visits and shards, and realm-local object pointers stored there would both
// race and pin dead realms' object graphs for the cache's lifetime.
type icEntry struct {
	recv     *Object
	proto    *Object
	prop     *Property
	recvVer  uint32
	protoVer uint32
}

// Code is the compiled form of a program body or function body. It is
// immutable after Compile returns, so one Code may execute concurrently on
// any number of interpreters.
type Code struct {
	ins      []inst
	consts   []Value
	atoms    []string // shared across all Codes of one program
	fns      []*FuncLit
	shapes   [][]string // object-literal key lists
	tries    []tryAux
	forins   []forInAux
	switches []switchAux
	numICs   int32
	maxStack int32
	// call-scope shape for function bodies
	scopeSize int32
	poolScope bool
}

// Compile lowers prog and every function literal it contains to bytecode
// and returns prog. It is idempotent and must not race with execution of
// the same Program. The compiler is total on parser output; an AST shape
// it does not know is an internal error and panics.
func Compile(prog *Program) *Program {
	if prog.compiled != nil {
		return prog
	}
	pc := &progCompiler{atoms: newAtomTable()}
	c := &Code{}
	cp := &compiler{p: pc, c: c}
	cp.hoistOps(prog.Body)
	for _, st := range prog.Body {
		cp.stmt(st, true)
	}
	pc.codes = append(pc.codes, c)
	pc.top = c
	prog.compiled = pc.finish()
	return prog
}

// progCompiler holds per-program compilation state shared by all function
// bodies: the interned atom table and the list of produced Codes.
type progCompiler struct {
	atoms *atomTable
	codes []*Code
	top   *Code
}

func (p *progCompiler) finish() *Code {
	for _, c := range p.codes {
		c.atoms = p.atoms.atoms
	}
	return p.top
}

// compileFn lowers one function literal's body.
func (p *progCompiler) compileFn(lit *FuncLit) {
	if lit.compiled != nil {
		return
	}
	c := &Code{
		scopeSize: int32(len(lit.Params)) + 2,
		poolScope: !anyHasFunc(lit.Body),
	}
	cp := &compiler{p: p, c: c}
	cp.hoistOps(lit.Body)
	for _, st := range lit.Body {
		cp.stmt(st, false)
	}
	p.codes = append(p.codes, c)
	lit.compiled = c
}

// loopCtx tracks the innermost enclosing loop at the current exec level.
// break/continue sites append jump instructions to the patch lists; the loop
// emitter resolves them once the exit and continue targets are known.
type loopCtx struct {
	breakPatches []int32
	contPatches  []int32
	targetD      int32 // scope depth at the jump landing sites
}

// compiler emits instructions for one Code.
type compiler struct {
	p      *progCompiler
	c      *Code
	depth  int32 // current value-stack depth
	scopeD int32 // current lexical scope depth within this Code
	loop   *loopCtx
	consts map[Value]int32
}

func (cp *compiler) emit(op Op, a, b int32) int32 {
	cp.c.ins = append(cp.c.ins, inst{op: op, a: a, b: b})
	return int32(len(cp.c.ins) - 1)
}

func (cp *compiler) here() int32 { return int32(len(cp.c.ins)) }

func (cp *compiler) patch(at, target int32) { cp.c.ins[at].a = target }

func (cp *compiler) push(n int32) {
	cp.depth += n
	if cp.depth > cp.c.maxStack {
		cp.c.maxStack = cp.depth
	}
}

func (cp *compiler) pop(n int32) { cp.depth -= n }

func (cp *compiler) atom(s string) int32 { return cp.p.atoms.intern(s) }

func (cp *compiler) konst(v Value) int32 {
	if cp.consts == nil {
		cp.consts = make(map[Value]int32, 8)
	}
	if i, ok := cp.consts[v]; ok {
		return i
	}
	i := int32(len(cp.c.consts))
	cp.c.consts = append(cp.c.consts, v)
	cp.consts[v] = i // NaN never matches itself: harmless duplicate consts
	return i
}

func (cp *compiler) icSite() int32 {
	cp.c.numICs++
	return cp.c.numICs - 1
}

func (cp *compiler) fnIndex(lit *FuncLit) int32 {
	cp.c.fns = append(cp.c.fns, lit)
	cp.p.compileFn(lit)
	return int32(len(cp.c.fns) - 1)
}

// hoistOps emits the function-declaration hoisting preamble: one closure +
// declare per FuncDecl, in source order. Only program bodies, function
// bodies and scoped blocks hoist — switch case bodies deliberately do not
// (a FuncDecl there is dead code; a frozen quirk).
func (cp *compiler) hoistOps(body []Node) {
	for _, st := range body {
		if fd, ok := st.(*FuncDecl); ok {
			cp.emit(opClosure, cp.fnIndex(fd.Fn), 0)
			cp.push(1)
			cp.emit(opDeclare, cp.atom(fd.Fn.Name), 0)
			cp.pop(1)
		}
	}
}

// ---- statement compilation ----

// stmt compiles one statement. wantLast is true only for program-toplevel
// statement positions, which track the completion value returned by
// RunProgram and eval; everywhere else statement values are discarded.
func (cp *compiler) stmt(n Node, wantLast bool) {
	line := int32(n.nodeLine())
	switch st := n.(type) {
	case *VarDecl:
		cp.emit(opStmt, line, 0)
		for i, name := range st.Names {
			if st.Inits[i] != nil {
				cp.expr(st.Inits[i])
			} else {
				cp.emit(opUndefined, 0, 0)
				cp.push(1)
			}
			cp.emit(opDeclare, cp.atom(name), 0)
			cp.pop(1)
		}
		if wantLast {
			cp.emit(opClearLast, 0, 0)
		}

	case *ExprStmt:
		cp.emit(opStmt, line, 0)
		cp.expr(st.X)
		if wantLast {
			cp.emit(opStoreLast, 0, 0)
		} else {
			cp.emit(opPop, 0, 0)
		}
		cp.pop(1)

	case *FuncDecl:
		cp.emit(opStmt, line, 0) // body already hoisted; the statement still steps
		if wantLast {
			cp.emit(opClearLast, 0, 0)
		}

	case *BlockStmt:
		cp.emit(opStmt, line, 0)
		if st.NeedsScope {
			size := directDeclCount(st.Body)
			pool := boolToI32(!anyHasFunc(st.Body))
			cp.emit(opPushScope, size, pool)
			cp.scopeD++
			cp.hoistOps(st.Body)
			for _, s := range st.Body {
				cp.stmt(s, wantLast)
			}
			cp.emit(opPopScope, 0, 0)
			cp.scopeD--
		} else {
			for _, s := range st.Body {
				cp.stmt(s, wantLast)
			}
		}
		if wantLast && len(st.Body) == 0 {
			cp.emit(opClearLast, 0, 0)
		}

	case *IfStmt:
		cp.emit(opStmt, line, 0)
		cp.expr(st.Cond)
		jf := cp.emit(opJumpIfFalse, -1, 0)
		cp.pop(1)
		cp.stmt(st.Then, wantLast)
		switch {
		case st.Else != nil:
			j2 := cp.emit(opJump, -1, 0)
			cp.patch(jf, cp.here())
			cp.stmt(st.Else, wantLast)
			cp.patch(j2, cp.here())
		case wantLast:
			// missing else yields undefined as the statement value
			j2 := cp.emit(opJump, -1, 0)
			cp.patch(jf, cp.here())
			cp.emit(opClearLast, 0, 0)
			cp.patch(j2, cp.here())
		default:
			cp.patch(jf, cp.here())
		}

	case *WhileStmt:
		cp.emit(opStmt, line, 0)
		saved := cp.loop
		l := &loopCtx{targetD: cp.scopeD}
		cp.loop = l
		start := cp.here()
		cp.expr(st.Cond)
		jf := cp.emit(opJumpIfFalse, -1, 0)
		cp.pop(1)
		cp.stmt(st.Body, false)
		cp.emit(opJump, start, 0)
		exit := cp.here()
		cp.patch(jf, exit)
		cp.resolveLoop(l, exit, start)
		cp.loop = saved
		if wantLast {
			cp.emit(opClearLast, 0, 0)
		}

	case *DoWhileStmt:
		cp.emit(opStmt, line, 0)
		saved := cp.loop
		l := &loopCtx{targetD: cp.scopeD}
		cp.loop = l
		start := cp.here()
		cp.stmt(st.Body, false)
		cont := cp.here()
		cp.expr(st.Cond)
		cp.emit(opJumpIfTrue, start, 0)
		cp.pop(1)
		exit := cp.here()
		cp.resolveLoop(l, exit, cont)
		cp.loop = saved
		if wantLast {
			cp.emit(opClearLast, 0, 0)
		}

	case *ForStmt:
		cp.emit(opStmt, line, 0)
		// The for scope is elided when nothing can ever declare into it (an
		// empty scope is invisible to lookups, so this is unobservable).
		needScope := (st.Init != nil && declaresInto(st.Init)) || declaresInto(st.Body)
		if needScope {
			pool := boolToI32(!hasFuncNode(st.Init) && !hasFuncNode(st.Cond) &&
				!hasFuncNode(st.Post) && !hasFuncNode(st.Body))
			cp.emit(opPushScope, 4, pool)
			cp.scopeD++
		}
		if st.Init != nil {
			cp.stmt(st.Init, false)
		}
		saved := cp.loop
		l := &loopCtx{targetD: cp.scopeD}
		cp.loop = l
		start := cp.here()
		var jf int32 = -1
		if st.Cond != nil {
			cp.expr(st.Cond)
			jf = cp.emit(opJumpIfFalse, -1, 0)
			cp.pop(1)
		}
		cp.stmt(st.Body, false)
		post := cp.here()
		if st.Post != nil {
			cp.expr(st.Post)
			cp.emit(opPop, 0, 0)
			cp.pop(1)
		}
		cp.emit(opJump, start, 0)
		exit := cp.here()
		if jf >= 0 {
			cp.patch(jf, exit)
		}
		cp.resolveLoop(l, exit, post)
		cp.loop = saved
		if needScope {
			cp.emit(opPopScope, 0, 0)
			cp.scopeD--
		}
		if wantLast {
			cp.emit(opClearLast, 0, 0)
		}

	case *ForInStmt:
		cp.emit(opStmt, line, 0)
		cp.expr(st.Obj)
		aux := forInAux{
			of:       st.Of,
			hasDecl:  st.Decl != "",
			nameAtom: cp.atom(st.Name),
			size:     1 + directDeclCount([]Node{st.Body}),
			pool:     !hasFuncNode(st.Body),
		}
		auxIdx := int32(len(cp.c.forins))
		cp.c.forins = append(cp.c.forins, aux)
		cp.emit(opForIn, 0, auxIdx)
		cp.pop(1)
		jOver := cp.emit(opJump, -1, 0)
		savedLoop := cp.loop
		cp.loop = nil // body is an exec boundary: break/continue become signals
		lo := cp.here()
		cp.stmt(st.Body, false)
		cp.c.forins[auxIdx].body = [2]int32{lo, cp.here()}
		cp.loop = savedLoop
		cp.patch(jOver, cp.here())
		if wantLast {
			cp.emit(opClearLast, 0, 0)
		}

	case *ReturnStmt:
		cp.emit(opStmt, line, 0)
		if st.X != nil {
			cp.expr(st.X)
		} else {
			cp.emit(opUndefined, 0, 0)
			cp.push(1)
		}
		cp.emit(opReturn, 0, 0)
		cp.pop(1)

	case *BreakStmt:
		cp.emit(opStmt, line, 0)
		if cp.loop != nil {
			if k := cp.scopeD - cp.loop.targetD; k > 0 {
				cp.emit(opUnwind, k, 0)
			}
			cp.loop.breakPatches = append(cp.loop.breakPatches, cp.emit(opJump, -1, 0))
		} else {
			cp.emit(opSignal, 1, 0)
		}

	case *ContinueStmt:
		cp.emit(opStmt, line, 0)
		if cp.loop != nil {
			if k := cp.scopeD - cp.loop.targetD; k > 0 {
				cp.emit(opUnwind, k, 0)
			}
			cp.loop.contPatches = append(cp.loop.contPatches, cp.emit(opJump, -1, 0))
		} else {
			cp.emit(opSignal, 2, 0)
		}

	case *ThrowStmt:
		cp.emit(opStmt, line, 0)
		cp.expr(st.X)
		cp.emit(opThrow, 0, 0)
		cp.pop(1)

	case *TryStmt:
		cp.emit(opStmt, line, 0)
		aux := tryAux{
			body:      [2]int32{-1, -1},
			catch:     [2]int32{-1, -1},
			finally:   [2]int32{-1, -1},
			catchAtom: -1,
			breakPC:   -1,
			contPC:    -1,
		}
		if st.Catch != nil {
			if st.CatchName != "" {
				aux.catchAtom = cp.atom(st.CatchName)
			}
			aux.catchSize = 1 + directDeclCount([]Node{st.Catch})
			aux.catchPool = !hasFuncNode(st.Catch)
		}
		auxIdx := int32(len(cp.c.tries))
		cp.c.tries = append(cp.c.tries, aux)
		cp.emit(opTry, 0, auxIdx)
		jOver := cp.emit(opJump, -1, 0)
		if cp.loop != nil {
			// trampolines: break/continue signals escaping the try resume
			// here, unwind to the loop's depth, then jump like a local
			// break/continue would.
			aux.breakPC = cp.here()
			if k := cp.scopeD - cp.loop.targetD; k > 0 {
				cp.emit(opUnwind, k, 0)
			}
			cp.loop.breakPatches = append(cp.loop.breakPatches, cp.emit(opJump, -1, 0))
			aux.contPC = cp.here()
			if k := cp.scopeD - cp.loop.targetD; k > 0 {
				cp.emit(opUnwind, k, 0)
			}
			cp.loop.contPatches = append(cp.loop.contPatches, cp.emit(opJump, -1, 0))
		}
		savedLoop := cp.loop
		cp.loop = nil
		lo := cp.here()
		cp.stmt(st.Body, false)
		aux.body = [2]int32{lo, cp.here()}
		if st.Catch != nil {
			lo = cp.here()
			cp.stmt(st.Catch, false)
			aux.catch = [2]int32{lo, cp.here()}
		}
		if st.Finally != nil {
			lo = cp.here()
			cp.stmt(st.Finally, false)
			aux.finally = [2]int32{lo, cp.here()}
		}
		cp.loop = savedLoop
		cp.c.tries[auxIdx] = aux
		cp.patch(jOver, cp.here())
		if wantLast {
			cp.emit(opClearLast, 0, 0)
		}

	case *SwitchStmt:
		cp.emit(opStmt, line, 0)
		cp.expr(st.Tag)
		elide := true
		for _, c := range st.Cases {
			for _, s := range c.Body {
				if declaresInto(s) {
					elide = false
				}
			}
		}
		for _, s := range st.Default {
			if declaresInto(s) {
				elide = false
			}
		}
		pool := true
		for _, c := range st.Cases {
			if hasFuncNode(c.Test) || anyHasFunc(c.Body) {
				pool = false
			}
		}
		if anyHasFunc(st.Default) {
			pool = false
		}
		aux := switchAux{
			def:    [2]int32{-1, -1},
			hasDef: st.HasDef,
			defPos: int32(st.DefPos),
			elide:  elide,
			pool:   pool,
			contPC: -1,
		}
		auxIdx := int32(len(cp.c.switches))
		cp.c.switches = append(cp.c.switches, aux)
		cp.emit(opSwitch, 0, auxIdx)
		cp.pop(1)
		jOver := cp.emit(opJump, -1, 0)
		if cp.loop != nil {
			aux.contPC = cp.here()
			if k := cp.scopeD - cp.loop.targetD; k > 0 {
				cp.emit(opUnwind, k, 0)
			}
			cp.loop.contPatches = append(cp.loop.contPatches, cp.emit(opJump, -1, 0))
		}
		savedLoop := cp.loop
		cp.loop = nil
		for _, c := range st.Cases {
			lo := cp.here()
			cp.expr(c.Test)
			cp.pop(1) // the handler reads the test value off the stack
			aux.tests = append(aux.tests, [2]int32{lo, cp.here()})
			lo = cp.here()
			for _, s := range c.Body {
				cp.stmt(s, false)
			}
			aux.bodies = append(aux.bodies, [2]int32{lo, cp.here()})
		}
		if st.HasDef {
			lo := cp.here()
			for _, s := range st.Default {
				cp.stmt(s, false)
			}
			aux.def = [2]int32{lo, cp.here()}
		}
		cp.loop = savedLoop
		cp.c.switches[auxIdx] = aux
		cp.patch(jOver, cp.here())
		if wantLast {
			cp.emit(opClearLast, 0, 0)
		}

	default:
		unsupported(n)
	}
}

// resolveLoop patches a loop's pending break/continue jumps.
func (cp *compiler) resolveLoop(l *loopCtx, exit, cont int32) {
	for _, p := range l.breakPatches {
		cp.patch(p, exit)
	}
	for _, p := range l.contPatches {
		cp.patch(p, cont)
	}
}

// ---- expression compilation ----

// expr compiles one expression, leaving exactly one value on the stack.
func (cp *compiler) expr(n Node) {
	switch x := n.(type) {
	case *Literal:
		cp.emit(opConstStep, cp.konst(x.Val), 0)
		cp.push(1)

	case *Ident:
		cp.emit(opLoadName, cp.atom(x.Name), cp.icSite())
		cp.push(1)

	case *ThisExpr:
		cp.emit(opThis, 0, 0)
		cp.push(1)

	case *ArrayLit:
		cp.emit(opStep, 0, 0)
		for _, e := range x.Elems {
			cp.expr(e)
		}
		n := int32(len(x.Elems))
		cp.emit(opArray, n, 0)
		cp.pop(n)
		cp.push(1)

	case *ObjectLit:
		cp.emit(opStep, 0, 0)
		for _, v := range x.Vals {
			cp.expr(v)
		}
		shapeIdx := int32(len(cp.c.shapes))
		cp.c.shapes = append(cp.c.shapes, x.Keys)
		n := int32(len(x.Vals))
		cp.emit(opObject, shapeIdx, n)
		cp.pop(n)
		cp.push(1)

	case *FuncLit:
		cp.emit(opStep, 0, 0)
		cp.emit(opClosure, cp.fnIndex(x), 0)
		cp.push(1)

	case *UnaryExpr:
		cp.unary(x)

	case *PostfixExpr:
		cp.emit(opStep, 0, 0)
		cp.expr(x.X)
		delta := int32(1)
		if x.Op == "--" {
			delta = -1
		}
		cp.emit(opPostIncDec, delta, 0)
		cp.push(1) // [old-as-number, new]
		cp.store(x.X)
		cp.emit(opPop, 0, 0) // drop the stored value; old number is the result
		cp.pop(1)

	case *BinaryExpr:
		cp.emit(opStep, 0, 0)
		cp.expr(x.L)
		cp.expr(x.R)
		code, ok := binOpCodes[x.Op]
		if !ok {
			unsupported(n)
		}
		cp.emit(opBinary, code, 0)
		cp.pop(1)

	case *LogicalExpr:
		cp.emit(opStep, 0, 0)
		cp.expr(x.L)
		var jop Op
		switch x.Op {
		case "&&":
			jop = opAndJump
		case "||":
			jop = opOrJump
		case "??":
			jop = opNullishJump
		default:
			unsupported(n)
		}
		j := cp.emit(jop, -1, 0)
		cp.pop(1)
		cp.expr(x.R)
		cp.patch(j, cp.here())

	case *CondExpr:
		cp.emit(opStep, 0, 0)
		cp.expr(x.Cond)
		jf := cp.emit(opJumpIfFalse, -1, 0)
		cp.pop(1)
		d0 := cp.depth
		cp.expr(x.Then)
		j2 := cp.emit(opJump, -1, 0)
		cp.depth = d0
		cp.patch(jf, cp.here())
		cp.expr(x.Else)
		cp.patch(j2, cp.here())

	case *AssignExpr:
		cp.emit(opStep, 0, 0)
		if x.Op == "=" {
			cp.expr(x.Val)
		} else {
			cp.expr(x.Target) // compound assign re-reads the target with steps
			cp.expr(x.Val)
			code, ok := binOpCodes[x.Op[:len(x.Op)-1]]
			if !ok {
				unsupported(n)
			}
			cp.emit(opBinary, code, 0)
			cp.pop(1)
		}
		cp.store(x.Target)

	case *MemberExpr:
		cp.emit(opStep, 0, 0)
		cp.expr(x.Obj)
		if x.Computed {
			cp.expr(x.Index)
			cp.emit(opGetMemberC, 0, 0)
			cp.pop(1)
		} else {
			cp.emit(opGetMember, cp.atom(x.Name), cp.icSite())
		}

	case *CallExpr:
		cp.emit(opStep, 0, 0)
		if m, ok := x.Fn.(*MemberExpr); ok {
			cp.expr(m.Obj)
			if m.Computed {
				cp.expr(m.Index)
				cp.emit(opMethodC, 0, 0)
				cp.pop(1) // [this, fn]
				cp.push(1)
			} else {
				cp.emit(opMethod, cp.atom(m.Name), cp.icSite())
				cp.push(1)
			}
			for _, a := range x.Args {
				cp.expr(a)
			}
			n := int32(len(x.Args))
			cp.emit(opCall, n, 1)
			cp.pop(n + 2)
			cp.push(1)
		} else {
			cp.expr(x.Fn)
			nameAtom := int32(-1)
			if id, ok := x.Fn.(*Ident); ok {
				nameAtom = cp.atom(id.Name)
			}
			cp.emit(opCheckFn, nameAtom, 0)
			for _, a := range x.Args {
				cp.expr(a)
			}
			n := int32(len(x.Args))
			cp.emit(opCall, n, 0)
			cp.pop(n + 1)
			cp.push(1)
		}

	case *NewExpr:
		cp.emit(opStep, 0, 0)
		cp.expr(x.Ctor)
		cp.emit(opCheckCtor, 0, 0)
		for _, a := range x.Args {
			cp.expr(a)
		}
		n := int32(len(x.Args))
		cp.emit(opNew, n, 0)
		cp.pop(n + 1)
		cp.push(1)

	default:
		unsupported(n)
	}
}

// unary op codes for opUnary.
const (
	unNot = iota
	unNeg
	unPlus
	unBitNot
)

func (cp *compiler) unary(x *UnaryExpr) {
	switch x.Op {
	case "typeof":
		if id, ok := x.X.(*Ident); ok {
			// fused: one step for the unary node, lookup errors swallowed
			cp.emit(opTypeofName, cp.atom(id.Name), 0)
			cp.push(1)
			return
		}
		cp.emit(opStep, 0, 0)
		cp.expr(x.X)
		cp.emit(opTypeofVal, 0, 0)

	case "delete":
		cp.emit(opStep, 0, 0)
		m, ok := x.X.(*MemberExpr)
		if !ok {
			// `delete x` yields true without evaluating x (frozen quirk)
			cp.emit(opConst, cp.konst(Boolean(true)), 0)
			cp.push(1)
			return
		}
		cp.expr(m.Obj)
		if m.Computed {
			cp.expr(m.Index)
			cp.emit(opDeleteMemberC, 0, 0)
			cp.pop(1)
		} else {
			cp.emit(opDeleteMember, cp.atom(m.Name), 0)
		}

	case "++", "--":
		cp.emit(opStep, 0, 0)
		cp.expr(x.X)
		delta := int32(1)
		if x.Op == "--" {
			delta = -1
		}
		cp.emit(opPreIncDec, delta, 0)
		cp.store(x.X)

	case "!":
		cp.emit(opStep, 0, 0)
		cp.expr(x.X)
		cp.emit(opUnary, unNot, 0)
	case "-":
		cp.emit(opStep, 0, 0)
		cp.expr(x.X)
		cp.emit(opUnary, unNeg, 0)
	case "+":
		cp.emit(opStep, 0, 0)
		cp.expr(x.X)
		cp.emit(opUnary, unPlus, 0)
	case "~":
		cp.emit(opStep, 0, 0)
		cp.expr(x.X)
		cp.emit(opUnary, unBitNot, 0)
	default:
		unsupported(x)
	}
}

// store emits the assignTo logic for the value at the top of the stack,
// leaving that value in place as the expression result.
func (cp *compiler) store(target Node) {
	switch t := target.(type) {
	case *Ident:
		cp.emit(opStoreName, cp.atom(t.Name), 0)
	case *MemberExpr:
		cp.expr(t.Obj)
		if t.Computed {
			cp.expr(t.Index)
			cp.emit(opSetMemberC, 0, 0)
			cp.pop(2)
		} else {
			cp.emit(opSetMember, cp.atom(t.Name), 0)
			cp.pop(1)
		}
	default:
		cp.emit(opInvalidAssign, 0, 0)
	}
}

// ---- static analyses ----

// declaresInto reports whether executing n can declare a binding into the
// scope n runs in: VarDecls directly, or transitively through constructs
// that execute children in the same scope (unscoped blocks, if branches,
// loop bodies that share the scope, try bodies and finally blocks). FuncDecl
// is false — hoisting handles it separately, and switch bodies never hoist.
func declaresInto(n Node) bool {
	switch x := n.(type) {
	case nil:
		return false
	case *VarDecl:
		return true
	case *BlockStmt:
		if x.NeedsScope {
			return false // declares land in the block's own scope
		}
		for _, s := range x.Body {
			if declaresInto(s) {
				return true
			}
		}
		return false
	case *IfStmt:
		return declaresInto(x.Then) || declaresInto(x.Else)
	case *WhileStmt:
		return declaresInto(x.Body)
	case *DoWhileStmt:
		return declaresInto(x.Body)
	case *TryStmt:
		if declaresInto(x.Body) {
			return true
		}
		return x.Finally != nil && declaresInto(x.Finally)
	}
	// ForStmt/ForInStmt/SwitchStmt declare into their own inner scopes;
	// expressions and the rest declare nothing.
	return false
}

// directDeclCount estimates how many bindings a statement list declares into
// its scope — a capacity hint for pooled scopes, not a bound.
func directDeclCount(body []Node) int32 {
	var n int32
	for _, s := range body {
		switch x := s.(type) {
		case *VarDecl:
			n += int32(len(x.Names))
		case *FuncDecl:
			n++
		}
	}
	if n == 0 {
		n = 2
	}
	return n
}

// hasFuncNode reports whether the subtree contains any function literal or
// declaration. Scopes governing such subtrees may be captured by a closure
// and must not be pooled. The check counts the FuncLit node itself and does
// not need to descend into its body (walk.Children would, so recursion stops
// at the match).
func hasFuncNode(n Node) bool {
	if n == nil {
		return false
	}
	switch n.(type) {
	case *FuncLit, *FuncDecl:
		return true
	}
	for _, c := range Children(n) {
		if hasFuncNode(c) {
			return true
		}
	}
	return false
}

func anyHasFunc(body []Node) bool {
	for _, s := range body {
		if hasFuncNode(s) {
			return true
		}
	}
	return false
}

// unsupported reports an AST shape the compiler does not know. The parser
// never builds one, so reaching this is an internal error.
func unsupported(n Node) {
	panic(fmt.Sprintf("minjs: compile: unsupported node %T", n))
}

func boolToI32(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
