package lint

import (
	"fmt"
	"go/ast"
	"go/token"

	"gullible/internal/lint/cfg"
)

// checkSpanPair applies the spanpair rule: a flight-recorder span opened with
// .Begin(...) must reach an .End(...) call on every control-flow path to the
// function's exit. A discarded Begin result is flagged immediately; a span id
// held in a local must feed an End, and the CFG decides whether some path to
// Exit skips it. A deferred End covers every path. The false edge of an `if
// span != 0` guard (or the true edge of `== 0`) counts as closed — on that
// edge there is provably no span to End. Span ids that escape the function
// (returned, stored, passed on) are out of scope: the receiver owns the End.
func checkSpanPair(p *Pass) {
	if p.Pkg == "telemetry" {
		return
	}
	p.EachFuncDecl(func(f *ast.File, fd *ast.FuncDecl) {
		p.spanPairsInBody(f, fd.Body)
	})
}

// isBeginCall reports whether e is a method call named Begin — the span-open
// shape. Package-level pkg.Begin(...) functions are not span openers.
func (p *Pass) isBeginCall(f *ast.File, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Begin" && p.SelPkg(f, sel) == ""
}

// containsEndOf reports whether n contains an .End(...) call that receives
// the identifier v among its arguments.
func containsEndOf(n ast.Node, v string) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
			for _, a := range call.Args {
				if cfg.ContainsIdent(a, v) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// spanPairsInBody analyses one function (or closure) body. Closures are their
// own span scope and recurse.
func (p *Pass) spanPairsInBody(f *ast.File, body *ast.BlockStmt) {
	type spanVar struct {
		name string
		pos  token.Pos
		stmt ast.Stmt
	}
	var spans []spanVar
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			p.spanPairsInBody(f, x.Body)
			return false
		case *ast.ExprStmt:
			if p.isBeginCall(f, x.X) {
				p.Report("spanpair", x.Pos(),
					"Begin result discarded; the span id is the only handle to End it — this span stays open forever")
			}
		case *ast.AssignStmt:
			if len(x.Lhs) != 1 || len(x.Rhs) != 1 || !p.isBeginCall(f, x.Rhs[0]) {
				return true
			}
			id, ok := x.Lhs[0].(*ast.Ident)
			if !ok {
				return true // a field keeps the id alive across functions
			}
			if id.Name == "_" {
				p.Report("spanpair", x.Pos(),
					"Begin result discarded; the span id is the only handle to End it — this span stays open forever")
				return true
			}
			spans = append(spans, spanVar{name: id.Name, pos: x.Pos(), stmt: x})
		}
		return true
	})
	// passing the id to Begin (as a child's parent) or End is the span
	// protocol itself, not an escape
	isSpanCall := func(c *ast.CallExpr) bool {
		sel, ok := c.Fun.(*ast.SelectorExpr)
		return ok && (sel.Sel.Name == "Begin" || sel.Sel.Name == "End") && p.SelPkg(f, sel) == ""
	}
	for _, sp := range spans {
		if cfg.VarEscapes(body, sp.name, isSpanCall).Any() {
			continue
		}
		if !containsEndOf(body, sp.name) {
			p.Report("spanpair", sp.pos,
				fmt.Sprintf("span %q is begun but never passed to End; it stays open on every path", sp.name))
			continue
		}
		p.spanPathCheck(body, sp.name, sp.stmt)
	}
}

// spanPathCheck walks the CFG from the Begin statement and reports every path
// family that reaches the function exit without passing an End(v). A deferred
// End covers all paths; the guard-idiom edges (`span != 0` false, `span == 0`
// true) are closed by construction.
func (p *Pass) spanPathCheck(body *ast.BlockStmt, v string, begin ast.Stmt) {
	g := p.CFG(body)
	for _, d := range g.Defers {
		if containsEndOf(d.Call, v) {
			return // defer End covers every exit path
		}
	}
	start := blockOf(g, begin)
	if start == nil {
		return // statement not placed (nested oddity): stay optimistic
	}
	q := cfg.PathQuery{
		Hit: func(s ast.Stmt) bool { return containsEndOf(s, v) },
		EdgeCovers: func(from *cfg.Block, e cfg.Edge) bool {
			return guardEdgeClosed(from.Cond, e, v)
		},
	}
	for _, leak := range g.Uncovered(start, begin, q) {
		if ret := lastReturn(leak); ret != nil {
			p.Report("spanpair", ret.Pos(),
				fmt.Sprintf("return before End for span %q; this path leaves the span open — End it first or `defer ...End(%s, ...)`", v, v))
		} else {
			p.Report("spanpair", begin.Pos(),
				fmt.Sprintf("span %q can fall off the function end without End; this path leaves the span open", v))
		}
	}
}

// guardEdgeClosed reports whether taking edge e off a block conditioned on
// cond proves the span v is zero — `v != 0` false edge, `v == 0` true edge.
func guardEdgeClosed(cond ast.Expr, e cfg.Edge, v string) bool {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	id, idOK := be.X.(*ast.Ident)
	lit, litOK := be.Y.(*ast.BasicLit)
	if !idOK || !litOK || id.Name != v || lit.Value != "0" {
		return false
	}
	switch be.Op {
	case token.NEQ:
		return e.Kind == cfg.False
	case token.EQL:
		return e.Kind == cfg.True
	}
	return false
}

// blockOf locates the block holding statement s.
func blockOf(g *cfg.Graph, s ast.Stmt) *cfg.Block {
	for _, b := range g.Blocks {
		for _, st := range b.Stmts {
			if st == s {
				return b
			}
		}
	}
	return nil
}

// lastReturn returns the trailing return statement of a leak block, if any.
func lastReturn(b *cfg.Block) *ast.ReturnStmt {
	for i := len(b.Stmts) - 1; i >= 0; i-- {
		if r, ok := b.Stmts[i].(*ast.ReturnStmt); ok {
			return r
		}
	}
	return nil
}
