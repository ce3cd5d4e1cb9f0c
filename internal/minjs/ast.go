package minjs

// Node is the interface implemented by all AST nodes.
type Node interface {
	nodeLine() int
}

type base struct{ Line int }

func (b base) nodeLine() int { return b.Line }

// ---- Statements ----

// Program is a parsed script: a list of top-level statements.
type Program struct {
	base
	Body   []Node
	Source string // full source text, used by Function.prototype.toString
	Name   string // script URL or name, used in stack traces

	// compiled is the bytecode produced by Compile; nil until compiled.
	compiled *Code
}

// VarDecl declares one or more variables ("var", "let" or "const").
type VarDecl struct {
	base
	Keyword string
	Names   []string
	Inits   []Node // nil entries mean no initialiser
}

// ExprStmt is an expression evaluated for its side effects.
type ExprStmt struct {
	base
	X Node
}

// IfStmt is if/else.
type IfStmt struct {
	base
	Cond Node
	Then Node
	Else Node // nil when absent
}

// WhileStmt is a while loop.
type WhileStmt struct {
	base
	Cond Node
	Body Node
}

// DoWhileStmt is a do { } while ( ) loop.
type DoWhileStmt struct {
	base
	Cond Node
	Body Node
}

// ForStmt is the classic three-clause for loop; any clause may be nil.
type ForStmt struct {
	base
	Init Node // VarDecl or ExprStmt or nil
	Cond Node
	Post Node
	Body Node
}

// ForInStmt is for (x in obj) or for (x of arr).
type ForInStmt struct {
	base
	Decl string // "var", "let", "const" or "" when assigning to an existing binding
	Name string
	Of   bool // true for for…of
	Obj  Node
	Body Node
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	base
	X Node // nil for bare return
}

// BreakStmt breaks the innermost loop or switch.
type BreakStmt struct{ base }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ base }

// BlockStmt is a brace-delimited statement list. NeedsScope is precomputed
// at parse time: blocks without direct declarations run in the enclosing
// scope (var semantics make this observationally equivalent, and it avoids
// an allocation per block execution).
type BlockStmt struct {
	base
	Body       []Node
	NeedsScope bool
}

// ThrowStmt throws a value.
type ThrowStmt struct {
	base
	X Node
}

// TryStmt is try/catch/finally; Catch or Finally may be nil (not both).
type TryStmt struct {
	base
	Body      *BlockStmt
	CatchName string
	Catch     *BlockStmt
	Finally   *BlockStmt
}

// FuncDecl is a named function declaration (hoisted).
type FuncDecl struct {
	base
	Fn *FuncLit
}

// SwitchStmt is switch with cases evaluated strictly (===).
type SwitchStmt struct {
	base
	Tag     Node
	Cases   []SwitchCase
	Default []Node // nil when absent; -1-style marker via HasDefault
	HasDef  bool
	DefPos  int // index in execution order where default sits
}

// SwitchCase is one case clause.
type SwitchCase struct {
	Test Node
	Body []Node
}

// ---- Expressions ----

// Ident is a variable reference.
type Ident struct {
	base
	Name string
}

// Literal is a constant: number, string, bool, null or undefined.
type Literal struct {
	base
	Val Value
}

// ArrayLit is [a, b, c].
type ArrayLit struct {
	base
	Elems []Node
}

// ObjectLit is {k: v, ...}. Keys are literal strings (identifiers, string or
// number literals); computed keys use ComputedKeys entries instead.
type ObjectLit struct {
	base
	Keys []string
	Vals []Node
}

// FuncLit is a function expression, declaration body, or arrow function.
type FuncLit struct {
	base
	Name    string // empty for anonymous
	Params  []string
	Body    []Node
	Arrow   bool   // arrow functions capture `this` lexically
	SrcText string // exact source slice, returned by toString
	Script  string // script name for stack traces
	// UsesArguments is precomputed at parse time; the arguments array is
	// only materialised for functions that reference it.
	UsesArguments bool

	// compiled is set by Compile on every function literal of a compiled
	// program; CallFunction dispatches to the bytecode VM when present.
	compiled *Code
}

// usesArguments reports whether a subtree references the `arguments`
// binding, without descending into nested non-arrow functions (which bind
// their own).
func usesArguments(n Node) bool {
	switch x := n.(type) {
	case nil:
		return false
	case *Ident:
		return x.Name == "arguments"
	case *FuncLit:
		if !x.Arrow {
			return false
		}
		for _, s := range x.Body {
			if usesArguments(s) {
				return true
			}
		}
		return false
	case *VarDecl:
		for _, init := range x.Inits {
			if usesArguments(init) {
				return true
			}
		}
	case *ExprStmt:
		return usesArguments(x.X)
	case *IfStmt:
		return usesArguments(x.Cond) || usesArguments(x.Then) || usesArguments(x.Else)
	case *WhileStmt:
		return usesArguments(x.Cond) || usesArguments(x.Body)
	case *DoWhileStmt:
		return usesArguments(x.Cond) || usesArguments(x.Body)
	case *ForStmt:
		return usesArguments(x.Init) || usesArguments(x.Cond) || usesArguments(x.Post) || usesArguments(x.Body)
	case *ForInStmt:
		return usesArguments(x.Obj) || usesArguments(x.Body)
	case *ReturnStmt:
		return usesArguments(x.X)
	case *BlockStmt:
		for _, s := range x.Body {
			if usesArguments(s) {
				return true
			}
		}
	case *ThrowStmt:
		return usesArguments(x.X)
	case *TryStmt:
		if usesArguments(x.Body) {
			return true
		}
		if x.Catch != nil && usesArguments(x.Catch) {
			return true
		}
		if x.Finally != nil && usesArguments(x.Finally) {
			return true
		}
	case *SwitchStmt:
		if usesArguments(x.Tag) {
			return true
		}
		for _, c := range x.Cases {
			if usesArguments(c.Test) {
				return true
			}
			for _, s := range c.Body {
				if usesArguments(s) {
					return true
				}
			}
		}
		for _, s := range x.Default {
			if usesArguments(s) {
				return true
			}
		}
	case *FuncDecl:
		return false
	case *UnaryExpr:
		return usesArguments(x.X)
	case *PostfixExpr:
		return usesArguments(x.X)
	case *BinaryExpr:
		return usesArguments(x.L) || usesArguments(x.R)
	case *LogicalExpr:
		return usesArguments(x.L) || usesArguments(x.R)
	case *CondExpr:
		return usesArguments(x.Cond) || usesArguments(x.Then) || usesArguments(x.Else)
	case *AssignExpr:
		return usesArguments(x.Target) || usesArguments(x.Val)
	case *MemberExpr:
		return usesArguments(x.Obj) || usesArguments(x.Index)
	case *CallExpr:
		if usesArguments(x.Fn) {
			return true
		}
		for _, a := range x.Args {
			if usesArguments(a) {
				return true
			}
		}
	case *NewExpr:
		if usesArguments(x.Ctor) {
			return true
		}
		for _, a := range x.Args {
			if usesArguments(a) {
				return true
			}
		}
	case *ArrayLit:
		for _, e := range x.Elems {
			if usesArguments(e) {
				return true
			}
		}
	case *ObjectLit:
		for _, v := range x.Vals {
			if usesArguments(v) {
				return true
			}
		}
	}
	return false
}

// UnaryExpr is a prefix operator: ! - + typeof delete ~ ++ --.
type UnaryExpr struct {
	base
	Op string
	X  Node
}

// PostfixExpr is x++ or x--.
type PostfixExpr struct {
	base
	Op string
	X  Node
}

// BinaryExpr is a binary operator, including instanceof and in.
type BinaryExpr struct {
	base
	Op   string
	L, R Node
}

// LogicalExpr is && or || with short-circuit evaluation.
type LogicalExpr struct {
	base
	Op   string
	L, R Node
}

// CondExpr is cond ? a : b.
type CondExpr struct {
	base
	Cond, Then, Else Node
}

// AssignExpr is =, +=, -=, *=, /=, %= applied to an Ident or MemberExpr.
type AssignExpr struct {
	base
	Op     string
	Target Node
	Val    Node
}

// MemberExpr is obj.name or obj[expr].
type MemberExpr struct {
	base
	Obj      Node
	Name     string // when not computed
	Computed bool
	Index    Node // when computed
}

// CallExpr is fn(args) or obj.method(args).
type CallExpr struct {
	base
	Fn   Node
	Args []Node
}

// NewExpr is new Ctor(args).
type NewExpr struct {
	base
	Ctor Node
	Args []Node
}

// ThisExpr is `this`.
type ThisExpr struct{ base }
