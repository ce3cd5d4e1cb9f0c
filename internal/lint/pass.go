package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"gullible/internal/lint/cfg"
)

// Rule is one named check. Rules consume the Pass — type info, per-file
// import tables, cached CFGs and the package fact store — instead of walking
// raw AST alone.
type Rule struct {
	// Name is the rule id used in findings, suppressions and SARIF.
	Name string
	// Doc is the one-line description rendered into SARIF rule metadata.
	Doc string
	// Check runs the rule over one package.
	Check func(*Pass)
}

// Rules is the registry in reporting order. Every lint run applies all of
// them; the SARIF rule table and the rule docs derive from it.
var Rules = []*Rule{
	{Name: "wallclock", Doc: "no wall-clock reads in crawl-path packages (virtual time only)", Check: checkWallclock},
	{Name: "randseed", Doc: "math/rand only through seeded constructors", Check: checkRandseed},
	{Name: "maprange", Doc: "no serialising map iteration inside canonical encoders", Check: checkMaprange},
	{Name: "closecheck", Doc: "Close/Sync/Flush errors must be checked, not dropped", Check: checkClose},
	{Name: "servertimeouts", Doc: "http.Server must bound read, write and idle sides", Check: checkServerTimeouts},
	{Name: "spanpair", Doc: "every Begin-opened span must reach End on all paths", Check: checkSpanPair},
	{Name: "goroutineleak", Doc: "goroutines must have an exit path (done channel, context, return)", Check: checkGoroutineLeak},
	{Name: "ctxpropagate", Doc: "no context-free blocking calls where a context.Context is in scope", Check: checkCtxPropagate},
	{Name: "lockedmutate", Doc: "struct fields must not be written both under and outside the struct's mutex", Check: checkLockedMutate},
	{Name: "errswallow", Doc: "error results must be checked or visibly discarded with a justifying comment", Check: checkErrSwallow},
	{Name: "chanbuffer", Doc: "no blocking channel send inside a loop without a draining select", Check: checkChanBuffer},
	{Name: "onedriver", Doc: "bundle and flight recorders only inside the crawl driver (sched.Run)", Check: checkOneDriver},
}

// RuleDoc returns the one-line doc for a rule name ("" when unknown).
func RuleDoc(name string) string {
	for _, r := range Rules {
		if r.Name == name {
			return r.Doc
		}
	}
	if name == suppressionRule {
		return "inline lint:ignore suppressions must carry a written justification"
	}
	return ""
}

// Pass is one package's analysis context, shared by every rule.
type Pass struct {
	Fset  *token.FileSet
	Pkg   string
	Files []*ast.File
	Info  *types.Info
	// Facts is the package-level fact store: function facts (for cross-
	// function reasoning like `go pkgFunc()`) and mutex-guarded struct facts.
	Facts *Facts

	imports  map[*ast.File]map[string]string // file → alias → import path
	cfgs     map[*ast.BlockStmt]*cfg.Graph
	reaches  map[*ast.BlockStmt]*cfg.Reach
	findings []Finding
}

func newPass(fset *token.FileSet, pkg string, files []*ast.File, info *types.Info) *Pass {
	p := &Pass{
		Fset: fset, Pkg: pkg, Files: files, Info: info,
		imports: map[*ast.File]map[string]string{},
		cfgs:    map[*ast.BlockStmt]*cfg.Graph{},
		reaches: map[*ast.BlockStmt]*cfg.Reach{},
	}
	for _, f := range files {
		m := map[string]string{}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			alias := path
			if i := strings.LastIndex(path, "/"); i >= 0 {
				alias = path[i+1:]
			}
			if imp.Name != nil {
				alias = imp.Name.Name
			}
			m[alias] = path
		}
		p.imports[f] = m
	}
	p.Facts = collectFacts(p)
	return p
}

// Report records a finding.
func (p *Pass) Report(rule string, pos token.Pos, msg string) {
	p.findings = append(p.findings, Finding{Rule: rule, Pos: p.Fset.Position(pos), Msg: msg})
}

// SelPkg reports the import path behind x in x.Sel within file f, "" when x
// is not a package identifier.
func (p *Pass) SelPkg(f *ast.File, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	return p.imports[f][id.Name]
}

// CFG returns the (cached) control-flow graph for a function or closure body.
func (p *Pass) CFG(body *ast.BlockStmt) *cfg.Graph {
	if g, ok := p.cfgs[body]; ok {
		return g
	}
	g := cfg.New(body)
	p.cfgs[body] = g
	return g
}

// Reach returns the (cached) reaching-definitions solution for a body.
func (p *Pass) Reach(body *ast.BlockStmt) *cfg.Reach {
	if r, ok := p.reaches[body]; ok {
		return r
	}
	r := p.CFG(body).ReachingDefs(p.Info)
	p.reaches[body] = r
	return r
}

// EachFuncDecl calls fn for every function declaration with a body, paired
// with its enclosing file.
func (p *Pass) EachFuncDecl(fn func(f *ast.File, d *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(f, fd)
			}
		}
	}
}

// TypeOf resolves an expression's type; nil when the lenient checker could
// not type it (rules skip what they cannot resolve rather than guess).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
