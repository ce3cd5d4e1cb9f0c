package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// randAllowed are the math/rand package-level names usable from crawl code:
// the seeded-constructor surface and the types needed to hold one.
var randAllowed = map[string]bool{"New": true, "NewSource": true, "Rand": true, "Source": true}

// wallclockBanned are the time package functions that read the wall clock.
var wallclockBanned = map[string]bool{"Now": true, "Since": true, "Until": true}

// checkWallclock flags wall-clock reads: crawl paths run on virtual time.
func checkWallclock(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if p.SelPkg(f, sel) == "time" && wallclockBanned[sel.Sel.Name] {
				p.Report("wallclock", sel.Pos(),
					"time."+sel.Sel.Name+" reads the wall clock; crawl paths run on virtual time (pass timestamps in, or keep wall-clock I/O in cmd/)")
			}
			return true
		})
	}
}

// checkRandseed flags unseeded math/rand usage.
func checkRandseed(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if p.SelPkg(f, sel) == "math/rand" && !randAllowed[sel.Sel.Name] {
				p.Report("randseed", sel.Pos(),
					"rand."+sel.Sel.Name+" draws from the unseeded global source; use rand.New(rand.NewSource(seed)) (the Interp.Reseed pattern)")
			}
			return true
		})
	}
}

// canonicalFunc reports whether a function name marks a canonical encoder —
// the scope of the maprange rule.
func canonicalFunc(name string) bool {
	return name == "Digest" || name == "Snapshot" ||
		strings.HasPrefix(name, "canonical") || strings.HasPrefix(name, "Canonical") ||
		strings.HasPrefix(name, "Marshal")
}

// serializerNames are call names that emit bytes in source order; a map
// range whose body calls one is producing nondeterministic output.
var serializerNames = map[string]bool{
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// checkMaprange flags range statements over map-typed expressions inside a
// canonical encoder when the loop body serialises during iteration. Ranging
// a map to collect keys (append, assignment) stays legal — sorting happens
// after.
func checkMaprange(p *Pass) {
	p.EachFuncDecl(func(f *ast.File, fd *ast.FuncDecl) {
		if !canonicalFunc(fd.Name.Name) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if mapRangeSerialises(p, rs) {
				p.Report("maprange", rs.Pos(),
					fmt.Sprintf("%s serialises while ranging a map; iteration order is random — collect and sort keys first", fd.Name.Name))
			}
			return true
		})
	})
}

// mapRangeSerialises reports whether rs ranges a map and its body calls a
// serialiser.
func mapRangeSerialises(p *Pass, rs *ast.RangeStmt) bool {
	t := p.TypeOf(rs.X)
	if t == nil {
		return false
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return false
	}
	serialises := false
	ast.Inspect(rs.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			if serializerNames[fn.Sel.Name] {
				serialises = true
			}
		case *ast.Ident:
			if serializerNames[fn.Name] {
				serialises = true
			}
		}
		return true
	})
	return serialises
}

// checkServerTimeouts flags untimed HTTP servers: the bare ListenAndServe
// helpers and http.Server composite literals missing timeout fields.
// ReadTimeout and ReadHeaderTimeout both bound the read side, so either
// satisfies it; WriteTimeout and IdleTimeout are each their own obligation.
func checkServerTimeouts(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if p.SelPkg(f, x) == "net/http" && (x.Sel.Name == "ListenAndServe" || x.Sel.Name == "ListenAndServeTLS") {
					p.Report("servertimeouts", x.Pos(),
						"http."+x.Sel.Name+" serves with no timeouts at all; build an http.Server with Read/Write/Idle timeouts and call its Serve")
				}
			case *ast.CompositeLit:
				sel, ok := x.Type.(*ast.SelectorExpr)
				if !ok || p.SelPkg(f, sel) != "net/http" || sel.Sel.Name != "Server" {
					return true
				}
				set := map[string]bool{}
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[id.Name] = true
						}
					}
				}
				var missing []string
				if !set["ReadTimeout"] && !set["ReadHeaderTimeout"] {
					missing = append(missing, "ReadTimeout (or ReadHeaderTimeout)")
				}
				if !set["WriteTimeout"] {
					missing = append(missing, "WriteTimeout")
				}
				if !set["IdleTimeout"] {
					missing = append(missing, "IdleTimeout")
				}
				if len(missing) > 0 {
					p.Report("servertimeouts", x.Pos(),
						"http.Server without "+strings.Join(missing, ", ")+": one slow or stalled client holds its connection (and the goroutine serving it) forever")
				}
			}
			return true
		})
	}
}
