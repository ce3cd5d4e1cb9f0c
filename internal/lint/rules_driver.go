package lint

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// driverOnly are the functions only the crawl driver calls, by import path:
// a bundle recorder or a flight recorder set up anywhere else is a second
// way to run a crawl.
var driverOnly = map[string]map[string]bool{
	"gullible/internal/bundle":    {"NewRecorder": true, "Finalize": true},
	"gullible/internal/telemetry": {"NewFlight": true},
}

// driverPkgs are the directories allowed to call them: the driver
// (internal/sched) and the packages that define them.
var driverPkgs = []string{"internal/sched", "internal/bundle", "internal/telemetry"}

// checkOneDriver flags uses of driverOnly functions outside driverPkgs:
// sched.Run is the one driver of every crawl.
func checkOneDriver(p *Pass) {
	for _, f := range p.Files {
		dir, err := filepath.Abs(filepath.Dir(p.Fset.Position(f.Pos()).Filename))
		if err == nil && inDriverPkg(filepath.ToSlash(dir)) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg := p.SelPkg(f, sel)
			if driverOnly[pkg][sel.Sel.Name] {
				p.Report("onedriver", sel.Pos(),
					pkg[strings.LastIndex(pkg, "/")+1:]+"."+sel.Sel.Name+" belongs to the crawl driver; run the crawl through sched.Run instead")
			}
			return true
		})
	}
}

// inDriverPkg reports whether the absolute, slash-separated dir is one of
// driverPkgs.
func inDriverPkg(dir string) bool {
	for _, d := range driverPkgs {
		if strings.HasSuffix(dir, "/"+d) {
			return true
		}
	}
	return false
}
