package analysis

import (
	"go/ast"
	"go/types"
)

var detrandAnalyzer = &Analyzer{
	Name:     "detrand",
	Doc:      "nondeterminism sources (time.Now, global math/rand, map-order iteration feeding output) in the engine packages",
	Contract: "every engine result is bitwise identical at any worker count; randomness flows only through per-(seed, layer, state) RNG streams",
	Packages: []string{"countdag", "lengthrange", "limb", "enumerate", "sample", "fpras", "unroll"},
	Run:      runDetrand,
}

// detrandTimeFuncs are the wall-clock reads.
var detrandTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// detrandRandOK are the math/rand package-level constructors that take an
// explicit source — deterministic, unlike the package-global generator.
var detrandRandOK = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// runDetrand flags wall-clock reads, uses of the global math/rand
// generator, and map-range loops whose iteration order reaches an
// order-sensitive sink (append to an outer slice that is never sorted
// afterwards, or a channel send).
func runDetrand(p *Pkg) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch pkgNameOf(p.Info, sel) {
			case "time":
				if detrandTimeFuncs[sel.Sel.Name] {
					out = append(out, p.finding("detrand", call.Pos(),
						"time.%s in an engine package — results must not depend on the wall clock", sel.Sel.Name))
				}
			case "math/rand", "math/rand/v2":
				if !detrandRandOK[sel.Sel.Name] {
					out = append(out, p.finding("detrand", call.Pos(),
						"global math/rand.%s in an engine package — thread a seeded *rand.Rand (par.StreamRNG) instead", sel.Sel.Name))
				}
			}
			return true
		})
	}
	for _, fd := range funcDecls(p) {
		out = append(out, detrandMapRanges(p, fd)...)
	}
	return out
}

// detrandMapRanges checks every map-range loop in one function.
func detrandMapRanges(p *Pkg, fd *ast.FuncDecl) []Finding {
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Info.Types[rs.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		// Sinks inside the loop body: channel sends are always
		// order-sensitive; appends to outer slices only if the slice is
		// never sorted later in the same function.
		sent := false
		var sinks []types.Object
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.SendStmt:
				sent = true
			case *ast.AssignStmt:
				for i, rhs := range x.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || calleeName(call) != "append" || i >= len(x.Lhs) {
						continue
					}
					id, ok := x.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					o := objOf(p.Info, id)
					// Only appends accumulating OUTSIDE the loop leak the
					// iteration order.
					if o != nil && o.Pos() < rs.Pos() {
						sinks = append(sinks, o)
					}
				}
			}
			return true
		})
		if sent {
			out = append(out, p.finding("detrand", rs.Pos(),
				"map-order iteration sends on a channel — map iteration order is random; collect and sort first"))
			return true
		}
		for _, o := range sinks {
			if !sortedAfter(p, fd, rs, o) {
				out = append(out, p.finding("detrand", rs.Pos(),
					"map-order iteration appends to %q, which is never sorted afterwards — output order would be nondeterministic", o.Name()))
			}
		}
		return true
	})
	return out
}

// sortedAfter reports whether obj is passed to a sort.*/slices.Sort* call
// (or a .Sort method) after the range loop ends, anywhere in the function.
func sortedAfter(p *Pkg, fd *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() || found {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch pkgNameOf(p.Info, sel) {
		case "sort", "slices":
		default:
			if sel.Sel.Name != "Sort" {
				return true
			}
		}
		for _, arg := range call.Args {
			if id := rootIdent(arg); id != nil && objOf(p.Info, id) == obj {
				found = true
				return false
			}
		}
		// x.Sort() method form: the receiver is the sorted value.
		if sel.Sel.Name == "Sort" {
			if id := rootIdent(sel.X); id != nil && objOf(p.Info, id) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
