package analysis

import (
	"go/ast"
	"go/token"
)

// bigmutSources maps (receiver type, method) to the result indices that
// alias frozen index state. This is the machine-readable form of the
// countdag/lengthrange sharing contract: Build freezes the tables, the
// accessors below return pointers INTO them ("shared; do not mutate"), and
// methods not listed here (Rank, Unrank, TotalRange, FirstRankOf,
// SubtreeSpan's first result, …) return values the caller owns.
var bigmutSources = map[string]map[string][]int{
	"Index": { // internal/countdag
		"Total":       {0},
		"Count":       {0},
		"EdgeCum":     {0},
		"SubtreeSpan": {1}, // (first, count, err): first is owned, count shared
	},
	"RangeIndex": { // internal/lengthrange
		"TotalAt": {0},
	},
}

// bigmutMutators is the set of big.Int/big.Float methods that write to
// their receiver.
var bigmutMutators = map[string]bool{
	"Abs": true, "Add": true, "And": true, "AndNot": true, "Binomial": true,
	"Div": true, "DivMod": true, "Exp": true, "GCD": true, "Lsh": true,
	"Mod": true, "ModInverse": true, "ModSqrt": true, "Mul": true,
	"MulRange": true, "Neg": true, "Not": true, "Or": true, "Quo": true,
	"QuoRem": true, "Rand": true, "Rem": true, "Rsh": true, "Scan": true,
	"Set": true, "SetBit": true, "SetBits": true, "SetBytes": true,
	"SetInt64": true, "SetString": true, "SetUint64": true, "Sqrt": true,
	"Sub": true, "Xor": true, "UnmarshalJSON": true, "UnmarshalText": true,
	"GobDecode": true,
	// big.Float-only mutators.
	"Copy": true, "SetFloat64": true, "SetInf": true, "SetInt": true,
	"SetMantExp": true, "SetMode": true, "SetPrec": true, "SetRat": true,
}

var bigmutAnalyzer = &Analyzer{
	Name:     "bigmut",
	Doc:      "mutation of shared big.Int counts returned by countdag/lengthrange accessors",
	Contract: "countdag package comment: accessors return pointers into frozen tables; callers MUST NOT mutate — copy with new(big.Int).Set first",
	Run:      runBigmut,
}

// runBigmut flags calls to mutating big.Int/big.Float methods whose
// receiver flows (intra-procedurally) from a shared-count accessor: direct
// chains (x.Total().Add(…)), locals (t := x.Total(); t.Add(…)), tuple
// results, elements of shared slices (x.EdgeCum(…)[i].Add(…)), and range
// variables over them (for _, c := range x.EdgeCum(…)). Total still hands
// out the frozen backing value; the other accessors convert fresh values
// from the limb arena, but keep the same contract so callers need not
// know which is which.
func runBigmut(p *Pkg) []Finding {
	var out []Finding
	for _, fd := range funcDecls(p) {
		out = append(out, bigmutFunc(p, fd)...)
	}
	return out
}

// sharedResults returns the shared result indices when call is a
// shared-count accessor call.
func sharedResults(p *Pkg, call *ast.CallExpr) []int {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	methods, ok := bigmutSources[namedTypeName(p, sel.X)]
	if !ok {
		return nil
	}
	return methods[sel.Sel.Name]
}

// namedTypeName is recvNamed reduced to the type's bare name ("" when the
// expression has no named type).
func namedTypeName(p *Pkg, e ast.Expr) string {
	n := recvNamed(p.Info, e)
	if n == nil {
		return ""
	}
	return n.Obj().Name()
}

// bigmutFunc runs the taint pass over one function body.
func bigmutFunc(p *Pkg, fd *ast.FuncDecl) []Finding {
	// tainted holds the objects (locals) known to alias shared counts.
	tainted := map[token.Pos]bool{} // keyed by declaration position
	taintObj := func(id *ast.Ident) bool {
		o := objOf(p.Info, id)
		if o == nil || id.Name == "_" {
			return false
		}
		if tainted[o.Pos()] {
			return false
		}
		tainted[o.Pos()] = true
		return true
	}
	// exprShared reports whether evaluating e yields a shared count (in a
	// single-value context).
	var exprShared func(e ast.Expr) bool
	exprShared = func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			o := objOf(p.Info, x)
			return o != nil && tainted[o.Pos()]
		case *ast.CallExpr:
			for _, i := range sharedResults(p, x) {
				if i == 0 {
					return true
				}
			}
			return false
		case *ast.IndexExpr:
			// An element of a shared slice (EdgeCum result) is shared.
			return exprShared(x.X)
		case *ast.SliceExpr:
			return exprShared(x.X)
		case *ast.UnaryExpr:
			return exprShared(x.X)
		}
		return false
	}

	// Propagate taint through assignments to a fixpoint (loops can carry
	// taint backwards; function bodies are small, so iterate).
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				// Ranging over a shared slice taints the element variable.
				if rs.Value != nil && exprShared(rs.X) {
					if id, ok := rs.Value.(*ast.Ident); ok && taintObj(id) {
						changed = true
					}
				}
				return true
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
				// Tuple assignment from one (accessor) call.
				if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
					for _, i := range sharedResults(p, call) {
						if i < len(as.Lhs) {
							if id, ok := as.Lhs[i].(*ast.Ident); ok && taintObj(id) {
								changed = true
							}
						}
					}
				}
				return true
			}
			for i, rhs := range as.Rhs {
				if i >= len(as.Lhs) {
					break
				}
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if exprShared(rhs) {
					if taintObj(id) {
						changed = true
					}
				}
			}
			return true
		})
	}

	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !bigmutMutators[sel.Sel.Name] {
			return true
		}
		tv, ok := p.Info.Types[sel.X]
		if !ok || tv.Type == nil || !isBigIntOrFloat(tv.Type) {
			return true
		}
		if exprShared(sel.X) {
			out = append(out, p.finding("bigmut", call.Pos(),
				"%s mutates a shared count (flows from a countdag/lengthrange accessor); copy with new(big.Int).Set first", sel.Sel.Name))
		}
		return true
	})
	return out
}
