package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

var fpfirstAnalyzer = &Analyzer{
	Name:     "fpfirst",
	Doc:      "length-sized allocation or DAG build before token validation in a parse/resume path",
	Contract: "PR 3 forged-token discipline: validate the fingerprint (or bound claimed counts by the payload size) before any length-sized precomputation",
	Run:      runFpfirst,
}

// fpfirstTarget matches the functions that ingest untrusted resume tokens:
// parsers, decoders, and resume constructors.
var fpfirstTarget = regexp.MustCompile(`(?i)^(parse|decode|resume)|^New\w*From`)

// fpfirstBuilders are the call names that stand for "length-sized
// precomputation": they construct unrolled DAGs or counting indexes whose
// cost scales with the claimed witness length.
var fpfirstBuilders = map[string]bool{
	"Build":  true, // unroll.Build, lengthrange.Build
	"NewUFA": true,
	"NewNFA": true,
}

// runFpfirst checks, per target function, that the first validation
// (a fingerprint comparison, a Validate* call, or a claimed-count ≤
// payload-bytes bound) precedes every expensive operation (builder call or
// non-constant-sized make).
func runFpfirst(p *Pkg) []Finding {
	var out []Finding
	for _, fd := range funcDecls(p) {
		if !fpfirstTarget.MatchString(fd.Name.Name) {
			continue
		}
		validAt := firstValidationPos(p, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if validAt != token.NoPos && call.Pos() >= validAt {
				return true
			}
			if name := calleeName(call); fpfirstBuilders[name] {
				out = append(out, p.finding("fpfirst", call.Pos(),
					"%s runs before token validation in %s — fingerprint/bound checks must come first (forged-token DoS)", name, fd.Name.Name))
				return true
			}
			if isUnboundedMake(p, call) {
				out = append(out, p.finding("fpfirst", call.Pos(),
					"allocation sized from unvalidated token data in %s — bound the claim against the payload (or validate the fingerprint) first", fd.Name.Name))
			}
			return true
		})
	}
	return out
}

// firstValidationPos finds the position of the first validating check in
// the function: an if condition comparing a fingerprint (an operand
// mentioning fp/fingerprint), an if condition bounding a non-constant
// claim against len(payload), or a call to a Validate*/`fingerprint`
// helper. token.NoPos means the function never validates.
func firstValidationPos(p *Pkg, fd *ast.FuncDecl) token.Pos {
	best := token.NoPos
	consider := func(pos token.Pos) {
		if best == token.NoPos || pos < best {
			best = pos
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			if condValidates(p, x.Cond) {
				consider(x.Pos())
			}
		case *ast.CallExpr:
			name := strings.ToLower(calleeName(x))
			if strings.Contains(name, "validate") || strings.Contains(name, "fingerprint") {
				consider(x.Pos())
			}
		}
		return true
	})
	return best
}

// condValidates reports whether an if condition is a validation: a
// comparison mentioning a fingerprint, or a bound of a non-constant value
// against len(...). `len(parts) != 3` is NOT a validation — both the bound
// and the claim must be non-trivial.
func condValidates(p *Pkg, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		switch be.Op {
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return true
		}
		if mentionsFingerprint(be.X) || mentionsFingerprint(be.Y) {
			found = true
			return false
		}
		// claim-vs-payload bound: one side len(...), the other non-constant.
		if isLenCall(be.X) && !isConstExpr(p, be.Y) || isLenCall(be.Y) && !isConstExpr(p, be.X) {
			found = true
			return false
		}
		return true
	})
	return found
}

// mentionsFingerprint reports whether the expression references an
// identifier or field named like a fingerprint.
func mentionsFingerprint(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch strings.ToLower(id.Name) {
		case "fp", "fingerprint":
			found = true
			return false
		}
		return !strings.Contains(strings.ToLower(id.Name), "fingerprint")
	})
	return found
}

// isLenCall matches len(x).
func isLenCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "len"
}

// isConstExpr reports whether the type checker evaluated e to a constant.
func isConstExpr(p *Pkg, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

// isUnboundedMake matches make(T, n[, c]) whose size arguments are not
// bounded by data already in hand — i.e. sized from a claim.
func isUnboundedMake(p *Pkg, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) < 2 {
		return false
	}
	for _, arg := range call.Args[1:] {
		if !payloadBounded(p, arg) {
			return true
		}
	}
	return false
}

// payloadBounded reports whether a size expression cannot exceed the data
// already held: constants, len/cap of existing values, arithmetic over
// those, and quotients whose numerator is bounded (len(bits)/width shrinks
// the bound). claim*len(payload) is NOT bounded — both factors must be.
func payloadBounded(p *Pkg, e ast.Expr) bool {
	e = ast.Unparen(e)
	if isConstExpr(p, e) || isLenCall(e) || isCapCall(e) {
		return true
	}
	if be, ok := e.(*ast.BinaryExpr); ok {
		switch be.Op {
		case token.QUO, token.SHR, token.SUB, token.REM:
			return payloadBounded(p, be.X)
		case token.ADD, token.MUL, token.SHL:
			return payloadBounded(p, be.X) && payloadBounded(p, be.Y)
		}
	}
	return false
}

// isCapCall matches cap(x).
func isCapCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "cap"
}
