package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

var ctxfirstAnalyzer = &Analyzer{
	Name:     "ctxfirst",
	Doc:      "exported engine entry point takes a Context but builds or allocates layer-sized state before consulting it",
	Contract: "cancellation discipline: an entry point that accepts a Context must check (or thread) it before the first layer-sized allocation or Build — otherwise a cancelled caller still pays for the whole precomputation",
	Packages: []string{"lengthrange", "enumerate", "sample", "fpras", "core", "par", "unroll"},
	Run:      runCtxfirst,
}

// ctxfirstBuilders are the call names that stand for "layer-sized
// precomputation" — the same set fpfirst guards, for the same reason: the
// cost scales with the witness length, so it must not run before the
// caller's cancellation signal has been consulted.
var ctxfirstBuilders = map[string]bool{
	"Build":  true, // unroll.Build, lengthrange.Build
	"NewUFA": true,
	"NewNFA": true,
}

// runCtxfirst checks, per exported function with a context.Context
// parameter, that the context is used (checked via ctx.Err(), passed to
// faultinject.Check, or threaded into a ctx-aware callee) before every
// builder call and every layer-sized allocation. A builder call that
// itself receives the context is compliant — threading IS the check.
func runCtxfirst(p *Pkg) []Finding {
	var out []Finding
	for _, fd := range funcDecls(p) {
		if !fd.Name.IsExported() {
			continue
		}
		ctxParams := contextParams(p, fd)
		if len(ctxParams) == 0 {
			continue
		}
		firstUse := firstCtxUsePos(p, fd, ctxParams)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callMentionsObjs(p, call, ctxParams) {
				// The call threads the context — whatever it builds is
				// cancellable from inside.
				return true
			}
			if firstUse != token.NoPos && call.Pos() >= firstUse {
				return true
			}
			if name := calleeName(call); ctxfirstBuilders[name] {
				out = append(out, p.finding("ctxfirst", call.Pos(),
					"%s runs before %s consults its Context — check (or thread) ctx before layer-sized precomputation", name, fd.Name.Name))
				return true
			}
			if isUnboundedMake(p, call) {
				out = append(out, p.finding("ctxfirst", call.Pos(),
					"layer-sized allocation before %s consults its Context — check ctx first so a cancelled caller pays nothing", fd.Name.Name))
			}
			return true
		})
	}
	return out
}

// contextParams returns the objects of the function's parameters typed
// context.Context.
func contextParams(p *Pkg, fd *ast.FuncDecl) []types.Object {
	var objs []types.Object
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := p.Info.Defs[name]
			if obj == nil {
				continue
			}
			if isContextType(obj.Type()) {
				objs = append(objs, obj)
			}
		}
	}
	return objs
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// firstCtxUsePos returns the position of the first identifier resolving
// to one of the context parameters, or NoPos when the function never
// touches its context.
func firstCtxUsePos(p *Pkg, fd *ast.FuncDecl, objs []types.Object) token.Pos {
	best := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		use := p.Info.Uses[id]
		if use == nil {
			return true
		}
		for _, o := range objs {
			if use == o {
				if best == token.NoPos || id.Pos() < best {
					best = id.Pos()
				}
				return false
			}
		}
		return true
	})
	return best
}

// callMentionsObjs reports whether any argument (or the receiver chain)
// of the call references one of the objects.
func callMentionsObjs(p *Pkg, call *ast.CallExpr, objs []types.Object) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		use := p.Info.Uses[id]
		for _, o := range objs {
			if use == o {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
