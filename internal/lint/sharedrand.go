package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// SharedRand flags *xrand.Rand values that cross a concurrency
// boundary: captured by a goroutine's function literal, passed as a
// goroutine argument, or handed to a parallel fan-out helper (any
// callee whose name contains "parallel", e.g. the engine's
// resolver.parallel). A stream consumed from more than one worker
// makes draw order a function of the scheduler — results then vary
// with GOMAXPROCS and worker count even when each draw is individually
// race-free. The blessed idiom derives a fresh stream inside the
// worker from a seed plus a stable index (xrand.Derive(seed, lane,
// uint64(i))).
var SharedRand = &Analyzer{
	Name: "sharedrand",
	Doc: "flag *xrand.Rand captured by goroutine closures or passed across go/parallel " +
		"boundaries; derive per-worker streams from seeds instead",
	Run: runSharedRand,
}

func runSharedRand(pass *Pass) error {
	if !inModule(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.TestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkRandCaptures(pass, fl, "a goroutine")
				}
				for _, arg := range n.Call.Args {
					if isRandExpr(pass, arg) {
						pass.Reportf(arg.Pos(), "*xrand.Rand %s passed to a goroutine: the stream's draw order becomes scheduler-dependent; derive a per-worker stream inside it", types.ExprString(arg))
					}
				}
			case *ast.CallExpr:
				name := calleeName(n)
				if name == "" || !strings.Contains(strings.ToLower(name), "parallel") {
					return true
				}
				for _, arg := range n.Args {
					if fl, ok := arg.(*ast.FuncLit); ok {
						checkRandCaptures(pass, fl, fmt.Sprintf("%s's worker closure", name))
						continue
					}
					if isRandExpr(pass, arg) {
						pass.Reportf(arg.Pos(), "*xrand.Rand %s passed into %s: workers would share one stream; derive per-worker streams from a seed instead", types.ExprString(arg), name)
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkRandCaptures reports *xrand.Rand variables that the function
// literal uses but does not declare — captured state shared with the
// spawning goroutine. Each captured variable is reported once.
func checkRandCaptures(pass *Pass, fl *ast.FuncLit, ctx string) {
	seen := map[*types.Var]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] || !isRandType(v.Type()) {
			return true
		}
		// Declared inside the literal (parameter or local): not a capture.
		if v.Pos() >= fl.Pos() && v.Pos() < fl.End() {
			return true
		}
		seen[v] = true
		pass.Reportf(id.Pos(), "*xrand.Rand %q captured by %s: a stream shared across workers breaks worker-count invariance; derive a stream inside from a seed and index", id.Name, ctx)
		return true
	})
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.Ident:
		return f.Name
	}
	return ""
}

func isRandExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && isRandType(tv.Type)
}

// isRandType reports whether t is xrand.Rand or a pointer to it.
func isRandType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == xrandPath && obj.Name() == "Rand"
}
