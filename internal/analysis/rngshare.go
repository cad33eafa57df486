package analysis

import (
	"go/ast"
	"go/types"
)

// parallelPkg is the worker-pool package whose fan-out closures the
// rule inspects.
const parallelPkg = "voiceguard/internal/parallel"

// sharedStreamTypes are the stateful stream types that must never be
// consumed from more than one worker: every draw mutates internal
// state, so sharing one across goroutines both races and destroys the
// bit-identical parallel-equals-serial property the scenario suite
// asserts.
var sharedStreamTypes = []struct{ pkg, name string }{
	{"voiceguard/internal/rng", "Source"},
	{"voiceguard/internal/ble", "Scanner"},
	{"voiceguard/internal/trafficgen", "Echo"},
	{"voiceguard/internal/trafficgen", "GHM"},
}

// splitMethods are the rng.Source derivations that are safe on a
// shared root: Split/SplitN/KeyedNormal are pure functions of the
// parent seed and their keys, consuming no parent state.
var splitMethods = map[string]bool{"Split": true, "SplitN": true, "KeyedNormal": true}

// RNGShare flags a *rng.Source, *ble.Scanner, or traffic generator
// captured from an enclosing scope and consumed inside a `go`
// statement or a parallel.Map/MapErr/Do worker closure. Deriving a
// per-worker stream from a shared root via Split/SplitN inside the
// closure is the legal pattern and is not flagged.
var RNGShare = &Analyzer{
	Name: "rngshare",
	Doc:  "seeded streams must not be shared across workers; derive per-worker streams with Split/SplitN",
	Run:  runRNGShare,
}

func runRNGShare(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					checkWorkerClosure(pass, lit, "go statement")
				}
			case *ast.CallExpr:
				fn := callee(pass.Info, n)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != parallelPkg {
					return true
				}
				switch fn.Name() {
				case "Map", "MapErr", "Do":
				default:
					return true
				}
				if len(n.Args) == 0 {
					return true
				}
				if lit, ok := ast.Unparen(n.Args[len(n.Args)-1]).(*ast.FuncLit); ok {
					checkWorkerClosure(pass, lit, "parallel."+fn.Name()+" closure")
				}
			}
			return true
		})
	}
}

// checkWorkerClosure reports captured shared-stream uses inside one
// worker closure.
func checkWorkerClosure(pass *Pass, lit *ast.FuncLit, where string) {
	// First pass: identifiers that appear only as the receiver of a
	// Split/SplitN call are legal — that is exactly how a worker
	// derives its own stream from a shared root.
	allowed := make(map[*ast.Ident]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !splitMethods[sel.Sel.Name] {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && isSharedStream(obj.Type()) {
				allowed[id] = true
			}
		}
		return true
	})

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || allowed[id] {
			return true
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || !isSharedStream(obj.Type()) {
			return true
		}
		// Captured means declared outside the closure (its parameters
		// included: they live in the closure's own scope).
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true
		}
		pass.Reportf(id.Pos(),
			"%q (type %s) is captured by a %s and shared across workers; derive a per-worker stream with Split/SplitN or move the draw out of the fan-out",
			id.Name, typeString(obj.Type()), where)
		return true
	})
}

// isSharedStream reports whether t is one of the stateful stream
// types the rule protects.
func isSharedStream(t types.Type) bool {
	if t == nil {
		return false
	}
	for _, st := range sharedStreamTypes {
		if namedPtrTo(t, st.pkg, st.name) {
			return true
		}
	}
	return false
}
