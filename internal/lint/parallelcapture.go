package lint

import (
	"go/ast"
	"go/types"
)

// ParallelCapture guards the goroutine-parallel kernels: a closure handed to
// parallel.For / ForChunks / ForSplit / ForWorkers (or launched with a bare
// go statement) runs concurrently with its siblings, so a plain write to a
// variable captured from the enclosing scope is a data race. The safe idioms
// are a worker-local variable declared inside the closure, or the per-worker
// slot pattern (parallel.ForWorkers with writes indexed by the worker/chunk
// parameters — see morton.radixOrderParallel).
//
// The check flags direct writes to captured identifiers (x = …, x += …, x++,
// and range re-binding `for x = range`). Writes through index or pointer
// expressions are assumed to follow the per-slot idiom and are not analyzed.
var ParallelCapture = &Analyzer{
	Name: "parallelcapture",
	Doc:  "closures run on parallel workers must not write variables captured from the enclosing scope",
	Run:  runParallelCapture,
}

func runParallelCapture(p *Pass) {
	parallelPath := p.ModPath + "/internal/parallel"
	for _, pkg := range p.Targets {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					obj := calleeFunc(pkg.Info, n)
					if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != parallelPath {
						return true
					}
					switch obj.Name() {
					case "For", "ForChunks", "ForSplit", "ForWorkers":
						for _, arg := range n.Args {
							if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
								checkCapturedWrites(p, pkg, lit, "parallel."+obj.Name())
							}
						}
					}
				case *ast.GoStmt:
					if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
						checkCapturedWrites(p, pkg, lit, "go statement")
					}
				}
				return true
			})
		}
	}
}

// checkCapturedWrites reports assignments inside lit whose target is an
// identifier defined outside lit (a captured, worker-shared variable).
func checkCapturedWrites(p *Pass, pkg *Package, lit *ast.FuncLit, context string) {
	info := pkg.Info

	// Everything defined within the closure — parameters, named results, and
	// local declarations — is worker-private.
	local := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})

	flag := func(id *ast.Ident) {
		obj := info.Uses[id]
		if obj == nil || local[obj] {
			return
		}
		if _, ok := obj.(*types.Var); !ok {
			return
		}
		p.Reportf(id.Pos(), "closure passed to %s writes captured variable %s shared across workers; use a worker-local or the per-worker slot idiom (parallel.ForWorkers)", context, id.Name)
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// With := every LHS identifier is either a fresh definition
			// (Defs, local) or a rebinding (Uses) — both resolve correctly
			// through flag, so := and = share one path.
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					flag(id)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				flag(id)
			}
		case *ast.RangeStmt:
			if n.Tok.String() == "=" {
				if id, ok := ast.Unparen(n.Key).(*ast.Ident); ok {
					flag(id)
				}
				if n.Value != nil {
					if id, ok := ast.Unparen(n.Value).(*ast.Ident); ok {
						flag(id)
					}
				}
			}
		}
		return true
	})
}
