package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Wallclock forbids reading the wall clock (or scheduling against it)
// and importing math/rand inside the deterministic packages. Simulated
// rounds are the only clock those packages may observe, and xrand the
// only randomness: one time.Now in a hot path silently turns
// byte-stable experiment output into a function of machine load.
//
// The two legitimate timing sites — the UDP transport's retry
// deadlines and the dense-round wall-time diagnostic — carry
// //rbvet:allow wallclock directives.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "forbid wall-clock reads (time.Now/Since/Until/Sleep/After/...) and math/rand " +
		"in deterministic packages; suppress only via //rbvet:allow wallclock <reason>",
	Run: runWallclock,
}

// wallclockBanned is the set of time-package functions that observe or
// wait on the wall clock. Pure types and arithmetic (time.Duration,
// time.Millisecond, ...) stay legal: a RetryPolicy may be *configured*
// in deterministic code as long as only the transport acts on it.
var wallclockBanned = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
}

// wallclockBannedImports are packages deterministic code must not
// import at all.
var wallclockBannedImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

func runWallclock(pass *Pass) error {
	if !deterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.TestFile(f) {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if wallclockBannedImports[path] {
				pass.Reportf(imp.Pos(), "import of %s in deterministic package %s: use internal/xrand streams instead", path, pass.Pkg.Path())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if wallclockBanned[fn.Name()] {
				pass.Reportf(sel.Pos(), "time.%s in deterministic package %s: simulated rounds are the only clock here", fn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
