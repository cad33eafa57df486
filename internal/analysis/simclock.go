package analysis

import (
	"go/ast"
)

// simClockPackages are the deterministic simulation packages: whole
// multi-day experiments execute in microseconds and must replay
// bit-identically for a seed, so time flows only through a
// simtime.Clock. The guard core is one of them although the wire
// plane runs it too: it reads whatever scheduler it is handed, so the
// live plane's wall clock stays in the root package. The transport
// packages (proxy, emul) run on real sockets and are deliberately
// outside this set.
var simClockPackages = map[string]bool{
	"voiceguard/internal/guard":     true,
	"voiceguard/internal/scenario":  true,
	"voiceguard/internal/radio":     true,
	"voiceguard/internal/recognize": true,
	"voiceguard/internal/mobility":  true,
	"voiceguard/internal/stats":     true,
	"voiceguard/internal/faults":    true,
	"voiceguard/internal/push":      true,
}

// wallClockFuncs are the package time functions that read or wait on
// the wall clock.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// SimClock flags wall-clock reads and waits inside the deterministic
// simulation packages, where a simtime.Clock must be used instead: a
// single time.Now on a simulated path silently decouples results from
// the seed and rots the paper's reproduced numbers.
var SimClock = &Analyzer{
	Name: "simclock",
	Doc:  "simulation packages must read time from a simtime.Clock, never the wall clock",
	Run:  runSimClock,
}

func runSimClock(pass *Pass) {
	if !simClockPackages[pass.PkgPath] {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := callee(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallClockFuncs[fn.Name()] {
				return true
			}
			pass.Reportf(call.Pos(),
				"time.%s in deterministic simulation package %s; take a simtime.Clock (Real{} in production) so seeded runs replay bit-identically",
				fn.Name(), pass.PkgPath)
			return true
		})
	}
}
