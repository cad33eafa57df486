package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotFuncs designates the allocation-free hot paths: the per-sample
// radio field, the wall-loss loop, the zero-copy proxy pumps, the
// live plane's per-chunk tap, the per-packet spike classifiers, and
// the traffic generators' per-packet builders and background stream.
// BenchmarkProxyThroughput pins the proxy path at 0 allocs/op and
// BenchmarkRadioSample the radio path at 1 (16 B: the shadow draw's
// PCG state, which escapes through rand.Rand's Source interface);
// this rule keeps the cheap-to-introduce
// allocation sources (formatting, string concatenation,
// string<->[]byte conversions) out of them mechanically. Functions
// are matched by name within the package, so methods are listed by
// bare method name.
var hotFuncs = map[string]map[string]bool{
	"voiceguard/internal/radio": {
		"PathRSSI": true, "Mean": true, "shadowAt": true,
		"Sample": true, "AverageAt": true,
		"SampleBatch": true, "SampleRepeat": true, "AverageAtBatch": true,
		"MeanBatch": true, "SampleFromMeans": true,
	},
	"voiceguard/internal/floorplan": {
		"WallLoss": true, "LineOfSight": true,
	},
	"voiceguard/internal/proxy": {
		"clientToServer": true, "serverToClient": true, "forward": true,
		"startSession": true,
	},
	"voiceguard": {
		"tap": true,
	},
	"voiceguard/internal/metrics": {
		"with": true, "With": true, "Inc": true, "Add": true, "Set": true,
		"Observe": true, "ObserveExemplar": true, "ObserveN": true,
		"bucketIndex": true,
	},
	"voiceguard/internal/recognize": {
		"ClassifyEchoSpike": true, "ClassifyNaive": true,
		"matchesCommandFallback": true, "hasWithin": true, "hasAdjacent": true,
		"Feed": true, "feedEcho": true, "feedGHM": true, "tryDecide": true,
	},
	"voiceguard/internal/fleet": {
		"shardFor": true, "step": true, "runRound": true,
	},
	"voiceguard/internal/trafficgen": {
		"appDataPacket": true, "handshakePacket": true, "mustAppData": true,
		"mustRecord": true, "quicPacket": true, "dnsExchange": true,
		"EmitBefore": true, "Drain": true, "fill": true,
	},
}

// allocStd names the standard-library calls outside fmt that return a
// freshly allocated string or slice, by types.Func.FullName. A call to
// one is an allocation source like a fmt call. The list is short on
// purpose: it holds the calls a hot path is likely to pick up for a
// key, a label or an address, not every allocating function.
var allocStd = map[string]bool{
	"strconv.Itoa": true, "strconv.FormatInt": true, "strconv.FormatUint": true,
	"strconv.FormatFloat": true, "strconv.Quote": true,
	"strings.Join": true, "strings.Repeat": true, "strings.Split": true,
	"strings.Fields": true, "strings.ReplaceAll": true,
	"strings.ToLower": true, "strings.ToUpper": true,
	"errors.New":                  true,
	"encoding/hex.EncodeToString": true,
	"(net/netip.Addr).String":     true,
	"(net/netip.AddrPort).String": true,
	"(net.IP).String":             true,
	"(time.Time).String":          true,
	"(time.Time).Format":          true,
	"(time.Duration).String":      true,
	"(*bytes.Buffer).String":      true,
}

// stdAlloc names the allocation a call to the standard-library
// function fn makes — any fmt call, or one on allocStd — or returns
// "" when it makes none the rule tracks.
func stdAlloc(fn *types.Func) string {
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return "fmt." + fn.Name()
	}
	if allocStd[fn.FullName()] {
		return fn.FullName()
	}
	return ""
}

// HotAlloc flags the easy-to-miss allocation sources inside the
// designated hot functions: any fmt call, a call on the allocStd
// list, string concatenation, and string<->[]byte conversions —
// directly in the body, and (via the module call graph) in any
// non-hot helper the function reaches within hotAllocDepth calls.
// Helpers that are themselves designated hot are skipped: their own
// direct findings (and suppressions) govern them.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "designated hot functions must stay allocation-free: no fmt, allocating standard-library call, string concatenation, or string<->[]byte conversion, directly or through reachable helpers",
	Run:  runHotAlloc,
}

// hotAllocDepth bounds the reachability query: an allocating helper
// more than this many calls away from a hot function is invisible.
const hotAllocDepth = 4

func runHotAlloc(pass *Pass) {
	funcs := hotFuncs[pass.PkgPath]
	if len(funcs) == 0 {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcs[fd.Name.Name] {
				continue
			}
			checkHotBody(pass, fd.Name.Name, fd.Body, false)
			checkHotReach(pass, fd)
		}
	}
}

// isHotFunc reports whether fn is on any package's designated hot
// list.
func isHotFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return hotFuncs[fn.Pkg().Path()][fn.Name()]
}

// checkHotReach walks the call graph from one hot function and flags
// every call site whose callee chain reaches an allocation source in
// a non-hot helper. The direct body check already covers allocations
// in the hot function itself and in other hot functions, so those are
// pruned from the search.
func checkHotReach(pass *Pass, fd *ast.FuncDecl) {
	fn := FuncOf(pass.Info, fd)
	if fn == nil {
		return
	}
	allocFact := func(f *FuncFacts) *Fact { return f.Alloc }
	reported := map[token.Pos]bool{}
	for _, e := range pass.Graph.Edges(fn) {
		if reported[e.Site] || isHotFunc(e.Callee) {
			continue
		}
		path := pass.Graph.Search(e.Callee, hotAllocDepth-1, isHotFunc, allocFact)
		if path == nil {
			continue
		}
		reported[e.Site] = true
		pass.Reportf(e.Site,
			"call in hot function %s reaches an allocating helper (%s at %s); inline the hot case or move the allocation off this path",
			fd.Name.Name, chainString(e.Callee, path), pass.Fset.Position(path.Fact.Pos))
	}
}

// checkHotBody walks one hot function body. inConcat suppresses
// nested reports of the same string-concatenation chain so a+b+c is
// one finding, not two.
func checkHotBody(pass *Pass, fn string, n ast.Node, inConcat bool) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.BinaryExpr:
		if n.Op == token.ADD && isString(pass.Info.Types[n].Type) {
			if !inConcat {
				pass.Reportf(n.Pos(),
					"string concatenation in hot function %s allocates; use a preallocated buffer or restructure the key", fn)
			}
			checkHotBody(pass, fn, n.X, true)
			checkHotBody(pass, fn, n.Y, true)
			return
		}
	case *ast.AssignStmt:
		if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass.Info.Types[n.Lhs[0]].Type) {
			pass.Reportf(n.Pos(),
				"string += in hot function %s allocates; use a preallocated buffer", fn)
		}
	case *ast.CallExpr:
		if fnObj := callee(pass.Info, n); fnObj != nil && stdAlloc(fnObj) != "" {
			pass.Reportf(n.Pos(),
				"%s in hot function %s allocates; keep formatting and fresh strings off the hot path", stdAlloc(fnObj), fn)
		} else if conv, from := conversionKind(pass.Info, n); conv != "" {
			pass.Reportf(n.Pos(),
				"%s(%s) conversion in hot function %s copies and allocates; keep one representation end to end", conv, from, fn)
		}
	}
	// Recurse generically over children. Concatenation chains were
	// handled above; everything else resets the inConcat guard.
	children(n, func(c ast.Node) {
		checkHotBody(pass, fn, c, false)
	})
}

// children invokes f once for each direct child node of n.
func children(n ast.Node, f func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			f(c)
		}
		return false
	})
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

// conversionKind classifies a call as a []byte(string) or
// string([]byte) conversion; it returns ("", "") otherwise.
func conversionKind(info *types.Info, call *ast.CallExpr) (to, from string) {
	if len(call.Args) != 1 {
		return "", ""
	}
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return "", ""
	}
	argT := info.Types[call.Args[0]].Type
	if argT == nil {
		return "", ""
	}
	switch {
	case isByteSlice(tv.Type) && isString(argT):
		return "[]byte", "string"
	case isString(tv.Type) && isByteSlice(argT):
		return "string", "[]byte"
	}
	return "", ""
}

// isByteSlice reports whether t's underlying type is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
