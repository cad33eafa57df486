package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural layer under the determinism rule
// pack: a module-wide call graph over go/types with per-function fact
// summaries and depth-bounded reachability queries.
//
// Nodes are *types.Func objects. Because the module is type-checked
// once against a shared FileSet and module-local imports resolve to
// the already-checked *types.Package, a function is the same object
// everywhere it is referenced — identity comparison is sound across
// packages, and fixture packages compiled with CheckFiles reuse the
// module's objects for everything they import.
//
// Edges are static: a call through an identifier or selector resolves
// to the named function or method; a call through an interface method
// resolves, by method-set resolution, to every module-local concrete
// method that implements it. Calls through plain function values are
// dynamic and carry no edge — the rules built on the graph treat them
// as opaque, which keeps the layer an under-approximation (it can
// miss, it does not invent).

// Fact is one interesting direct property of a function body, with
// the position it was observed at and a human-readable description.
type Fact struct {
	Pos  token.Pos
	What string
}

// FuncFacts summarizes the direct (intra-procedural) behavior of one
// function body. Each field holds the first observed instance, or nil.
type FuncFacts struct {
	// Alloc is a hot-path allocation source: a fmt call, string
	// concatenation, or string<->[]byte conversion.
	Alloc *Fact
	// Block is a blocking operation: a channel send/receive/select,
	// ranging over a channel, sync.WaitGroup.Wait, time.Sleep, or a
	// parallel.Map/MapErr/Do fan-out. Operations inside a go
	// statement's subtree are excluded: they run on the spawned
	// goroutine and never block the function that spawned it.
	Block *Fact
	// RNGDraw is a state-consuming draw: any *rng.Source method other
	// than the pure Split/SplitN/KeyedNormal/Seed, or a math/rand
	// call.
	RNGDraw *Fact
	// Metric is a metric-family registration call (metrics.Counter,
	// Registry.HistogramVec, ...), whose order fixes series identity.
	Metric *Fact
}

// Edge is one static call: the call site inside the caller and the
// resolved callee. Interface calls fan out to one Edge per module
// concrete method implementing the interface method. Go marks a call
// site inside a go statement's subtree: the callee runs on a spawned
// goroutine, so blocking queries (SearchSync) do not traverse it,
// while allocation and determinism queries (Search) still do.
type Edge struct {
	Site   token.Pos
	Callee *types.Func
	Go     bool
}

// Path is a reachability witness returned by Search: the chain of
// successive callees from (and excluding) the origin, ending at the
// function whose facts satisfied the query.
type Path struct {
	Chain []*types.Func
	Fact  *Fact
}

// CallGraph is the module-wide static call graph plus per-function
// fact summaries. It is built once per Module (see Module.Graph) and
// is safe for concurrent readers. A fixture package that is not part
// of the module extends the graph with an overlay (see extend):
// lookups consult the overlay first, then the shared base.
type CallGraph struct {
	parent *CallGraph
	edges  map[*types.Func][]Edge
	facts  map[*types.Func]*FuncFacts
}

// Edges returns the outgoing static call edges of fn in source order.
func (g *CallGraph) Edges(fn *types.Func) []Edge {
	for c := g; c != nil; c = c.parent {
		if es, ok := c.edges[fn]; ok {
			return es
		}
	}
	return nil
}

// Facts returns fn's direct-behavior summary, or nil for functions
// outside the graph (standard library, dynamic values).
func (g *CallGraph) Facts(fn *types.Func) *FuncFacts {
	for c := g; c != nil; c = c.parent {
		if f, ok := c.facts[fn]; ok {
			return f
		}
	}
	return nil
}

// Search walks the call graph breadth-first from `from`, visiting
// `from` itself and every function reachable within depth call hops,
// and returns a witness path to the first function whose facts
// satisfy sel. skip prunes functions (and everything only reachable
// through them); it may be nil. Traversal order is deterministic:
// edges are recorded in source order and ties break breadth-first, so
// the same tree always yields the same witness.
func (g *CallGraph) Search(from *types.Func, depth int, skip func(*types.Func) bool, sel func(*FuncFacts) *Fact) *Path {
	return g.search(from, depth, skip, sel, true)
}

// SearchSync is Search restricted to synchronous control flow: edges
// whose call site sits inside a go statement are not traversed, since
// work handed to a spawned goroutine never blocks (or runs under the
// locks of) the function that spawned it. Blocking queries use this;
// allocation and determinism queries keep the full Search, where a
// goroutine's draws and allocations still matter.
func (g *CallGraph) SearchSync(from *types.Func, depth int, skip func(*types.Func) bool, sel func(*FuncFacts) *Fact) *Path {
	return g.search(from, depth, skip, sel, false)
}

func (g *CallGraph) search(from *types.Func, depth int, skip func(*types.Func) bool, sel func(*FuncFacts) *Fact, followGo bool) *Path {
	if from == nil || (skip != nil && skip(from)) {
		return nil
	}
	type node struct {
		fn    *types.Func
		chain []*types.Func
	}
	visited := map[*types.Func]bool{from: true}
	frontier := []node{{fn: from}}
	for d := 0; d <= depth && len(frontier) > 0; d++ {
		var next []node
		for _, n := range frontier {
			if f := g.Facts(n.fn); f != nil {
				if fact := sel(f); fact != nil {
					return &Path{Chain: n.chain, Fact: fact}
				}
			}
			for _, e := range g.Edges(n.fn) {
				if !followGo && e.Go {
					continue
				}
				if visited[e.Callee] || (skip != nil && skip(e.Callee)) {
					continue
				}
				visited[e.Callee] = true
				chain := make([]*types.Func, len(n.chain)+1)
				copy(chain, n.chain)
				chain[len(n.chain)] = e.Callee
				next = append(next, node{fn: e.Callee, chain: chain})
			}
		}
		frontier = next
	}
	return nil
}

// graphFor returns the call graph a pass over pkg should query: the
// module graph itself for module packages, or an overlay extending it
// with the package's own declarations for fixture packages compiled
// via CheckFiles.
func graphFor(pkg *Package) *CallGraph {
	if pkg.mod == nil {
		return &CallGraph{edges: map[*types.Func][]Edge{}, facts: map[*types.Func]*FuncFacts{}}
	}
	base := pkg.mod.Graph()
	if p, ok := pkg.mod.pkgs[pkg.Path]; ok && p == pkg {
		return base
	}
	return base.extend(pkg)
}

// buildCallGraph derives the shared graph from every loaded package,
// in sorted package order so edge and fact maps populate
// deterministically.
func buildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{
		edges: make(map[*types.Func][]Edge),
		facts: make(map[*types.Func]*FuncFacts),
	}
	b := &graphBuilder{g: g, modPath: m.Path}
	pkgs := m.Packages()
	for _, pkg := range pkgs {
		b.collectTypes(pkg)
	}
	b.sortConcrete()
	for _, pkg := range pkgs {
		b.addPackage(pkg)
	}
	return g
}

// extend overlays one extra package (a compiled fixture) on top of a
// built graph. The overlay resolves its interface calls against the
// module's concrete types plus its own.
func (g *CallGraph) extend(pkg *Package) *CallGraph {
	over := &CallGraph{
		parent: g,
		edges:  make(map[*types.Func][]Edge),
		facts:  make(map[*types.Func]*FuncFacts),
	}
	b := &graphBuilder{g: over, modPath: pkg.mod.Path}
	for _, mp := range pkg.mod.Packages() {
		b.collectTypes(mp)
	}
	b.collectTypes(pkg)
	b.sortConcrete()
	b.addPackage(pkg)
	return over
}

// graphBuilder accumulates one CallGraph.
type graphBuilder struct {
	g        *CallGraph
	modPath  string
	concrete []types.Type // named module types (and pointers to them), for method-set resolution
}

// collectTypes records every package-level named type of pkg, in
// declaration (scope name) order, as an interface-implementation
// candidate.
func (b *graphBuilder) collectTypes(pkg *Package) {
	scope := pkg.Types.Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		b.concrete = append(b.concrete, named, types.NewPointer(named))
	}
}

// sortConcrete fixes the candidate order so interface resolution
// produces the same edge order on every build.
func (b *graphBuilder) sortConcrete() {
	sort.Slice(b.concrete, func(i, j int) bool {
		return types.TypeString(b.concrete[i], nil) < types.TypeString(b.concrete[j], nil)
	})
}

// addPackage walks every function declaration of pkg, recording its
// outgoing edges and direct facts. Function literals contribute to
// their enclosing declaration: whether a closure runs inline or on a
// worker, its behavior is attributed to the function that created it
// — except that inside a go statement's subtree, Block facts are not
// recorded (the spawned goroutine's channel ops never block the
// spawner) and edges are marked Go so SearchSync skips them.
func (b *graphBuilder) addPackage(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			facts := &FuncFacts{}
			b.g.facts[fn] = facts
			b.walkBody(pkg, fn, facts, fd.Body, false)
		}
	}
}

// walkBody visits every node under root, switching inGo on when it
// descends into a go statement's call (and staying on for anything
// nested deeper).
func (b *graphBuilder) walkBody(pkg *Package, fn *types.Func, facts *FuncFacts, root ast.Node, inGo bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok && !inGo {
			b.walkBody(pkg, fn, facts, gs.Call, true)
			return false
		}
		b.visit(pkg, fn, facts, n, inGo)
		return true
	})
}

// visit processes one node inside fn's body (closures included).
func (b *graphBuilder) visit(pkg *Package, fn *types.Func, facts *FuncFacts, n ast.Node, inGo bool) {
	switch n := n.(type) {
	case *ast.CallExpr:
		b.visitCall(pkg, fn, facts, n, inGo)
	case *ast.SendStmt:
		if !inGo {
			record(&facts.Block, n.Pos(), "a channel send")
		}
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !inGo {
			record(&facts.Block, n.Pos(), "a channel receive")
		}
	case *ast.SelectStmt:
		if !inGo {
			record(&facts.Block, n.Pos(), "a select statement")
		}
	case *ast.RangeStmt:
		if !inGo {
			if t := pkg.Info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					record(&facts.Block, n.Pos(), "ranging over a channel")
				}
			}
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD && isString(pkg.Info.Types[n].Type) {
			record(&facts.Alloc, n.Pos(), "string concatenation")
		}
	case *ast.AssignStmt:
		if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pkg.Info.Types[n.Lhs[0]].Type) {
			record(&facts.Alloc, n.Pos(), "string +=")
		}
	}
}

// visitCall classifies one call: records facts it evidences and the
// static edge(s) it contributes. Block facts are suppressed inside go
// subtrees — the spawned goroutine blocks, not the spawner.
func (b *graphBuilder) visitCall(pkg *Package, fn *types.Func, facts *FuncFacts, call *ast.CallExpr, inGo bool) {
	if to, from := conversionKind(pkg.Info, call); to != "" {
		record(&facts.Alloc, call.Pos(), to+"("+from+") conversion")
		return
	}
	callee := callee(pkg.Info, call)
	if callee == nil {
		return
	}
	if cp := callee.Pkg(); cp != nil {
		switch cp.Path() {
		case "fmt":
			record(&facts.Alloc, call.Pos(), "fmt."+callee.Name())
		case "time":
			if callee.Name() == "Sleep" && !inGo {
				record(&facts.Block, call.Pos(), "time.Sleep")
			}
		case "math/rand", "math/rand/v2":
			record(&facts.RNGDraw, call.Pos(), cp.Path()+"."+callee.Name())
		case parallelPkg:
			switch callee.Name() {
			case "Map", "MapErr", "Do":
				if !inGo {
					record(&facts.Block, call.Pos(), "parallel."+callee.Name()+" fan-out")
				}
			}
		case "sync":
			if callee.Name() == "Wait" && recvNamed(callee, "sync", "WaitGroup") && !inGo {
				record(&facts.Block, call.Pos(), "sync.WaitGroup.Wait")
			}
		case metricsPkgPath:
			if metricRegistrars[callee.Name()] {
				record(&facts.Metric, call.Pos(), "metrics."+callee.Name()+" registration")
			}
		}
	}
	if isRNGDraw(callee) {
		record(&facts.RNGDraw, call.Pos(), "rng.Source."+callee.Name()+" draw")
	}
	b.addEdges(fn, call.Pos(), callee, inGo)
}

// addEdges records the static edge fn -> callee, resolving interface
// methods to every module concrete method implementing them. Only
// module-local callees become edges: standard-library behavior the
// rules care about (fmt, time.Sleep, ...) is folded into the caller's
// own facts instead.
func (b *graphBuilder) addEdges(fn *types.Func, site token.Pos, callee *types.Func, inGo bool) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	if recv := sig.Recv(); recv != nil {
		if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
			b.resolveInterfaceCall(fn, site, callee, iface, inGo)
			return
		}
	}
	if b.moduleLocal(callee) {
		b.g.edges[fn] = append(b.g.edges[fn], Edge{Site: site, Callee: callee, Go: inGo})
	}
}

// resolveInterfaceCall adds one edge per module concrete method that
// can be behind an interface method call, in sorted type order. The
// candidate list holds both T and *T; when value-receiver methods make
// both implement the interface they resolve to the same *types.Func,
// so impls are deduped per call site.
func (b *graphBuilder) resolveInterfaceCall(fn *types.Func, site token.Pos, method *types.Func, iface *types.Interface, inGo bool) {
	seen := map[*types.Func]bool{}
	for _, ct := range b.concrete {
		if !types.Implements(ct, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ct, true, method.Pkg(), method.Name())
		impl, ok := obj.(*types.Func)
		if !ok || !b.moduleLocal(impl) || seen[impl] {
			continue
		}
		seen[impl] = true
		b.g.edges[fn] = append(b.g.edges[fn], Edge{Site: site, Callee: impl, Go: inGo})
	}
}

// moduleLocal reports whether fn is declared in this module (fixture
// packages masquerading under the module path included).
func (b *graphBuilder) moduleLocal(fn *types.Func) bool {
	p := fn.Pkg()
	if p == nil {
		return false
	}
	path := p.Path()
	return path == b.modPath || len(path) > len(b.modPath) &&
		path[:len(b.modPath)] == b.modPath && path[len(b.modPath)] == '/'
}

// record sets a fact slot on first observation.
func record(slot **Fact, pos token.Pos, what string) {
	if *slot == nil {
		*slot = &Fact{Pos: pos, What: what}
	}
}

// rngPureMethods are the *rng.Source methods that consume no stream
// state: calling them in any order is deterministic by construction.
var rngPureMethods = map[string]bool{
	"Split": true, "SplitN": true, "KeyedNormal": true, "Seed": true,
}

// isRNGDraw reports whether fn is a state-consuming *rng.Source
// method.
func isRNGDraw(fn *types.Func) bool {
	if fn == nil || rngPureMethods[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedPtrTo(sig.Recv().Type(), "voiceguard/internal/rng", "Source")
}

// recvNamed reports whether fn's receiver is pkg.name or *pkg.name.
func recvNamed(fn *types.Func, pkgPath, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// FuncOf resolves a FuncDecl to its types.Func object.
func FuncOf(info *types.Info, fd *ast.FuncDecl) *types.Func {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	return fn
}
