package analysis

import (
	"go/types"
	"path/filepath"
	"testing"
)

// modulePkg returns the loaded module package with the given import
// path.
func modulePkg(t *testing.T, m *Module, path string) *Package {
	t.Helper()
	for _, pkg := range m.Packages() {
		if pkg.Path == path {
			return pkg
		}
	}
	t.Fatalf("package %s not in module", path)
	return nil
}

// findFunc resolves a function or method (recv non-empty) object in
// the package.
func findFunc(t *testing.T, pkg *Package, recv, name string) *types.Func {
	t.Helper()
	scope := pkg.Types.Scope()
	if recv == "" {
		fn, ok := scope.Lookup(name).(*types.Func)
		if !ok {
			t.Fatalf("%s.%s: not a package function", pkg.Path, name)
		}
		return fn
	}
	tn, ok := scope.Lookup(recv).(*types.TypeName)
	if !ok {
		t.Fatalf("%s.%s: not a type", pkg.Path, recv)
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg.Types, name)
	fn, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("%s.(%s).%s: no such method", pkg.Path, recv, name)
	}
	return fn
}

// TestGraphStaticEdgesAndFacts pins the basics on the real module:
// fleet.Manager.RunRound statically calls parallel.Do (a module-local
// edge) and therefore carries a Block fact of its own.
func TestGraphStaticEdgesAndFacts(t *testing.T) {
	m := testModule(t)
	g := m.Graph()

	fleetPkg := modulePkg(t, m, "voiceguard/internal/fleet")
	runRound := findFunc(t, fleetPkg, "Manager", "RunRound")

	foundDo := false
	for _, e := range g.Edges(runRound) {
		if e.Callee.Name() == "Do" && e.Callee.Pkg().Path() == parallelPkg {
			foundDo = true
		}
	}
	if !foundDo {
		t.Errorf("Manager.RunRound: no static edge to parallel.Do; edges: %v", g.Edges(runRound))
	}

	facts := g.Facts(runRound)
	if facts == nil || facts.Block == nil {
		t.Errorf("Manager.RunRound: expected a Block fact (parallel.Do fan-out), got %+v", facts)
	}

	// Position.String formats (an Alloc fact); Model.Sample draws its
	// measurement noise from the caller's stream (an RNGDraw fact).
	floorplanPkg := modulePkg(t, m, "voiceguard/internal/floorplan")
	str := findFunc(t, floorplanPkg, "Position", "String")
	if f := g.Facts(str); f == nil || f.Alloc == nil {
		t.Errorf("Position.String: expected an Alloc fact, got %+v", f)
	}
	radioPkg := modulePkg(t, m, "voiceguard/internal/radio")
	sample := findFunc(t, radioPkg, "Model", "Sample")
	if f := g.Facts(sample); f == nil || f.RNGDraw == nil {
		t.Errorf("Model.Sample: expected an RNGDraw fact, got %+v", f)
	}
	// shadowAt derives its value through the pure KeyedNormal: no
	// state-consuming draw of its own.
	if f := g.Facts(findFunc(t, radioPkg, "Model", "shadowAt")); f != nil && f.RNGDraw != nil {
		t.Errorf("Model.shadowAt: KeyedNormal is pure, got RNGDraw fact %+v", f.RNGDraw)
	}
}

// TestGraphInterfaceResolution pins method-set resolution: the fleet
// dispatch calls Home.RunDay through the interface, and the graph must
// fan that out to scenario's concrete implementation.
func TestGraphInterfaceResolution(t *testing.T) {
	m := testModule(t)
	g := m.Graph()

	fleetPkg := modulePkg(t, m, "voiceguard/internal/fleet")
	step := findFunc(t, fleetPkg, "Tenant", "step")

	found := false
	for _, e := range g.Edges(step) {
		if e.Callee.Name() == "RunDay" && e.Callee.Pkg().Path() == "voiceguard/internal/scenario" {
			found = true
		}
	}
	if !found {
		t.Errorf("Tenant.step: interface call Home.RunDay did not resolve to scenario's concrete method; edges: %v", g.Edges(step))
	}
}

// TestSearchDepthAndSkip pins the reachability query on the hotalloc
// reach fixture: deep1 -> deep2 -> deep3 -> deep4 -> deep5, with the
// allocation in deep5.
func TestSearchDepthAndSkip(t *testing.T) {
	m := testModule(t)
	files := []string{
		filepath.Join("testdata", "src", "hotalloc", "hotalloc.go"),
		filepath.Join("testdata", "src", "hotalloc", "reach.go"),
	}
	pkg, err := m.CheckFiles("voiceguard/fixtures/reach", files)
	if err != nil {
		t.Fatal(err)
	}
	g := graphFor(pkg)
	deep1 := findFunc(t, pkg, "", "deep1")
	alloc := func(f *FuncFacts) *Fact { return f.Alloc }

	// deep5 sits four hops from deep1: invisible at depth 3, found at
	// depth 4 with the full witness chain.
	if p := g.Search(deep1, 3, nil, alloc); p != nil {
		t.Errorf("depth-3 search from deep1 should be bounded out, found chain %v", p.Chain)
	}
	p := g.Search(deep1, 4, nil, alloc)
	if p == nil {
		t.Fatal("depth-4 search from deep1 found nothing")
	}
	want := []string{"deep2", "deep3", "deep4", "deep5"}
	if len(p.Chain) != len(want) {
		t.Fatalf("witness chain %v, want %v", p.Chain, want)
	}
	for i, fn := range p.Chain {
		if fn.Name() != want[i] {
			t.Fatalf("witness chain %v, want %v", p.Chain, want)
		}
	}

	// The same query twice returns the same witness: the graph's edge
	// order is fixed, so searches are deterministic.
	q := g.Search(deep1, 4, nil, alloc)
	if q == nil || len(q.Chain) != len(p.Chain) {
		t.Fatalf("repeat search diverged: %v vs %v", p.Chain, q)
	}
	for i := range p.Chain {
		if p.Chain[i] != q.Chain[i] {
			t.Fatalf("repeat search diverged: %v vs %v", p.Chain, q.Chain)
		}
	}

	// Pruning deep3 cuts the only path to the allocation.
	skip := func(fn *types.Func) bool { return fn.Name() == "deep3" }
	if p := g.Search(deep1, 4, skip, alloc); p != nil {
		t.Errorf("search with deep3 pruned should find nothing, found chain %v", p.Chain)
	}

	// buildKey reaches fmt one hop down (fact lives on formatKey).
	buildKey := findFunc(t, pkg, "", "buildKey")
	if p := g.Search(buildKey, 3, nil, alloc); p == nil || len(p.Chain) != 1 || p.Chain[0].Name() != "formatKey" {
		t.Errorf("search from buildKey: got %+v, want chain [formatKey]", p)
	}
}

// callgraphFixture compiles the interprocedural-layer fixture under
// the given masqueraded path.
func callgraphFixture(t *testing.T, pkgPath string) (*Package, *CallGraph) {
	t.Helper()
	m := testModule(t)
	files := []string{filepath.Join("testdata", "src", "callgraph", "callgraph.go")}
	pkg, err := m.CheckFiles(pkgPath, files)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, graphFor(pkg)
}

// TestGoroutineWorkDoesNotBlockSpawner pins the go-subtree rules: a
// function that only spawns a goroutine doing channel ops carries no
// Block fact, a `go f()` edge is Go-marked, and SearchSync refuses to
// traverse it while the full Search (determinism/alloc queries) still
// does.
func TestGoroutineWorkDoesNotBlockSpawner(t *testing.T) {
	pkg, g := callgraphFixture(t, "voiceguard/fixtures/callgraph")

	spawnDrain := findFunc(t, pkg, "", "spawnDrain")
	if f := g.Facts(spawnDrain); f == nil || f.Block != nil {
		t.Errorf("spawnDrain: goroutine-only channel op must not be a Block fact, got %+v", f)
	}

	spawnWorker := findFunc(t, pkg, "", "spawnWorker")
	if f := g.Facts(spawnWorker); f == nil || f.Block != nil {
		t.Errorf("spawnWorker: go statement on a named function must not be a Block fact, got %+v", f)
	}
	edges := g.Edges(spawnWorker)
	if len(edges) != 1 || edges[0].Callee.Name() != "drainWorker" || !edges[0].Go {
		t.Fatalf("spawnWorker: want one Go-marked edge to drainWorker, got %+v", edges)
	}

	block := func(f *FuncFacts) *Fact { return f.Block }
	if p := g.SearchSync(spawnWorker, 3, nil, block); p != nil {
		t.Errorf("SearchSync traversed a go-marked edge: chain %v", p.Chain)
	}
	if p := g.Search(spawnWorker, 3, nil, block); p == nil {
		t.Error("full Search should still see drainWorker's Block fact through the go edge")
	}
}

// TestInterfaceResolutionDedup pins the T/*T collapse: Val implements
// Doer with a value receiver, so both Val and *Val are candidates,
// but Dispatch's interface call must resolve to exactly one Val.Do
// edge.
func TestInterfaceResolutionDedup(t *testing.T) {
	pkg, g := callgraphFixture(t, "voiceguard/fixtures/callgraph2")

	dispatch := findFunc(t, pkg, "", "Dispatch")
	count := 0
	for _, e := range g.Edges(dispatch) {
		if e.Callee.Name() == "Do" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("Dispatch: want exactly one resolved Do edge, got %d (edges %+v)", count, g.Edges(dispatch))
	}
}

// TestFixtureOverlayDoesNotLeak pins the overlay design: compiling a
// fixture extends the module graph without mutating it — the module
// graph has no facts for fixture-only functions.
func TestFixtureOverlayDoesNotLeak(t *testing.T) {
	m := testModule(t)
	files := []string{
		filepath.Join("testdata", "src", "hotalloc", "hotalloc.go"),
		filepath.Join("testdata", "src", "hotalloc", "reach.go"),
	}
	pkg, err := m.CheckFiles("voiceguard/fixtures/overlay", files)
	if err != nil {
		t.Fatal(err)
	}
	over := graphFor(pkg)
	deep1 := findFunc(t, pkg, "", "deep1")
	if over.Facts(deep1) == nil {
		t.Fatal("overlay graph is missing the fixture's own functions")
	}
	if m.Graph().Facts(deep1) != nil {
		t.Error("fixture compilation leaked facts into the shared module graph")
	}
}
