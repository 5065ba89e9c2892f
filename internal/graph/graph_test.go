package graph

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"smash/internal/stats"
)

// clique adds a complete subgraph over the given nodes with weight w.
func clique(t *testing.T, g *Graph, nodes []int, w float64) {
	t.Helper()
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if err := g.AddEdge(nodes[i], nodes[j], w); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 0, 1); err == nil {
		t.Error("negative node accepted")
	}
	if err := g.AddEdge(0, 1, 0); err == nil {
		t.Error("zero-weight edge accepted")
	}
	if err := g.AddEdge(0, 1, -2); err == nil {
		t.Error("negative-weight edge accepted")
	}
}

func TestDegreeAndWeights(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 2, 1); err != nil { // self-loop
		t.Fatal(err)
	}
	if got := g.Degree(1); got != 5 {
		t.Errorf("Degree(1) = %g, want 5", got)
	}
	if got := g.Degree(2); got != 5 { // 3 + 2*selfloop
		t.Errorf("Degree(2) = %g, want 5", got)
	}
	if got := g.TotalWeight(); got != 6 {
		t.Errorf("TotalWeight = %g, want 6", got)
	}
	if got := g.EdgeCount(); got != 2 {
		t.Errorf("EdgeCount = %g, want 2", float64(got))
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	clique(t, g, []int{0, 1, 2}, 1)
	clique(t, g, []int{3, 4}, 1)
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 1 {
		t.Errorf("component sizes wrong: %v", comps)
	}
}

func TestLouvainTwoCliques(t *testing.T) {
	g := New(8)
	clique(t, g, []int{0, 1, 2, 3}, 1)
	clique(t, g, []int{4, 5, 6, 7}, 1)
	if err := g.AddEdge(3, 4, 0.1); err != nil { // weak bridge
		t.Fatal(err)
	}
	labels := g.Louvain(1)
	if labels[0] != labels[1] || labels[1] != labels[2] || labels[2] != labels[3] {
		t.Errorf("first clique split: %v", labels)
	}
	if labels[4] != labels[5] || labels[5] != labels[6] || labels[6] != labels[7] {
		t.Errorf("second clique split: %v", labels)
	}
	if labels[0] == labels[4] {
		t.Errorf("cliques merged despite weak bridge: %v", labels)
	}
}

func TestLouvainDeterministic(t *testing.T) {
	g := New(20)
	rng := stats.NewRand(3, "graph")
	for i := 0; i < 60; i++ {
		u, v := rng.Intn(20), rng.Intn(20)
		if u != v {
			if err := g.AddEdge(u, v, 1+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := g.Louvain(7)
	b := g.Louvain(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic Louvain at node %d: %v vs %v", i, a, b)
		}
	}
}

func TestLouvainImprovesModularity(t *testing.T) {
	// Property: on random graphs the Louvain partition's modularity must be
	// >= the singleton partition's modularity (which is <= 0).
	f := func(seed int64, edges []uint16) bool {
		n := 16
		g := New(n)
		for _, e := range edges {
			u, v := int(e>>8)%n, int(e&0xff)%n
			if u != v {
				_ = g.AddEdge(u, v, 1)
			}
		}
		labels := g.Louvain(seed)
		singleton := make([]int, n)
		for i := range singleton {
			singleton[i] = i
		}
		return g.Modularity(labels) >= g.Modularity(singleton)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLouvainRing(t *testing.T) {
	// Ring of 4 cliques of 5 nodes: the canonical Louvain test topology.
	g := New(20)
	for c := 0; c < 4; c++ {
		nodes := make([]int, 5)
		for i := range nodes {
			nodes[i] = c*5 + i
		}
		clique(t, g, nodes, 1)
	}
	for c := 0; c < 4; c++ {
		if err := g.AddEdge(c*5, ((c+1)%4)*5, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	labels := g.Louvain(11)
	groups := Communities(labels)
	if len(groups) != 4 {
		t.Fatalf("found %d communities, want 4: %v", len(groups), labels)
	}
	q := g.Modularity(labels)
	if q < 0.5 {
		t.Errorf("modularity %g too low for ring of cliques", q)
	}
}

func TestModularityEmptyGraph(t *testing.T) {
	g := New(4)
	if got := g.Modularity([]int{0, 1, 2, 3}); got != 0 {
		t.Errorf("empty graph modularity = %g, want 0", got)
	}
	labels := g.Louvain(5)
	if len(labels) != 4 {
		t.Fatalf("labels = %v", labels)
	}
}

func TestModularityBounds(t *testing.T) {
	f := func(seed int64, edges []uint16, labelSeed uint8) bool {
		n := 12
		g := New(n)
		for _, e := range edges {
			u, v := int(e>>8)%n, int(e&0xff)%n
			if u != v {
				_ = g.AddEdge(u, v, 1)
			}
		}
		rng := stats.NewRand(int64(labelSeed), "labels")
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(4)
		}
		q := g.Modularity(labels)
		return q >= -1-1e-9 && q <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// subgraphDensity is the map-based w(C) of one member set: the oracle the
// one-pass CommunityDensities must reproduce exactly.
func subgraphDensity(g *Graph, members []int) float64 {
	v := len(members)
	if v < 2 {
		return 0
	}
	in := make(map[int]bool, v)
	for _, u := range members {
		in[u] = true
	}
	type pairKey struct{ a, b int }
	seen := make(map[pairKey]bool)
	for _, u := range members {
		g.Neighbors(u, func(t int, _ float64) {
			if !in[t] || t == u {
				return
			}
			seen[pairKey{min(u, t), max(u, t)}] = true
		})
	}
	return 2 * float64(len(seen)) / (float64(v) * float64(v-1))
}

func TestSubgraphDensity(t *testing.T) {
	g := New(5)
	clique(t, g, []int{0, 1, 2}, 1)
	density := func(labels []int, c int) float64 {
		k := 0
		for _, l := range labels {
			k = max(k, l+1)
		}
		return g.CommunityDensities(labels, k)[c]
	}
	if got := density([]int{0, 0, 0, 1, 2}, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("triangle density = %g, want 1", got)
	}
	if got := density([]int{0, 0, 0, 0, 1}, 0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("triangle+isolate density = %g, want 0.5", got)
	}
	if got := density([]int{0, 0, 0, 0, 1}, 1); got != 0 {
		t.Errorf("singleton density = %g, want 0", got)
	}
	// Parallel edges must not inflate density.
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := density([]int{0, 0, 0, 1, 2}, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("density with parallel edge = %g, want 1", got)
	}
}

// randomEdges draws an edge list over n nodes with duplicate pairs,
// reversed duplicates and self-loops mixed in.
func randomEdges(rng interface {
	Intn(int) int
	Float64() float64
}, n, m int) []Edge {
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		w := 0.05 + rng.Float64()
		edges = append(edges, Edge{U: u, V: v, W: w})
		switch rng.Intn(6) {
		case 0:
			edges = append(edges, Edge{U: u, V: v, W: w / 2}) // duplicate pair
		case 1:
			edges = append(edges, Edge{U: v, V: u, W: w}) // reversed duplicate
		case 2:
			edges = append(edges, Edge{U: u, V: u, W: w}) // self-loop
		}
	}
	return edges
}

// FromEdges must build exactly the graph that AddEdge calls in the same
// order build: per-node neighbour order, degrees, total weight and hence
// Louvain labels.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := stats.NewRand(seed, "from-edges")
		n := 5 + rng.Intn(60)
		edges := randomEdges(rng, n, rng.Intn(4*n))
		want := New(n)
		for _, e := range edges {
			if err := want.AddEdge(int(e.U), int(e.V), e.W); err != nil {
				t.Fatal(err)
			}
		}
		got := FromEdges(n, edges)
		for u := 0; u < n; u++ {
			if !slices.Equal(got.adj[u], want.adj[u]) {
				t.Fatalf("seed %d: node %d neighbours = %v, want %v", seed, u, got.adj[u], want.adj[u])
			}
			if got.Degree(u) != want.Degree(u) {
				t.Fatalf("seed %d: Degree(%d) = %g, want %g", seed, u, got.Degree(u), want.Degree(u))
			}
		}
		if got.TotalWeight() != want.TotalWeight() {
			t.Fatalf("seed %d: TotalWeight = %g, want %g", seed, got.TotalWeight(), want.TotalWeight())
		}
		for _, ls := range []int64{1, 7, 42} {
			if g, w := got.Louvain(ls), want.Louvain(ls); !slices.Equal(g, w) {
				t.Fatalf("seed %d, Louvain(%d): labels %v, want %v", seed, ls, g, w)
			}
		}
		// A later AddEdge on node 0 must not write into node 1's part of
		// the shared backing array (n >= 5, so the new edge skips node 1).
		before := slices.Clone(got.adj[1])
		if err := got.AddEdge(0, n-1, 1); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.adj[1], before) {
			t.Fatalf("seed %d: AddEdge after FromEdges clobbered node 1", seed)
		}
	}
}

func TestFromEdgesRejectsInvalid(t *testing.T) {
	for _, e := range []Edge{{U: 0, V: 3, W: 1}, {U: -1, V: 0, W: 1}, {U: 0, V: 1, W: 0}, {U: 0, V: 1, W: math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromEdges accepted %+v", e)
				}
			}()
			FromEdges(3, []Edge{e})
		}()
	}
}

// The one-pass densities must equal the per-community map oracle, for
// Louvain and connected-component labellings of graphs with parallel
// edges.
func TestCommunityDensitiesMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := stats.NewRand(seed, "densities")
		n := 2 + rng.Intn(80)
		g := FromEdges(n, randomEdges(rng, n, rng.Intn(3*n)))
		comps := g.ConnectedComponents()
		cc := make([]int, n)
		for c, members := range comps {
			for _, v := range members {
				cc[v] = c
			}
		}
		for name, labels := range map[string][]int{"louvain": g.Louvain(seed), "components": cc} {
			groups := Communities(labels)
			got := g.CommunityDensities(labels, len(groups))
			for c, members := range groups {
				if want := subgraphDensity(g, members); got[c] != want {
					t.Fatalf("seed %d %s: community %d density = %g, want %g", seed, name, c, got[c], want)
				}
			}
		}
	}
}

func TestCommunities(t *testing.T) {
	groups := Communities([]int{0, 1, 0, 2, 1})
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0]) != 2 || groups[0][0] != 0 || groups[0][1] != 2 {
		t.Errorf("group 0 = %v", groups[0])
	}
}

func TestLouvainSingletonNoise(t *testing.T) {
	// Isolated nodes stay singleton; a dense herd among noise is recovered.
	g := New(30)
	clique(t, g, []int{10, 11, 12, 13, 14, 15}, 1)
	labels := g.Louvain(2)
	herd := labels[10]
	for _, v := range []int{11, 12, 13, 14, 15} {
		if labels[v] != herd {
			t.Errorf("herd member %d has label %d, want %d", v, labels[v], herd)
		}
	}
	for v := 0; v < 10; v++ {
		if labels[v] == herd {
			t.Errorf("isolated node %d joined the herd", v)
		}
	}
}
