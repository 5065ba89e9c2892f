package herd

import (
	"fmt"
	"testing"

	"smash/internal/graph"
	"smash/internal/similarity"
)

// plantedServerGraph is a similarity graph over n servers with k planted
// dense communities plus sparse cross-community noise (xorshift; the same
// graph every run).
func plantedServerGraph(n, k int) *similarity.ServerGraph {
	state := uint64(2463534242)
	next := func(m int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(m))
	}
	var edges []graph.Edge
	for i := 0; i < 8*n; i++ {
		c := next(k)
		lo, hi := c*n/k, (c+1)*n/k
		u, v := lo+next(hi-lo), lo+next(hi-lo)
		if u != v {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(v), W: 1})
		}
	}
	for i := 0; i < n/4; i++ {
		u, v := next(n), next(n)
		if u != v {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(v), W: 0.3})
		}
	}
	sg := &similarity.ServerGraph{G: graph.FromEdges(n, edges), IDs: make(map[string]int, n)}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%04d.com", i)
		sg.Names = append(sg.Names, name)
		sg.IDs[name] = i
	}
	return sg
}

// Mining one dimension must allocate per herd (its sorted member names)
// and per Louvain level, never per edge or per member pair: the one-pass
// densities replaced a map of member pairs for every herd, which allocated
// as the herd's internal edges grew.
func TestMineGraphAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold on production builds")
	}
	const n, k = 600, 12
	sg := plantedServerGraph(n, k)
	herds := MineGraph("d", sg, 7)
	if len(herds) < k/2 {
		t.Fatalf("mined %d herds from %d planted communities", len(herds), k)
	}
	allocs := testing.AllocsPerRun(5, func() { MineGraph("d", sg, 7) })
	// Observed 75: Louvain's per-level slices plus one names slice per
	// herd. The per-herd maps of member pairs took ~400 on this graph, and
	// their growth tracks each herd's internal edges.
	if limit := 120 + 4*float64(len(herds)); allocs > limit {
		t.Errorf("MineGraph = %.0f allocs for %d herds over %d edges, want <= %.0f", allocs, len(herds), sg.G.EdgeCount(), limit)
	}
}
