// Package graph provides the weighted undirected graph model and the Louvain
// community-detection algorithm (Blondel, Guillaume, Lambiotte, Lefebvre,
// "Fast unfolding of communities in large networks", J. Stat. Mech. 2008)
// that SMASH uses to extract Associated Server Herds from per-dimension
// similarity graphs (§III-B1 of the paper).
package graph

import (
	"fmt"
	"slices"

	"smash/internal/stats"
)

type edge struct {
	to int32
	w  float64
}

// Graph is a weighted undirected graph over nodes 0..n-1. Parallel AddEdge
// calls for the same pair accumulate weight.
type Graph struct {
	adj       [][]edge
	selfLoop  []float64
	sumWeight float64 // sum of all edge weights, each undirected edge once
}

// Edge is one weighted undirected edge for FromEdges. U == V is a
// self-loop.
type Edge struct {
	U, V int32
	W    float64
}

// FromEdges builds a graph over nodes 0..n-1 from an edge list in one
// allocation-light pass: it counts every node's degree, carves all
// adjacency lists out of one contiguous backing array, then fills them in
// edge-list order. The result equals calling AddEdge for each edge in
// order: every node's neighbour order, its Degree and TotalWeight are the
// same, and so are the Louvain labels. Parallel edges accumulate weight as
// with AddEdge. Every endpoint must lie in [0, n) and every weight must be
// positive; FromEdges panics otherwise.
func FromEdges(n int, edges []Edge) *Graph {
	g := &Graph{adj: make([][]edge, n), selfLoop: make([]float64, n)}
	deg := make([]int32, n)
	total := 0
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n))
		}
		if !(e.W > 0) {
			panic(fmt.Sprintf("graph: edge (%d,%d) weight %g must be positive", e.U, e.V, e.W))
		}
		if e.U != e.V {
			deg[e.U]++
			deg[e.V]++
			total += 2
		}
	}
	backing := make([]edge, total)
	off := 0
	for u, d := range deg {
		// Capacity is capped so a later AddEdge reallocates instead of
		// overwriting the next node's list.
		g.adj[u] = backing[off : off : off+int(d)]
		off += int(d)
	}
	for _, e := range edges {
		g.sumWeight += e.W
		if e.U == e.V {
			g.selfLoop[e.U] += e.W
			continue
		}
		g.adj[e.U] = append(g.adj[e.U], edge{to: e.V, w: e.W})
		g.adj[e.V] = append(g.adj[e.V], edge{to: e.U, w: e.W})
	}
	return g
}

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	return &Graph{
		adj:      make([][]edge, n),
		selfLoop: make([]float64, n),
	}
}

// N reports the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// AddEdge adds weight w between u and v. Self-edges are stored as self-loops.
// Adding an edge with w <= 0 or out-of-range endpoints returns an error.
func (g *Graph) AddEdge(u, v int, w float64) error {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.adj))
	}
	if w <= 0 {
		return fmt.Errorf("graph: edge (%d,%d) weight %g must be positive", u, v, w)
	}
	if u == v {
		g.selfLoop[u] += w
		g.sumWeight += w
		return nil
	}
	g.adj[u] = append(g.adj[u], edge{to: int32(v), w: w})
	g.adj[v] = append(g.adj[v], edge{to: int32(u), w: w})
	g.sumWeight += w
	return nil
}

// Degree returns the weighted degree of node u: the sum of incident edge
// weights, with self-loops counted twice (the Louvain convention).
func (g *Graph) Degree(u int) float64 {
	d := 2 * g.selfLoop[u]
	for _, e := range g.adj[u] {
		d += e.w
	}
	return d
}

// EdgeCount returns the number of stored undirected non-loop edge entries
// (parallel edges counted separately).
func (g *Graph) EdgeCount() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// TotalWeight returns the sum of all edge weights (each undirected edge
// counted once, self-loops once).
func (g *Graph) TotalWeight() float64 { return g.sumWeight }

// Neighbors calls fn for each (neighbor, weight) pair of u. A neighbor may
// be reported multiple times if parallel edges were added.
func (g *Graph) Neighbors(u int, fn func(v int, w float64)) {
	for _, e := range g.adj[u] {
		fn(int(e.to), e.w)
	}
}

// ConnectedComponents returns the node sets of the graph's connected
// components (ignoring isolated self-loops-only semantics: every node is in
// exactly one component). Components and their members are sorted.
func (g *Graph) ConnectedComponents() [][]int {
	n := g.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int
	next := 0
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.adj[u] {
				if comp[e.to] < 0 {
					comp[e.to] = next
					stack = append(stack, int(e.to))
				}
			}
		}
		next++
	}
	out := make([][]int, next)
	for v, c := range comp {
		out[c] = append(out[c], v)
	}
	return out
}

// Modularity computes the Newman modularity Q of a community assignment
// (nodes with the same label are one community), Q in [-1, 1].
func (g *Graph) Modularity(community []int) float64 {
	m2 := 2 * g.sumWeight
	if m2 == 0 {
		return 0
	}
	in := make(map[int]float64)  // community -> 2*intra-community weight
	tot := make(map[int]float64) // community -> sum of member degrees
	for u := range g.adj {
		cu := community[u]
		tot[cu] += g.Degree(u)
		in[cu] += 2 * g.selfLoop[u]
		for _, e := range g.adj[u] {
			if community[e.to] == cu {
				in[cu] += e.w // visited from both sides -> counts twice
			}
		}
	}
	q := 0.0
	for c, w := range in {
		t := tot[c]
		q += w/m2 - (t/m2)*(t/m2)
	}
	return q
}

// Louvain runs the multi-level Louvain method and returns the community
// label of each node. Labels are compacted to 0..k-1. The node visit order
// is shuffled deterministically from seed, making results reproducible for a
// fixed (graph, seed) pair.
func (g *Graph) Louvain(seed int64) []int {
	n := g.N()
	assignment := make([]int, n)
	for i := range assignment {
		assignment[i] = i
	}
	work := g
	level := 0
	for {
		moved, local := work.louvainLocal(stats.DeriveSeed(seed, fmt.Sprintf("louvain-%d", level)))
		// Project the local labels back onto the original nodes.
		for i := range assignment {
			assignment[i] = local[assignment[i]]
		}
		if !moved {
			break
		}
		var k int
		work, k = work.aggregate(local)
		if k == work.N() && k == n {
			break
		}
		level++
		if level > 64 { // defensive bound; Louvain converges in a few levels
			break
		}
	}
	return compactLabels(assignment)
}

// louvainLocal performs one local-move phase. It returns whether any node
// changed community and the (compacted) community label of each node.
//
// The per-node neighbor-community weights accumulate into a dense scratch
// array indexed by community id (community ids stay < n), with a touched
// list swept in sorted order — the candidate visit order is therefore the
// same sorted-community order the original map-based implementation used,
// keeping results identical while removing all hashing and allocation from
// the innermost loop.
func (g *Graph) louvainLocal(seed int64) (bool, []int) {
	n := g.N()
	community := make([]int, n)
	degree := make([]float64, n)
	tot := make([]float64, n) // community -> sum of member degrees
	for i := 0; i < n; i++ {
		community[i] = i
		degree[i] = g.Degree(i)
		tot[i] = degree[i]
	}
	m2 := 2 * g.sumWeight
	if m2 == 0 {
		return false, compactLabels(community)
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := stats.NewRand(seed, "order")
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })

	neighW := make([]float64, n) // community -> weight from u (dense scratch)
	seen := make([]bool, n)      // community touched by u's neighbors
	touched := make([]int32, 0, 64)
	improvedAny := false
	for pass := 0; pass < 100; pass++ {
		improved := false
		for _, u := range order {
			cu := community[u]
			// Weight from u to each neighboring community.
			for _, e := range g.adj[u] {
				c := community[e.to]
				if !seen[c] {
					seen[c] = true
					touched = append(touched, int32(c))
				}
				neighW[c] += e.w
			}
			// Remove u from its community.
			tot[cu] -= degree[u]
			// Best community by modularity gain. The constant parts of
			// the gain cancel, so compare k_i,in - tot_c*k_i/m2.
			bestC, bestGain := cu, neighW[cu]-tot[cu]*degree[u]/m2
			// Deterministic iteration: candidates in sorted order.
			slices.Sort(touched)
			for _, c32 := range touched {
				c := int(c32)
				gain := neighW[c] - tot[c]*degree[u]/m2
				if gain > bestGain+1e-12 {
					bestC, bestGain = c, gain
				}
			}
			tot[bestC] += degree[u]
			if bestC != cu {
				community[u] = bestC
				improved = true
				improvedAny = true
			}
			for _, c := range touched {
				neighW[c] = 0
				seen[c] = false
			}
			touched = touched[:0]
		}
		if !improved {
			break
		}
	}
	return improvedAny, compactLabels(community)
}

// aggregate builds the community super-graph: one node per community, edge
// weights summed, intra-community weight folded into self-loops. It returns
// the new graph and the number of communities.
//
// Communities are visited in ascending order, and each one's weights to
// higher communities accumulate in a dense per-community array guarded by
// a stamp. The super-edges therefore come out sorted by (a, b), and
// FromEdges gives every super-node its neighbours in ascending order: the
// float sums inside Degree at the next level run in a fixed order.
func (g *Graph) aggregate(community []int) (*Graph, int) {
	k := 0
	for _, c := range community {
		if c+1 > k {
			k = c + 1
		}
	}
	start, members := groupByLabel(community, k)
	acc := make([]float64, k) // community -> weight from the current one
	stamp := make([]int32, k) // community -> 1 + last community that touched it
	var touched []int32
	var edges []Edge
	for c := 0; c < k; c++ {
		self := 0.0
		for _, u := range members[start[c]:start[c+1]] {
			self += g.selfLoop[u]
			for _, e := range g.adj[u] {
				cv := int32(community[e.to])
				switch {
				case int(cv) == c:
					if int(e.to) > u { // visit each intra edge once
						self += e.w
					}
				case int(cv) > c: // the lower community emits the edge
					if stamp[cv] != int32(c+1) {
						stamp[cv] = int32(c + 1)
						acc[cv] = 0
						touched = append(touched, cv)
					}
					acc[cv] += e.w
				}
			}
		}
		if self > 0 {
			edges = append(edges, Edge{U: int32(c), V: int32(c), W: self})
		}
		slices.Sort(touched)
		for _, cv := range touched {
			edges = append(edges, Edge{U: int32(c), V: cv, W: acc[cv]})
		}
		touched = touched[:0]
	}
	return FromEdges(k, edges), k
}

// groupByLabel counting-sorts the nodes by label: the members of label l
// are members[start[l]:start[l+1]], in ascending node order. Labels must
// lie in [0, k).
func groupByLabel(labels []int, k int) (start, members []int) {
	start = make([]int, k+1)
	for _, l := range labels {
		start[l+1]++
	}
	for l := 0; l < k; l++ {
		start[l+1] += start[l]
	}
	members = make([]int, len(labels))
	next := slices.Clone(start[:k])
	for v, l := range labels {
		members[next[l]] = v
		next[l]++
	}
	return start, members
}

// compactLabels renumbers labels to 0..k-1 preserving first-seen order.
// Labels must be non-negative; they are remapped through a dense slice.
func compactLabels(labels []int) []int {
	maxLabel := -1
	for _, l := range labels {
		maxLabel = max(maxLabel, l)
	}
	remap := make([]int, maxLabel+1)
	for i := range remap {
		remap[i] = -1
	}
	out := make([]int, len(labels))
	k := 0
	for i, l := range labels {
		if remap[l] < 0 {
			remap[l] = k
			k++
		}
		out[i] = remap[l]
	}
	return out
}

// Communities groups node ids by community label; members are in ascending
// node order, communities ordered by label. Labels must be non-negative.
// All groups share one backing array.
func Communities(labels []int) [][]int {
	k := 0
	for _, l := range labels {
		if l+1 > k {
			k = l + 1
		}
	}
	start, members := groupByLabel(labels, k)
	out := make([][]int, k)
	for l := range out {
		out[l] = members[start[l]:start[l+1]:start[l+1]]
	}
	return out
}

// CommunityDensities returns the paper's w(C) for every community of a
// labelling in one O(E) pass: 2|e| / (|v|·(|v|-1)), where |e| counts the
// distinct member pairs joined by at least one edge. labels must lie in
// [0, k); a community with fewer than two members has density 0.
//
// Each connected pair is counted from its lower endpoint u. A per-node
// stamp records the last u that counted a neighbour, so parallel edges
// between the same pair count once.
func (g *Graph) CommunityDensities(labels []int, k int) []float64 {
	size := make([]int, k)
	for _, l := range labels {
		size[l]++
	}
	pairs := make([]int, k)
	stamp := make([]int32, len(g.adj)) // node -> 1 + last u that counted it
	for u, a := range g.adj {
		c := labels[u]
		for _, e := range a {
			t := e.to
			if int(t) <= u || labels[t] != c || stamp[t] == int32(u+1) {
				continue
			}
			stamp[t] = int32(u + 1)
			pairs[c]++
		}
	}
	out := make([]float64, k)
	for c, v := range size {
		if v >= 2 {
			out[c] = 2 * float64(pairs[c]) / (float64(v) * float64(v-1))
		}
	}
	return out
}
