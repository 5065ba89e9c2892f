// Package similarity implements the four relationship dimensions of SMASH
// (§III-B): the main client-similarity dimension (eq. 1) and the secondary
// URI-file (eqs. 2-7), IP-address-set (eq. 8) and whois dimensions. Each
// builder turns a trace.Index into a weighted server-similarity graph on
// which the herd miner runs Louvain community detection.
//
// Pairwise similarity is never computed densely: set-valued dimensions go
// through the sparse co-occurrence product (see internal/sparse), so only
// server pairs that actually share a client/IP/file/whois token are touched.
// Builders run entirely on interned ids: node ids come from the index's
// cached NodeTable (built once per index, not once per dimension) and
// features are the data plane's uint32 symbol ids, so no string is hashed
// inside a mining loop.
package similarity

import (
	"math"
	"slices"
	"sort"
	"sync"

	"smash/internal/graph"
	"smash/internal/intern"
	"smash/internal/sparse"
	"smash/internal/trace"
	"smash/internal/whois"
)

// Dimension names used across the pipeline. Client is the main dimension;
// the rest are secondary (§III-B).
const (
	DimClient = "client"
	DimFile   = "urifile"
	DimIP     = "ipset"
	DimWhois  = "whois"
)

// SecondaryDimensions lists the secondary dimension names in canonical order.
func SecondaryDimensions() []string {
	return []string{DimFile, DimIP, DimWhois}
}

// SetSim is the importance-weighted set similarity used by both the client
// dimension (eq. 1) and the IP dimension (eq. 8):
//
//	sim = (|A∩B|/|A|) · (|A∩B|/|B|)
//
// Two servers are similar when their common elements are important to both.
func SetSim(intersection, sizeA, sizeB int) float64 {
	if sizeA == 0 || sizeB == 0 || intersection == 0 {
		return 0
	}
	i := float64(intersection)
	return (i / float64(sizeA)) * (i / float64(sizeB))
}

// DefaultLenThreshold is the paper's len parameter (Appendix B): filenames
// of at most 25 characters are compared exactly; longer (likely obfuscated)
// names are compared by character distribution.
const DefaultLenThreshold = 25

// DefaultCosineThreshold is the paper's cosine cutoff for long filenames.
const DefaultCosineThreshold = 0.8

// FileNameSim implements eqs. (2)-(6): 1 if the two URI files are "similar",
// else 0. Short names (<= lenThreshold) must match exactly; long names are
// similar when the cosine of their byte-frequency distributions exceeds
// cosThreshold.
func FileNameSim(fi, fj string, lenThreshold int, cosThreshold float64) float64 {
	if fi == fj {
		return 1
	}
	if len(fi) <= lenThreshold || len(fj) <= lenThreshold {
		return 0
	}
	if CharCosine(fi, fj) > cosThreshold {
		return 1
	}
	return 0
}

// CharCosine returns the cosine similarity of the byte-frequency vectors of
// two strings (the CharSet vectors of eq. 6).
func CharCosine(a, b string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var fa, fb [256]float64
	for i := 0; i < len(a); i++ {
		fa[a[i]]++
	}
	for i := 0; i < len(b); i++ {
		fb[b[i]]++
	}
	dot, na, nb := 0.0, 0.0, 0.0
	for i := 0; i < 256; i++ {
		dot += fa[i] * fb[i]
		na += fa[i] * fa[i]
		nb += fb[i] * fb[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// fileSet is one server's URI files prepared for repeated eq. (7)
// evaluations: its interned file ids in ascending order plus the ids of
// its long names. Ids from one symbol table are equal exactly when their
// names are, so exact matches are integer compares and names are read only
// for the long-name cosine test. Preparing once per server (not once per
// candidate pair) is what keeps the file dimension out of the profile.
type fileSet struct {
	ids  []uint32 // all file ids, ascending, no duplicates
	long []uint32 // ids of the files longer than lenThreshold, ascending
}

// appendLong appends the ids among ids whose names are longer than
// lenThreshold.
func appendLong(dst, ids []uint32, names []string, lenThreshold int) []uint32 {
	for _, f := range ids {
		if len(names[f]) > lenThreshold {
			dst = append(dst, f)
		}
	}
	return dst
}

// serverFileSimSets implements eq. (7) over two prepared file sets whose
// ids resolve through names: the product of (fraction of Si's files with a
// similar file on Sj) and the converse fraction. Exact matches are found by
// a merge walk over the sorted ids; only long names fall back to the
// pairwise cosine test.
func serverFileSimSets(a, b fileSet, names []string, cosThreshold float64) float64 {
	na, nb := len(a.ids), len(b.ids)
	if na == 0 || nb == 0 {
		return 0
	}
	// An exact match satisfies both directions at once.
	exact := 0
	for i, j := 0, 0; i < na && j < nb; {
		switch {
		case a.ids[i] == b.ids[j]:
			exact++
			i++
			j++
		case a.ids[i] < b.ids[j]:
			i++
		default:
			j++
		}
	}
	return (float64(exact+cosMatches(a, b, names, cosThreshold)) / float64(na)) *
		(float64(exact+cosMatches(b, a, names, cosThreshold)) / float64(nb))
}

// cosMatches counts x's long names that have no exact partner in y but
// are cosine-similar to one of y's long names.
func cosMatches(x, y fileSet, names []string, cosThreshold float64) int {
	m := 0
	for i, j := 0, 0; i < len(x.long); i++ {
		f := x.long[i]
		for j < len(y.ids) && y.ids[j] < f {
			j++
		}
		if j < len(y.ids) && y.ids[j] == f {
			continue // already counted as exact
		}
		// f is not in y, so every g below is a different name.
		for _, g := range y.long {
			if CharCosine(names[f], names[g]) > cosThreshold {
				m++
				break
			}
		}
	}
	return m
}

// ServerFileSim implements eq. (7): the product of (fraction of Si's files
// that have a similar file on Sj) and the converse fraction. Inputs are
// treated as file *sets* (the paper's formulation): they need not be
// sorted, and duplicate entries collapse before the fractions are taken.
// The two lists are interned into one local symbol table and scored by the
// same id-based code the file dimension runs.
func ServerFileSim(filesA, filesB []string, lenThreshold int, cosThreshold float64) float64 {
	ids := make(map[string]uint32, len(filesA)+len(filesB))
	var names []string
	prepare := func(files []string) fileSet {
		var fs fileSet
		for _, f := range files {
			id, ok := ids[f]
			if !ok {
				id = uint32(len(names))
				ids[f] = id
				names = append(names, f)
			}
			fs.ids = append(fs.ids, id)
		}
		slices.Sort(fs.ids)
		fs.ids = slices.Compact(fs.ids)
		fs.long = appendLong(nil, fs.ids, names, lenThreshold)
		return fs
	}
	a := prepare(filesA)
	b := prepare(filesB)
	return serverFileSimSets(a, b, names, cosThreshold)
}

// ServerGraph is a similarity graph whose nodes are server keys.
type ServerGraph struct {
	// G is the weighted similarity graph.
	G *graph.Graph
	// Names maps node id -> server key. Shared with the index's NodeTable;
	// treat as read-only.
	Names []string
	// IDs maps server key -> node id. Shared with the index's NodeTable;
	// treat as read-only.
	IDs map[string]int
}

// newServerGraph starts a ServerGraph over the index's cached node table,
// so node ids are deterministic (sorted server keys) and the sort happens
// once per index rather than once per dimension. The builder sets G.
func newServerGraph(idx *trace.Index) (*ServerGraph, *trace.NodeTable) {
	nodes := idx.Nodes()
	return &ServerGraph{Names: nodes.Names, IDs: nodes.IDs}, nodes
}

// edgePool recycles the builders' edge lists: FromEdges copies the edges
// into the graph's own arrays, so the list is free once the graph is built.
var edgePool = sync.Pool{New: func() any { return new([]graph.Edge) }}

// graphFromPairs scores every candidate pair and builds the graph of the
// pairs whose score is positive and at least minSim. The pairs are sorted
// by (A, B), so every node's neighbours come out in the same order as
// AddEdge calls over the pairs would give.
func graphFromPairs(n int, pairs []sparse.Pair, minSim float64, score func(p sparse.Pair) float64) *graph.Graph {
	buf := edgePool.Get().(*[]graph.Edge)
	edges := (*buf)[:0]
	for _, p := range pairs {
		if sim := score(p); sim > 0 && sim >= minSim {
			edges = append(edges, graph.Edge{U: p.A, V: p.B, W: sim})
		}
	}
	g := graph.FromEdges(n, edges)
	*buf = edges
	edgePool.Put(buf)
	return g
}

// Options tunes the similarity graph builders.
type Options struct {
	// MinSimilarity is the minimum edge weight to keep (edges below it are
	// dropped, keeping the graphs sparse). Zero uses DefaultMinSimilarity.
	MinSimilarity float64
	// MaxFanout skips features (clients, IPs, file tokens, whois tokens)
	// shared by more than this many servers when generating candidate
	// pairs. Zero uses DefaultMaxFanout; negative disables the cap.
	MaxFanout int
	// LenThreshold is the filename length above which the cosine test is
	// used. Zero uses DefaultLenThreshold.
	LenThreshold int
	// CosineThreshold is the cosine cutoff for long filenames. Zero uses
	// DefaultCosineThreshold.
	CosineThreshold float64
	// MinSharedFeatures is the minimum number of shared features for a
	// pair to receive an edge. The client dimension uses 2 so that a
	// single shared visitor cannot link servers (servers visited by only
	// one client are handled by the dedicated single-client ASHs instead,
	// per Appendix C of the paper). Zero uses 1.
	MinSharedFeatures int
}

// Default thresholds. The paper keeps every nonzero-similarity edge in the
// secondary dimensions and relies on weighted Louvain modularity to
// separate weakly-attached servers, so the default cutoff is only an
// epsilon guarding numeric noise; raising it is an ablation knob (see
// bench_test.go). The main client dimension uses a stronger cutoff: eq. (1)
// demands that the common clients be important to *both* servers, and a
// popular benign server sharing two bots with a C&C pool has sim of about
// 2/|C| — noise that would otherwise bridge campaign cliques into
// sprawling benign communities. The fan-out cap mirrors the paper's IDF
// spirit for features.
const (
	DefaultMinSimilarity       = 0.01
	DefaultClientMinSimilarity = 0.1
	DefaultMaxFanout           = 500
)

func (o Options) normalized() Options {
	if o.MinSimilarity == 0 {
		o.MinSimilarity = DefaultMinSimilarity
	}
	if o.MaxFanout == 0 {
		o.MaxFanout = DefaultMaxFanout
	}
	if o.MaxFanout < 0 {
		o.MaxFanout = 0 // sparse package convention: 0 = uncapped
	}
	if o.LenThreshold == 0 {
		o.LenThreshold = DefaultLenThreshold
	}
	if o.CosineThreshold == 0 {
		o.CosineThreshold = DefaultCosineThreshold
	}
	if o.MinSharedFeatures <= 0 {
		o.MinSharedFeatures = 1
	}
	return o
}

// BuildClientGraph builds the main-dimension similarity graph: servers are
// connected with weight Client(Si,Sj) from eq. (1) when they share clients.
func BuildClientGraph(idx *trace.Index, opts Options) *ServerGraph {
	opts = opts.normalized()
	sg, nodes := newServerGraph(idx)
	inc := sparse.Get(len(nodes.Infos))
	defer inc.Release()
	for id, info := range nodes.Infos {
		for c := range info.Clients {
			inc.Set(id, uint64(c))
		}
	}
	sg.G = graphFromPairs(len(nodes.Infos), inc.CoOccurrence(opts.MaxFanout), opts.MinSimilarity, func(p sparse.Pair) float64 {
		if int(p.Count) < opts.MinSharedFeatures {
			return 0
		}
		return SetSim(int(p.Count), len(nodes.Infos[p.A].Clients), len(nodes.Infos[p.B].Clients))
	})
	return sg
}

// BuildIPGraph builds the IP-address-set secondary dimension graph (eq. 8).
func BuildIPGraph(idx *trace.Index, opts Options) *ServerGraph {
	opts = opts.normalized()
	sg, nodes := newServerGraph(idx)
	inc := sparse.Get(len(nodes.Infos))
	defer inc.Release()
	for id, info := range nodes.Infos {
		for ip := range info.IPs {
			inc.Set(id, uint64(ip))
		}
	}
	sg.G = graphFromPairs(len(nodes.Infos), inc.CoOccurrence(opts.MaxFanout), opts.MinSimilarity, func(p sparse.Pair) float64 {
		return SetSim(int(p.Count), len(nodes.Infos[p.A].IPs), len(nodes.Infos[p.B].IPs))
	})
	return sg
}

// longGroupBase offsets the synthetic long-name group tokens past the file
// id space, so the two feature kinds cannot collide in one incidence.
const longGroupBase = uint64(1) << 40

// BuildFileGraph builds the URI-file secondary dimension graph. Candidate
// server pairs are generated from shared file tokens (the interned file id
// for short names, a distribution bucket for long names); each candidate
// pair is then scored with the full eq. (7) similarity over file sets
// prepared once per server.
func BuildFileGraph(idx *trace.Index, opts Options) *ServerGraph {
	opts = opts.normalized()
	sg, nodes := newServerGraph(idx)
	inc := sparse.Get(len(nodes.Infos))
	defer inc.Release()
	fileNames := idx.Syms.Files.Names()

	// Long (possibly obfuscated) filenames: cluster them by cosine
	// similarity so that similar-but-unequal names map to one token.
	longNames := make(map[string][]int) // long file -> server node ids
	for id, info := range nodes.Infos {
		for f := range info.Files {
			name := fileNames[f]
			if len(name) > opts.LenThreshold {
				longNames[name] = append(longNames[name], id)
				continue
			}
			inc.Set(id, uint64(f))
		}
	}
	if len(longNames) > 0 {
		files := make([]string, 0, len(longNames))
		for f := range longNames {
			files = append(files, f)
		}
		sort.Strings(files)
		groups := clusterLongNames(files, opts.CosineThreshold)
		for gi, members := range groups {
			token := longGroupBase + uint64(gi)
			for _, fi := range members {
				for _, server := range longNames[files[fi]] {
					inc.Set(server, token)
				}
			}
		}
	}

	pairs := inc.CoOccurrence(opts.MaxFanout)
	sets := prepareFileSets(nodes.Infos, pairs, fileNames, opts.LenThreshold)
	sg.G = graphFromPairs(len(nodes.Infos), pairs, opts.MinSimilarity, func(p sparse.Pair) float64 {
		return serverFileSimSets(sets[p.A], sets[p.B], fileNames, opts.CosineThreshold)
	})
	return sg
}

// prepareFileSets builds the eq. (7) file set of every server that occurs
// in a candidate pair; the other servers never pay the sort. All sets are
// carved out of two shared backing arrays.
func prepareFileSets(infos []*trace.ServerInfo, pairs []sparse.Pair, names []string, lenThreshold int) []fileSet {
	need := make([]bool, len(infos))
	for _, p := range pairs {
		need[p.A], need[p.B] = true, true
	}
	total := 0
	for id, ok := range need {
		if ok {
			total += len(infos[id].Files)
		}
	}
	sets := make([]fileSet, len(infos))
	ids := make([]uint32, 0, total)
	nLong := 0
	for id, ok := range need {
		if !ok {
			continue
		}
		start := len(ids)
		for f := range infos[id].Files {
			ids = append(ids, f)
			if len(names[f]) > lenThreshold {
				nLong++
			}
		}
		slices.Sort(ids[start:])
		sets[id].ids = ids[start:len(ids):len(ids)]
	}
	long := make([]uint32, 0, nLong)
	for id, ok := range need {
		if ok {
			start := len(long)
			long = appendLong(long, sets[id].ids, names, lenThreshold)
			sets[id].long = long[start:len(long):len(long)]
		}
	}
	return sets
}

// clusterLongNames groups long filenames into connected components of the
// "cosine > threshold" relation using a union-find over pairwise checks.
// The population of long names is small in practice (they only appear in
// obfuscating campaigns), so the quadratic pass is cheap; a hard cap guards
// pathological inputs.
func clusterLongNames(files []string, cosThreshold float64) [][]int {
	const maxPairwise = 4096
	parent := make([]int, len(files))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	n := len(files)
	if n > maxPairwise {
		n = maxPairwise
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if CharCosine(files[i], files[j]) > cosThreshold {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	groups := make(map[int][]int)
	for i := range files {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// BuildWhoisGraph builds the whois secondary dimension graph: servers whose
// registration records share at least whois.MinSharedFields fields are
// connected with the field-overlap similarity. Candidate pairs come from
// shared field-signature tokens.
func BuildWhoisGraph(idx *trace.Index, reg whois.Registry, opts Options) *ServerGraph {
	opts = opts.normalized()
	sg, nodes := newServerGraph(idx)
	if reg == nil {
		sg.G = graph.New(len(nodes.Names))
		return sg
	}
	records := make(map[int]whois.Record)
	tokens := intern.NewTable()
	inc := sparse.Get(len(nodes.Infos))
	defer inc.Release()
	for id, name := range nodes.Names {
		rec, ok := reg.Lookup(name)
		if !ok {
			continue
		}
		records[id] = rec
		for _, token := range whois.FieldSignature(rec) {
			inc.Set(id, uint64(tokens.ID(token)))
		}
	}
	sg.G = graphFromPairs(len(nodes.Infos), inc.CoOccurrence(opts.MaxFanout), 0, func(p sparse.Pair) float64 {
		return whois.Similarity(records[int(p.A)], records[int(p.B)])
	})
	return sg
}
