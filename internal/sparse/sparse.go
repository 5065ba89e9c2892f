// Package sparse implements the sparse-matrix substrate the paper cites
// (Buluç & Gilbert) for taming the N² cost of pairwise server similarity.
//
// The set-valued dimensions (client sets, IP sets, URI file sets) are all
// incidence relations: a boolean matrix M with rows = servers and columns =
// features. The pairwise intersection sizes |A∩B| needed by the similarity
// equations are exactly the nonzero entries of M·Mᵀ, which are computed
// row-wise (Gustavson's algorithm) against a dense, pooled accumulator —
// never materializing the dense N×N product and never hashing inside the
// product loop.
//
// Rows are the caller's dense node ids (0..n-1); features are opaque
// uint64 keys — interned symbol ids from the trace data plane, or composed
// ids such as (client<<32|timebucket).
//
// A per-feature fan-out cap skips extremely popular features: a feature
// shared by f rows contributes f(f-1)/2 pairs, so an unbounded hub feature
// (e.g. the URI file "index.html") would dominate cost while carrying almost
// no discriminating signal. The cap plays the same role for features that
// the paper's IDF filter plays for servers.
//
// Incidences, their scratch buffers and their co-occurrence pair buffers
// are pooled (Get/Release): the streaming engine builds one per dimension
// per window, and reuse keeps the per-window allocation profile flat.
package sparse

import (
	"slices"
	"sort"
	"sync"
)

// Incidence accumulates a rows×features boolean incidence relation over
// dense integer row ids and uint64 feature keys.
type Incidence struct {
	nRows      int
	featIDs    map[uint64]int32
	featRows   [][]int32 // feature id -> row ids (unsorted until finalize)
	rowDegrees []int32   // row id -> number of distinct features
	rowFeats   [][]int32 // row id -> feature ids (built by Finalize)
	pairs      []Pair    // CoOccurrence result buffer, reused
	finalized  bool
}

// NewIncidence returns an empty incidence relation over rows 0..nRows-1.
func NewIncidence(nRows int) *Incidence {
	m := &Incidence{featIDs: make(map[uint64]int32)}
	m.Reset(nRows)
	return m
}

// Reset clears the relation and re-sizes it to nRows rows, retaining
// allocated capacity for reuse.
func (m *Incidence) Reset(nRows int) {
	m.nRows = nRows
	clear(m.featIDs)
	for i := range m.featRows {
		m.featRows[i] = m.featRows[i][:0]
	}
	m.featRows = m.featRows[:0]
	for i := range m.rowFeats {
		m.rowFeats[i] = m.rowFeats[i][:0]
	}
	m.rowFeats = m.rowFeats[:0]
	if cap(m.rowDegrees) < nRows {
		m.rowDegrees = make([]int32, nRows)
	}
	m.rowDegrees = m.rowDegrees[:nRows]
	for i := range m.rowDegrees {
		m.rowDegrees[i] = 0
	}
	m.finalized = false
}

// Rows reports the number of rows.
func (m *Incidence) Rows() int { return m.nRows }

// Features reports the number of distinct features.
func (m *Incidence) Features() int { return len(m.featRows) }

// RowDegree returns the number of distinct features set for the row (valid
// after Finalize, which CoOccurrence runs implicitly).
func (m *Incidence) RowDegree(id int) int { return int(m.rowDegrees[id]) }

// addFeature appends a (pre-assigned) feature's row, reusing pooled
// sub-slices where possible.
func (m *Incidence) newFeature() int32 {
	f := int32(len(m.featRows))
	if len(m.featRows) < cap(m.featRows) {
		m.featRows = m.featRows[:len(m.featRows)+1]
		m.featRows[f] = m.featRows[f][:0]
	} else {
		m.featRows = append(m.featRows, nil)
	}
	return f
}

// Set marks (row, feature) as present. Duplicate Set calls for the same pair
// are deduplicated at Finalize time. row must be in [0, Rows()).
func (m *Incidence) Set(row int, feature uint64) {
	f, ok := m.featIDs[feature]
	if !ok {
		f = m.newFeature()
		m.featIDs[feature] = f
	}
	m.featRows[f] = append(m.featRows[f], int32(row))
	m.finalized = false
}

// Finalize sorts and deduplicates the per-feature row lists, recomputes row
// degrees, and builds the row-major adjacency the co-occurrence product
// walks. It is called automatically by CoOccurrence.
func (m *Incidence) Finalize() {
	if m.finalized {
		return
	}
	for i := range m.rowDegrees {
		m.rowDegrees[i] = 0
	}
	for i := range m.rowFeats {
		m.rowFeats[i] = m.rowFeats[i][:0]
	}
	if cap(m.rowFeats) < m.nRows {
		old := m.rowFeats
		m.rowFeats = make([][]int32, m.nRows)
		copy(m.rowFeats, old)
	}
	m.rowFeats = m.rowFeats[:m.nRows]
	for f, rows := range m.featRows {
		if len(rows) > 1 {
			slices.Sort(rows)
			out := rows[:1]
			for _, r := range rows[1:] {
				if r != out[len(out)-1] {
					out = append(out, r)
				}
			}
			rows = out
			m.featRows[f] = rows
		}
		for _, r := range rows {
			m.rowDegrees[r]++
			m.rowFeats[r] = append(m.rowFeats[r], int32(f))
		}
	}
	m.finalized = true
}

// Pair is one co-occurring row pair with its intersection count.
type Pair struct {
	A, B  int32 // row ids, A < B
	Count int32 // number of shared features
}

// coocScratch is the pooled dense accumulator for the row-wise product.
type coocScratch struct {
	counts  []int32
	touched []int32
}

var scratchPool = sync.Pool{New: func() any { return &coocScratch{} }}

func getScratch(n int) *coocScratch {
	s := scratchPool.Get().(*coocScratch)
	if cap(s.counts) < n {
		s.counts = make([]int32, n)
	}
	s.counts = s.counts[:n]
	return s
}

// CoOccurrence computes, for every pair of rows sharing at least one
// feature, the number of shared features — i.e. the strictly-upper-triangle
// nonzeros of M·Mᵀ. Features whose fan-out exceeds maxFanout are skipped
// (0 or negative means no cap). The result is sorted by (A, B).
//
// The returned slice is the incidence's own pair buffer, pooled with it: it
// stays valid until the next CoOccurrence call on m, Reset or Release.
// Callers that need the pairs longer must copy them.
//
// The product is computed row-wise against a pooled dense accumulator:
// for each row a, the counts of all partners b > a are accumulated by
// array indexing, then swept in sorted order — no hashing, no per-pair
// allocation.
func (m *Incidence) CoOccurrence(maxFanout int) []Pair {
	m.Finalize()
	s := getScratch(m.nRows)
	defer scratchPool.Put(s)
	counts := s.counts
	touched := s.touched[:0]
	pairs := m.pairs[:0]
	for a := 0; a < m.nRows; a++ {
		for _, f := range m.rowFeats[a] {
			rows := m.featRows[f]
			if maxFanout > 0 && len(rows) > maxFanout {
				continue
			}
			// rows is sorted; partners of a are the entries after it.
			i := sort.Search(len(rows), func(i int) bool { return rows[i] > int32(a) })
			for _, b := range rows[i:] {
				if counts[b] == 0 {
					touched = append(touched, b)
				}
				counts[b]++
			}
		}
		if len(touched) == 0 {
			continue
		}
		slices.Sort(touched)
		for _, b := range touched {
			pairs = append(pairs, Pair{A: int32(a), B: b, Count: counts[b]})
			counts[b] = 0
		}
		touched = touched[:0]
	}
	s.touched = touched
	m.pairs = pairs
	return pairs
}

// SkippedFeatures reports how many features exceed the fan-out cap, for
// diagnostics.
func (m *Incidence) SkippedFeatures(maxFanout int) int {
	if maxFanout <= 0 {
		return 0
	}
	m.Finalize()
	n := 0
	for _, rows := range m.featRows {
		if len(rows) > maxFanout {
			n++
		}
	}
	return n
}

var incPool = sync.Pool{New: func() any { return NewIncidence(0) }}

// Get returns a pooled empty Incidence over nRows rows. Release it when the
// co-occurrence product has been consumed.
func Get(nRows int) *Incidence {
	m := incPool.Get().(*Incidence)
	m.Reset(nRows)
	return m
}

// Release returns the incidence to the pool. The caller must not use it
// afterwards.
func (m *Incidence) Release() { incPool.Put(m) }
