package sparse

import "testing"

// fillIncidence populates a pooled incidence with a fixed pseudo-random
// relation (xorshift; no rand dependency so the workload is identical
// every run).
func fillIncidence(m *Incidence, rows, featsPerRow int) {
	state := uint64(88172645463325252)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for r := 0; r < rows; r++ {
		for k := 0; k < featsPerRow; k++ {
			m.Set(r, next()%512)
		}
	}
}

// The pooled incidence + dense co-occurrence accumulator must keep the
// steady-state allocation profile flat: after warm-up, one full
// build+product+release cycle stays under a small constant bound instead
// of scaling with rows×features (the map-based implementation allocated
// per feature and per pair). This is the -benchmem guard for the mining
// hot loop in test form.
func TestCoOccurrenceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold on production builds")
	}
	const rows, feats = 400, 12
	// Warm the pools: first cycle sizes every buffer.
	m := Get(rows)
	fillIncidence(m, rows, feats)
	m.CoOccurrence(0)
	m.Release()

	allocs := testing.AllocsPerRun(10, func() {
		m := Get(rows)
		fillIncidence(m, rows, feats)
		pairs := m.CoOccurrence(0)
		if len(pairs) == 0 {
			t.Fatal("no pairs")
		}
		m.Release()
	})
	// The pair list is the incidence's own pooled buffer, so a warm cycle
	// allocates nothing (observed 0; the unpooled pair list took ~23). The
	// small bound absorbs a GC emptying the pool mid-measurement while
	// still catching an unpooled pair list or per-feature allocation.
	if allocs > 5 {
		t.Errorf("steady-state CoOccurrence cycle = %.0f allocs, want <= 5 (pooling regressed)", allocs)
	}
}
