package sparse

import (
	"testing"
	"testing/quick"
)

func TestCoOccurrenceBasic(t *testing.T) {
	m := NewIncidence(3)
	// Rows 0 and 1 share features 1, 2; row 2 shares only feature 2.
	m.Set(0, 1)
	m.Set(0, 2)
	m.Set(1, 1)
	m.Set(1, 2)
	m.Set(2, 2)
	pairs := m.CoOccurrence(0)
	if len(pairs) != 3 {
		t.Fatalf("got %d pairs, want 3: %+v", len(pairs), pairs)
	}
	byPair := make(map[[2]int32]int32)
	for _, p := range pairs {
		byPair[[2]int32{p.A, p.B}] = p.Count
	}
	if byPair[[2]int32{0, 1}] != 2 {
		t.Errorf("0,1 count = %d, want 2", byPair[[2]int32{0, 1}])
	}
	if byPair[[2]int32{0, 2}] != 1 {
		t.Errorf("0,2 count = %d, want 1", byPair[[2]int32{0, 2}])
	}
}

func TestCoOccurrenceDedup(t *testing.T) {
	m := NewIncidence(2)
	m.Set(0, 1)
	m.Set(0, 1) // duplicate must not double-count
	m.Set(1, 1)
	pairs := m.CoOccurrence(0)
	if len(pairs) != 1 || pairs[0].Count != 1 {
		t.Fatalf("pairs = %+v, want one pair with count 1", pairs)
	}
	if m.RowDegree(0) != 1 {
		t.Errorf("row 0 degree = %d, want 1", m.RowDegree(0))
	}
}

func TestFanoutCap(t *testing.T) {
	m := NewIncidence(5)
	// Popular feature shared by 5 rows; rare feature shared by 2.
	for r := 0; r < 5; r++ {
		m.Set(r, 100)
	}
	m.Set(0, 200)
	m.Set(1, 200)
	if got := len(m.CoOccurrence(0)); got != 10 {
		t.Errorf("uncapped pairs = %d, want 10", got)
	}
	capped := m.CoOccurrence(4)
	if len(capped) != 1 {
		t.Fatalf("capped pairs = %+v, want only the rare pair", capped)
	}
	if m.SkippedFeatures(4) != 1 {
		t.Errorf("SkippedFeatures = %d, want 1", m.SkippedFeatures(4))
	}
	if m.SkippedFeatures(0) != 0 {
		t.Errorf("SkippedFeatures(0) = %d, want 0", m.SkippedFeatures(0))
	}
}

func TestCoOccurrenceMatchesBruteForce(t *testing.T) {
	// Property: the sparse product must equal the brute-force pairwise
	// set-intersection computation on random incidence relations.
	f := func(edges []uint16) bool {
		m := NewIncidence(8)
		sets := make(map[int]map[int]bool)
		for _, e := range edges {
			r := int(e>>8) % 8
			c := int(e & 0xff % 32)
			m.Set(r, uint64(c))
			if sets[r] == nil {
				sets[r] = make(map[int]bool)
			}
			sets[r][c] = true
		}
		want := make(map[[2]int32]int32)
		for a := 0; a < 8; a++ {
			for b := a + 1; b < 8; b++ {
				n := int32(0)
				for c := range sets[a] {
					if sets[b][c] {
						n++
					}
				}
				if n > 0 {
					want[[2]int32{int32(a), int32(b)}] = n
				}
			}
		}
		got := make(map[[2]int32]int32)
		for _, p := range m.CoOccurrence(0) {
			got[[2]int32{p.A, p.B}] = p.Count
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCoOccurrenceSorted(t *testing.T) {
	m := NewIncidence(3)
	for r := 2; r >= 0; r-- {
		m.Set(r, 1)
		m.Set(r, 2)
	}
	pairs := m.CoOccurrence(0)
	for i := 1; i < len(pairs); i++ {
		prev, cur := pairs[i-1], pairs[i]
		if prev.A > cur.A || (prev.A == cur.A && prev.B >= cur.B) {
			t.Fatalf("pairs not sorted: %+v", pairs)
		}
	}
}

func TestEmptyIncidence(t *testing.T) {
	m := NewIncidence(0)
	if got := m.CoOccurrence(0); len(got) != 0 {
		t.Errorf("empty incidence produced pairs: %v", got)
	}
	if m.Rows() != 0 || m.Features() != 0 {
		t.Error("empty incidence reports nonzero dims")
	}
}

// A pooled incidence must behave like a fresh one after Reset, with no
// state bleeding between uses.
func TestPoolReuse(t *testing.T) {
	m := Get(3)
	m.Set(0, 1)
	m.Set(1, 1)
	m.Set(2, 2)
	if got := len(m.CoOccurrence(0)); got != 1 {
		t.Fatalf("first use pairs = %d, want 1", got)
	}
	m.Release()

	m2 := Get(2)
	if m2.Features() != 0 || m2.Rows() != 2 {
		t.Fatalf("pooled incidence not reset: %d features, %d rows", m2.Features(), m2.Rows())
	}
	if got := len(m2.CoOccurrence(0)); got != 0 {
		t.Fatalf("pooled incidence leaked pairs: %d", got)
	}
	m2.Set(0, 99)
	m2.Set(1, 99)
	pairs := m2.CoOccurrence(0)
	if len(pairs) != 1 || pairs[0].Count != 1 {
		t.Fatalf("pooled incidence after reuse: %+v", pairs)
	}
	m2.Release()
}
