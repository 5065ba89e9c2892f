package similarity

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

// serverFileSimOracle is eq. (7) over file names: deduplicated name lists
// sorted as strings, an exact-match merge walk over names and the
// long-name cosine fallback. It is the string implementation the id-based
// kernel replaced, kept as the reference the kernel must reproduce.
func serverFileSimOracle(filesA, filesB []string, lenThreshold int, cosThreshold float64) float64 {
	type nameSet struct{ sorted, long []string }
	prepare := func(files []string) nameSet {
		s := append([]string(nil), files...)
		sort.Strings(s)
		ns := nameSet{sorted: slices.Compact(s)}
		for _, f := range ns.sorted {
			if len(f) > lenThreshold {
				ns.long = append(ns.long, f)
			}
		}
		return ns
	}
	a, b := prepare(filesA), prepare(filesB)
	na, nb := len(a.sorted), len(b.sorted)
	if na == 0 || nb == 0 {
		return 0
	}
	exact := 0
	for i, j := 0, 0; i < na && j < nb; {
		switch {
		case a.sorted[i] == b.sorted[j]:
			exact++
			i++
			j++
		case a.sorted[i] < b.sorted[j]:
			i++
		default:
			j++
		}
	}
	count := func(x, y nameSet) int {
		m := exact
		for _, f := range x.long {
			if _, found := slices.BinarySearch(y.sorted, f); found {
				continue
			}
			for _, g := range y.long {
				if f != g && CharCosine(f, g) > cosThreshold {
					m++
					break
				}
			}
		}
		return m
	}
	return (float64(count(a, b)) / float64(na)) * (float64(count(b, a)) / float64(nb))
}

// FuzzServerFileSim checks the id-based eq. (7) against the string oracle.
// Each input string is a comma-separated file list; the seeds cover short
// names, long names, duplicate entries and long-name pairs whose cosine
// sits just below, at and just above 0.8.
func FuzzServerFileSim(f *testing.F) {
	long := strings.Repeat("a", 30)
	at := strings.Repeat("a", 28) + strings.Repeat("b", 21)    // cosine to long = 0.8
	above := strings.Repeat("a", 28) + strings.Repeat("b", 20) // just above
	below := strings.Repeat("a", 28) + strings.Repeat("b", 22) // just below
	f.Add("login.php,x.gif", "login.php", uint8(25))
	f.Add("login.php,login.php,news.php", "news.php,news.php", uint8(25))
	f.Add(long+",x.gif", at+",y.gif", uint8(25))
	f.Add(long+","+long, above+",login.php", uint8(25))
	f.Add(below+",index.html", long+",index.html", uint8(25))
	f.Add(long+","+above+","+below, at+","+long, uint8(25))
	f.Add("a1b2c3d4e5f6g7h8i9j0k1l2m3n4.php,x.gif", "4n3m2l1k0j9i8h7g6f5e4d3c2b1a.php,y.gif", uint8(25))
	f.Add("abc,abd,abcd", "abd,bcd,abcd", uint8(2))
	f.Add("", "a", uint8(0))
	f.Fuzz(func(t *testing.T, a, b string, lenThreshold uint8) {
		filesA, filesB := strings.Split(a, ","), strings.Split(b, ",")
		for _, cos := range []float64{0.8, 0.5} {
			got := ServerFileSim(filesA, filesB, int(lenThreshold), cos)
			want := serverFileSimOracle(filesA, filesB, int(lenThreshold), cos)
			if got != want {
				t.Fatalf("ServerFileSim(%q, %q, %d, %g) = %g, oracle %g", filesA, filesB, lenThreshold, cos, got, want)
			}
		}
	})
}
