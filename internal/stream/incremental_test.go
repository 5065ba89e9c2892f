package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"smash/internal/core"
	"smash/internal/trace"
	"smash/internal/tracker"
)

// randomEvents fabricates a small random event stream: a handful of
// servers, clients and files spread over `spreadStrides` strides, with a
// bounded amount of out-of-order jitter so the watermark/lateness paths
// get exercised.
func randomEvents(rng *rand.Rand, n int, stride time.Duration, spreadStrides int, jitter time.Duration) []trace.Request {
	base := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
	events := make([]trace.Request, 0, n)
	cursor := time.Duration(0)
	span := stride * time.Duration(spreadStrides)
	for i := 0; i < n; i++ {
		// Mostly-increasing times with random negative jitter.
		cursor += time.Duration(rng.Int63n(int64(span)/int64(n) + 1))
		t := base.Add(cursor - time.Duration(rng.Int63n(int64(jitter)+1)))
		if t.Before(base) || i == 0 {
			// The first event anchors the window origin; keeping it (and
			// every jittered event) at or after base means no event ever
			// precedes the first window, so scratch comparisons stay
			// exact. (Events before the origin are dropped by design.)
			t = base
		}
		r := trace.Request{
			Time:     t,
			Client:   fmt.Sprintf("c%d", rng.Intn(6)),
			Host:     fmt.Sprintf("s%d.com", rng.Intn(8)),
			ServerIP: fmt.Sprintf("9.9.9.%d", rng.Intn(4)),
			Path:     fmt.Sprintf("/f%d.php", rng.Intn(5)),
			Status:   200,
		}
		if rng.Intn(4) == 0 {
			r.Query = "id=1&p=2"
		}
		if rng.Intn(5) == 0 {
			r.Referrer = fmt.Sprintf("ref%d.com", rng.Intn(3))
		}
		events = append(events, r)
	}
	return events
}

// windowFingerprints collects the (Seq, Start, End, Requests, raw-index
// fingerprint) tuple of every window, plus the delta stream.
func windowFingerprints(windows []WindowResult) []string {
	var out []string
	for _, w := range windows {
		fp := ""
		if w.Report != nil && w.Report.RawIndex != nil {
			fp = w.Report.RawIndex.Fingerprint()
		}
		out = append(out, fmt.Sprintf("w%d [%s,%s) req=%d\n%s", w.Seq, w.Start, w.End, w.Requests, fp))
	}
	return out
}

// referenceRun is a sequential, test-side model of the engine: it replays
// the admission rules (origin, seqRange, watermark sealing, partial-late
// clipping) by appending each admitted event to the slice of every open
// window containing it, the per-window model the two-piece ring must
// reproduce. Each sealed window's index is built from scratch with
// trace.BuildIndex and run through a batch detector and a fresh tracker.
func referenceRun(t *testing.T, cfg Config, events []trace.Request) ([]WindowResult, Stats) {
	t.Helper()
	det := core.New(cfg.Detector...)
	tk := tracker.New()
	var (
		out                    []WindowResult
		st                     Stats
		origin, maxTime        time.Time
		originSet, baseSet     bool
		base, nextSeal, maxSeq int64
		open                   = make(map[int64][]trace.Request)
	)
	seal := func(seq int64) {
		idx := trace.BuildIndex(&trace.Trace{Requests: open[seq]})
		delete(open, seq)
		start := origin.Add(cfg.Stride * time.Duration(seq))
		w := WindowResult{Seq: int(seq - base), Start: start, End: start.Add(cfg.Window), Requests: idx.RequestCount}
		report := &core.Report{}
		if idx.RequestCount == 0 {
			st.EmptyWindows++
		} else {
			r, err := det.RunIndex(idx, idx.ComputeStats(fmt.Sprintf("stream-w%d", w.Seq)))
			if err != nil {
				t.Fatal(err)
			}
			w.Report, report = r, r
		}
		w.Matches = tk.Observe(report)
		w.Deltas = append(retireDeltas(w.Seq, tk.RetiredNow()),
			DeltasFor(w.Seq, report.AllCampaigns(), w.Matches)...)
		out = append(out, w)
		st.Windows++
	}
	for _, r := range events {
		if !originSet {
			origin, originSet = cfg.Origin, true
			if origin.IsZero() {
				origin = r.Time.Truncate(cfg.Stride)
			}
		}
		lo, hi := seqRange(r.Time.Sub(origin), cfg.Window, cfg.Stride)
		if hi < 0 {
			st.Late++
			continue
		}
		lo = max(lo, 0)
		if !baseSet {
			base, nextSeal, maxSeq, baseSet = lo, lo, lo, true
		}
		if hi < nextSeal {
			st.Late++
			continue
		}
		st.Events++
		for s := max(lo, nextSeal); s <= hi; s++ {
			open[s] = append(open[s], r)
		}
		maxSeq = max(maxSeq, hi)
		if r.Time.After(maxTime) {
			maxTime = r.Time
		}
		for ; nextSeal <= maxSeq; nextSeal++ {
			end := origin.Add(cfg.Stride*time.Duration(nextSeal) + cfg.Window)
			if end.After(maxTime.Add(-cfg.Watermark)) {
				break
			}
			seal(nextSeal)
		}
	}
	for ; baseSet && nextSeal <= maxSeq; nextSeal++ {
		seal(nextSeal)
	}
	return out, st
}

// allDeltas flattens a window stream's deltas.
func allDeltas(windows []WindowResult) []Delta {
	var out []Delta
	for _, w := range windows {
		out = append(out, w.Deltas...)
	}
	return out
}

// TestIncrementalMatchesLegacyWindowing drives random window/stride/
// watermark/jitter configurations through the engine's two-piece stride
// ring at two random shard and worker counts, and requires output
// identical to the sequential per-window reference (referenceRun): same
// windows, same per-window raw index (fingerprinted), same lineage
// deltas, same Stats. Most configurations are non-divisible, including a
// near-coprime one whose gcd(window, stride) is one nanosecond.
func TestIncrementalMatchesLegacyWindowing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		var stride, window time.Duration
		switch {
		case trial < 12:
			// Ten-minute multiples; every fourth window ends mid-stride.
			stride = time.Duration(1+rng.Intn(4)) * 10 * time.Minute
			if trial%4 == 3 {
				window = stride*time.Duration(1+rng.Intn(3)) + stride/2
			} else {
				window = stride * time.Duration(1+rng.Intn(4))
			}
		case trial == 12:
			// gcd = 1ns: a pane cut would need 3.6e12 fragments per window.
			window, stride = time.Hour, time.Hour-time.Nanosecond
		case trial == 13:
			// gcd = 1m: a pane cut would need 60 fragments per window.
			window, stride = time.Hour, 59*time.Minute
		default:
			stride = time.Duration(1+rng.Intn(6)) * 7 * time.Minute
			window = stride * time.Duration(1+rng.Intn(4))
			if trial%2 == 0 {
				window += time.Duration(1 + rng.Int63n(int64(stride)-1))
			}
		}
		watermark := time.Duration(rng.Intn(3)) * 7 * time.Minute
		jitter := time.Duration(rng.Intn(3)) * 11 * time.Minute
		events := randomEvents(rng, 120+rng.Intn(200), stride, 6+rng.Intn(6), jitter)
		name := fmt.Sprintf("trial%d_w%v_s%v_wm%v_j%v", trial, window, stride, watermark, jitter)

		t.Run(name, func(t *testing.T) {
			cfg := Config{Window: window, Stride: stride, Watermark: watermark}
			wantW, wantStats := referenceRun(t, cfg, events)
			for run := 0; run < 2; run++ {
				cfg.Shards, cfg.Workers = 1+rng.Intn(4), 1+rng.Intn(3)
				eng, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				gotW := collect(t, eng, &SliceSource{Requests: events})
				if eng.Stats() != wantStats {
					t.Errorf("shards=%d workers=%d: stats diverge: engine %+v, reference %+v",
						cfg.Shards, cfg.Workers, eng.Stats(), wantStats)
				}
				got, want := windowFingerprints(gotW), windowFingerprints(wantW)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d workers=%d: window streams diverge:\nengine:\n%v\nreference:\n%v",
						cfg.Shards, cfg.Workers, got, want)
				}
				if !reflect.DeepEqual(allDeltas(gotW), allDeltas(wantW)) {
					t.Errorf("shards=%d workers=%d: delta streams diverge", cfg.Shards, cfg.Workers)
				}
			}
		})
	}
}

// TestIncrementalIndexMatchesScratchBuild is the direct "rolling merged
// index equals BuildIndex of the window's events" assertion: with a
// watermark generous enough that nothing is dropped, every emitted
// window's raw index must fingerprint-equal an index built from scratch
// over exactly the events in [Start, End), for divisible and
// non-divisible strides alike.
func TestIncrementalIndexMatchesScratchBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 16; trial++ {
		stride := time.Duration(1+rng.Intn(3)) * 15 * time.Minute
		k := 1 + rng.Intn(4)
		window := stride * time.Duration(k)
		jitter := time.Duration(rng.Intn(2)) * 9 * time.Minute
		events := randomEvents(rng, 100+rng.Intn(150), stride, 5+rng.Intn(5), jitter)
		name := fmt.Sprintf("trial%d_k%d", trial, k)
		if trial >= 8 {
			// Non-divisible: the window ends at an arbitrary nanosecond
			// inside a stride.
			r := time.Duration(1 + rng.Int63n(int64(stride)-1))
			window += r
			name += fmt.Sprintf("_r%v", r)
		}

		t.Run(name, func(t *testing.T) {
			eng, err := New(Config{
				Window: window, Stride: stride,
				// Larger than any jitter: no event is ever late-dropped,
				// so window contents are exactly the time-range slice.
				Watermark: 24 * time.Hour,
				Shards:    1 + rng.Intn(4),
			})
			if err != nil {
				t.Fatal(err)
			}
			windows := collect(t, eng, &SliceSource{Requests: events})
			if eng.Stats().Late != 0 {
				t.Fatalf("unexpected late drops: %+v", eng.Stats())
			}
			if len(windows) == 0 {
				t.Fatal("no windows emitted")
			}
			for _, w := range windows {
				var scratch trace.Trace
				for _, r := range events {
					if !r.Time.Before(w.Start) && r.Time.Before(w.End) {
						scratch.Requests = append(scratch.Requests, r)
					}
				}
				if w.Requests != len(scratch.Requests) {
					t.Fatalf("window %d holds %d requests, scratch slice has %d",
						w.Seq, w.Requests, len(scratch.Requests))
				}
				if w.Report == nil {
					continue // empty window
				}
				want := trace.BuildIndex(&scratch).Fingerprint()
				if got := w.Report.RawIndex.Fingerprint(); got != want {
					t.Errorf("window %d: rolling index diverges from scratch build:\n got: %s\nwant: %s",
						w.Seq, got, want)
				}
			}
		})
	}
}

// TestSymbolRotationInvisible runs the same stream with aggressive
// symbol-table rotation (every window) and with rotation disabled, for a
// divisible and a non-divisible window, and requires identical output —
// the id hygiene invariant: epochs change id assignment, never reports.
func TestSymbolRotationInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	stride := 20 * time.Minute
	events := randomEvents(rng, 260, stride, 10, 15*time.Minute)
	for _, window := range []time.Duration{3 * stride, 3*stride + stride/3} {
		run := func(rotateEvery int) ([]WindowResult, *Engine) {
			eng, err := New(Config{
				Window: window, Stride: stride, Watermark: 20 * time.Minute,
				Shards: 3, Workers: 2, RotateSymbolsEvery: rotateEvery,
			})
			if err != nil {
				t.Fatal(err)
			}
			return collect(t, eng, &SliceSource{Requests: events}), eng
		}
		rotW, rotE := run(1)
		offW, offE := run(-1)
		if rotE.Stats() != offE.Stats() {
			t.Errorf("window=%v: stats diverge under rotation: %+v vs %+v",
				window, rotE.Stats(), offE.Stats())
		}
		if !reflect.DeepEqual(windowFingerprints(rotW), windowFingerprints(offW)) {
			t.Errorf("window=%v: symbol rotation changed window output", window)
		}
		if !reflect.DeepEqual(deltaSummary(rotW), deltaSummary(offW)) {
			t.Errorf("window=%v: symbol rotation changed delta stream", window)
		}
	}
}
