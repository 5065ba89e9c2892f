package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"smash/internal/core"
	"smash/internal/stream"
	"smash/internal/trace"
	"smash/internal/tracker"
)

// windowRecord mirrors the NDJSON object smashd -json prints per window.
type windowRecord struct {
	Window    int            `json:"window"`
	Start     time.Time      `json:"start"`
	End       time.Time      `json:"end"`
	Requests  int            `json:"requests"`
	Campaigns int            `json:"campaigns"`
	Aborted   bool           `json:"aborted,omitempty"`
	Deltas    []stream.Delta `json:"deltas,omitempty"`
}

// reference is the batch path: core over trace.BuildIndex of exactly the
// events the generator assigned to a window. Reports are memoised by
// event range, since the saturated and fixed-rate parts of a run share
// most windows.
type reference struct {
	f    *feed
	pipe *core.Pipeline
	mu   sync.Mutex
	memo map[[2]int]*core.Report // campaigns only: the tracker reads nothing else
}

func newReference(f *feed) *reference {
	// smashd's default detector options.
	return &reference{f: f, pipe: core.NewPipeline(), memo: make(map[[2]int]*core.Report)}
}

// fill computes the reports of ws not yet memoised, one goroutine per CPU.
func (r *reference) fill(ws []window) error {
	var todo [][2]int
	seen := make(map[[2]int]bool)
	r.mu.Lock()
	for _, w := range ws {
		k := [2]int{w.lo, w.hi}
		if _, ok := r.memo[k]; !ok && !seen[k] {
			seen[k] = true
			todo = append(todo, k)
		}
	}
	r.mu.Unlock()
	jobs := make(chan [2]int)
	var (
		wg      sync.WaitGroup
		errMu   sync.Mutex
		errMemo error
	)
	setErr := func(err error) {
		errMu.Lock()
		defer errMu.Unlock()
		if errMemo == nil {
			errMemo = err
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				t := &trace.Trace{Name: "smashd", Requests: r.f.reqs[k[0]:k[1]]}
				rep, err := r.pipe.Run(context.Background(), trace.BuildIndex(t), t.ComputeStats())
				if err != nil {
					setErr(fmt.Errorf("reference window [%d,%d): %w", k[0], k[1], err))
					continue
				}
				if n := rep.RawIndex.RequestCount; n != k[1]-k[0] {
					setErr(fmt.Errorf("reference window [%d,%d) indexes %d requests", k[0], k[1], n))
					continue
				}
				r.mu.Lock()
				r.memo[k] = &core.Report{Campaigns: rep.Campaigns, SingleClientCampaigns: rep.SingleClientCampaigns}
				r.mu.Unlock()
			}
		}()
	}
	for _, k := range todo {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	return errMemo
}

// records renders the NDJSON lines a correct smashd prints for ws, in
// order: the reference reports driven through a fresh lineage tracker.
func (r *reference) records(ws []window) ([][]byte, error) {
	if err := r.fill(ws); err != nil {
		return nil, err
	}
	tk := tracker.New()
	out := make([][]byte, len(ws))
	for i, w := range ws {
		r.mu.Lock()
		rep := r.memo[[2]int{w.lo, w.hi}]
		r.mu.Unlock()
		all := rep.AllCampaigns()
		rec := windowRecord{
			Window: i, Start: w.start, End: w.end, Requests: w.hi - w.lo,
			Campaigns: len(all),
			Deltas:    stream.DeltasFor(i, all, tk.Observe(rep)),
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		out[i] = line
	}
	return out, nil
}

// digest is the SHA-256 of window lines joined by newlines.
func digest(lines [][]byte) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write(l)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
