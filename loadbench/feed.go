package main

import (
	"fmt"
	"sort"
	"time"

	"smash/internal/cluster"
	"smash/internal/source"
	"smash/internal/synth"
	"smash/internal/trace"
)

// World scale of every workload: a synth world at 0.3 of the root
// benchmarks' bench scale, so a run fits its 100-window budget.
const (
	worldClients = 150
	worldServers = 450
	worldMeanReq = 25
	day          = 24 * time.Hour
)

// worldBase anchors day 0. It is UTC midnight, so standalone windows
// (origin = first event truncated to the stride) and cluster windows
// (origin = Unix epoch) share their boundaries.
var worldBase = time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)

// feed is one seed's generated input: every event in push order, as the
// combined access-log lines smashd parses.
type feed struct {
	reqs   []trace.Request // projected through the combined format, time-ordered
	buf    []byte          // combined-log rendering of reqs, one line each
	off    []int           // line i is buf[off[i]:off[i+1]], newline included
	part   []uint8         // ingest endpoint of each event
	days   int
	parts  int // ingest endpoints the batches are split across
	batchN int
}

// line returns event i's log line without its newline.
func (f *feed) line(i int) []byte { return f.buf[f.off[i] : f.off[i+1]-1] }

// genFeed generates `days` synth days from seed, re-stamps each day's
// events evenly across its 24 hours (keeping their order) and renders
// them as combined access-log lines. parts > 1 assigns every event to the
// ingest node its client hashes to.
func genFeed(seed int64, days, parts, batchN int) (*feed, error) {
	w, err := synth.Generate(synth.Config{
		Name: "loadbench", Seed: seed, Days: days,
		Clients: worldClients, BenignServers: worldServers, MeanRequests: worldMeanReq,
		BaseTime: worldBase,
	})
	if err != nil {
		return nil, fmt.Errorf("generate world: %w", err)
	}
	combined, err := source.New("combined", source.Options{})
	if err != nil {
		return nil, err
	}
	f := &feed{days: days, parts: parts, batchN: batchN}
	for d, t := range w.Days {
		start := worldBase.Add(time.Duration(d) * day)
		n := int64(len(t.Requests))
		for i := range t.Requests {
			r := t.Requests[i]
			r.Time = start.Add(time.Duration(int64(i) * int64(day) / n))
			f.reqs = append(f.reqs, combined.Project(r))
		}
	}
	f.off = make([]int, 1, len(f.reqs)+1)
	f.part = make([]uint8, len(f.reqs))
	for i := range f.reqs {
		f.buf = append(combined.Append(f.buf, &f.reqs[i]), '\n')
		f.off = append(f.off, len(f.buf))
		if parts > 1 {
			f.part[i] = uint8(cluster.PartitionOf(f.reqs[i].Client, parts))
		}
	}
	return f, nil
}

// batch is one push round of the feed, rendered once per ingest endpoint
// (each endpoint gets the events of its own clients).
type batch struct {
	bodies [][]byte
}

// batches cuts events [0, n) into push batches of f.batchN events.
func (f *feed) batches(n int) []batch {
	var out []batch
	for lo := 0; lo < n; lo += f.batchN {
		hi := min(lo+f.batchN, n)
		b := batch{bodies: make([][]byte, f.parts)}
		if f.parts == 1 {
			b.bodies[0] = f.buf[f.off[lo]:f.off[hi]]
		} else {
			for i := lo; i < hi; i++ {
				p := f.part[i]
				b.bodies[p] = append(b.bodies[p], f.buf[f.off[i]:f.off[i+1]]...)
			}
		}
		out = append(out, b)
	}
	return out
}

// at returns the index of the first event at or after t.
func (f *feed) at(t time.Time) int {
	return sort.Search(len(f.reqs), func(i int) bool { return !f.reqs[i].Time.Before(t) })
}

// dayEnd returns the index one past the last event of day d.
func (f *feed) dayEnd(d int) int { return f.at(worldBase.Add(time.Duration(d+1) * day)) }

// window is one detection window the generator expects smashd to emit,
// with the events [lo, hi) of the feed it assigned to it.
type window struct {
	start, end time.Time
	lo, hi     int
}

// windows lists the windows covering the first n events under a
// (size, stride) windowing anchored at worldBase, as smashd seals them.
func (f *feed) windows(n int, size, stride time.Duration) []window {
	if n == 0 {
		return nil
	}
	last := f.reqs[n-1].Time
	at := func(t time.Time) int {
		return sort.Search(n, func(i int) bool { return !f.reqs[i].Time.Before(t) })
	}
	var out []window
	for k := 0; ; k++ {
		start := worldBase.Add(time.Duration(k) * stride)
		if start.After(last) {
			break
		}
		end := start.Add(size)
		out = append(out, window{start: start, end: end, lo: at(start), hi: at(end)})
	}
	return out
}

// checkClock verifies the generator clock: every stride of every day
// holds its share of that day's events (the synth clock packed a whole
// day into its first seconds, so all sub-day strides but the first were
// empty), and consecutive windows differ.
func checkClock(f *feed, ws []window, stride time.Duration) error {
	perDay := int(day / stride)
	for d := 0; d < f.days && perDay > 1; d++ {
		dayLo := 0
		if d > 0 {
			dayLo = f.dayEnd(d - 1)
		}
		n := f.dayEnd(d) - dayLo
		for k := 0; k < perDay; k++ {
			got := ws[d*perDay+k].lo - dayLo
			if want := k * n / perDay; got < want-1 || got > want+1 {
				return fmt.Errorf("clock: day %d stride %d starts at event %d of %d, want about %d", d, k, got, n, want)
			}
		}
	}
	equal := 0
	for i := 1; i < len(ws); i++ {
		if ws[i].lo == ws[i-1].lo && ws[i].hi == ws[i-1].hi {
			return fmt.Errorf("clock: windows %d and %d hold the same events", i-1, i)
		}
		if ws[i].hi-ws[i].lo == ws[i-1].hi-ws[i-1].lo {
			equal++
		}
	}
	if len(ws) > 1 && equal*10 > len(ws)-1 {
		return fmt.Errorf("clock: %d of %d consecutive window pairs have equal request counts", equal, len(ws)-1)
	}
	return nil
}
