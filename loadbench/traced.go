package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"smash/internal/core"
	"smash/internal/herd"
	"smash/internal/similarity"
	"smash/internal/source"
	"smash/internal/store"
	"smash/internal/stream"
	"smash/internal/trace"
	"smash/internal/tracker"
	"smash/internal/wire"
)

// span is one timed call into a layer's public API during the traced
// run. All spans of one window carry its seq; Parent is the enclosing
// span's ID (-1 at top level). Items counts what the call processed:
// events for parse and add, servers for a dimension build, herds for a
// mining call, bytes for the wire codec.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Window int    `json:"window"`
	Name   string `json:"name"`
	Dim    string `json:"dim,omitempty"`
	Probe  bool   `json:"probe,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int    `json:"items,omitempty"`
}

// recorder keeps spans in memory. The run is serial, so open spans form
// a stack. A recorder with on=false is the no-op recorder of the
// untraced pass.
type recorder struct {
	on     bool
	t0     time.Time
	window int
	spans  []span
	open   []int
}

func (r *recorder) begin(name, dim string) int {
	if !r.on {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Window: r.window, Name: name, Dim: dim, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id, items int) {
	if !r.on {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.spans[id].Items = items
	r.open = r.open[:len(r.open)-1]
}

// mineDims are the dimensions core.Pipeline mines for smashd's default
// options, main dimension first.
var mineDims = []string{similarity.DimClient, similarity.DimFile, similarity.DimIP}

// tracedDim wraps a dimension so each Build is a span.
type tracedDim struct {
	herd.Dimension
	rec   *recorder
	sizes map[string][2]int // dimension -> summed servers, edges
}

func (d tracedDim) Build(idx *trace.Index) *similarity.ServerGraph {
	id := d.rec.begin("similarity.Build", d.Name())
	sg := d.Dimension.Build(idx)
	d.rec.end(id, sg.G.N())
	s := d.sizes[d.Name()]
	d.sizes[d.Name()] = [2]int{s[0] + sg.G.N(), s[1] + sg.G.EdgeCount()}
	return sg
}

// tracedPass is one serial replay of the first n windows of a workload.
type tracedPass struct {
	events  int
	windows int
	wall    time.Duration
	herds   map[string]int
	sizes   map[string][2]int
	servers []float64 // raw index servers per window
	records [][]byte  // window records, as smashd would print them
	alloc   float64   // heap bytes allocated
	gcFrac  float64   // share of CPU spent in GC
}

// replay runs the pipeline the way smashd does for workload w over the
// feed, window by window, with spans at the coarsest stable public entry
// points: source parse, trace.Index Add and Merge, each core stage (the
// mine stage rebuilt from herd's public miner so each dimension build and
// herd.MineGraph is a span), tracker.Observe, store.Consume and, for the
// tree, the wire codec at each hop. After each window, graph.Louvain is
// re-run on every dimension graph as a probe span, outside traced time,
// to split herd.MineGraph into Louvain and density.
// strideEnd[s] is one past the last event of stride s.
func replay(w *workload, f *feed, strideEnd []int, ws []window, stateDir string, rec *recorder) (*tracedPass, error) {
	ctx := context.Background()
	combined, err := source.New("combined", source.Options{})
	if err != nil {
		return nil, err
	}
	st, err := store.Open(store.Config{Dir: stateDir})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	pipe := core.NewPipeline()
	sizes := make(map[string][2]int)
	dims := []herd.Dimension{
		tracedDim{herd.ClientDimension(similarity.Options{}), rec, sizes},
		tracedDim{herd.FileDimension(similarity.Options{}), rec, sizes},
		tracedDim{herd.IPDimension(similarity.Options{}), rec, sizes},
	}
	miner, err := herd.NewMiner(dims[0], dims[1:], 1)
	if err != nil {
		return nil, err
	}
	herds := make(map[string]int)
	miner.SetMineFunc(func(dim string, sg *similarity.ServerGraph, seed int64) []herd.ASH {
		id := rec.begin("herd.MineGraph", dim)
		out := herd.MineGraph(dim, sg, seed)
		rec.end(id, len(out))
		herds[dim] += len(out)
		return out
	})
	tk := tracker.New()
	parts := 1
	if w.tree {
		parts = 2
	}
	syms := make([]*trace.Symbols, parts)
	for p := range syms {
		syms[p] = trace.NewSymbols()
	}
	k := int(w.size / w.stride) // strides per window
	frags := make(map[int][]*trace.Index)
	pass := &tracedPass{herds: herds, sizes: sizes}

	runtime.GC()
	before := readRuntime()
	start := time.Now()
	next := 0 // next event to ingest
	reqs := make([]trace.Request, 0, f.batchN)
	for seq, win := range ws {
		rec.window = seq
		// Ingest every stride this window spans that is not in yet.
		for s := seq; s < seq+k; s++ {
			if _, ok := frags[s]; ok {
				continue
			}
			fr := make([]*trace.Index, parts)
			for p := range fr {
				fr[p] = trace.NewIndexWith(syms[p])
			}
			frags[s] = fr
			for next < strideEnd[s] {
				hi := min(next+f.batchN, strideEnd[s])
				id := rec.begin("source.Parse", "")
				reqs = reqs[:0]
				for i := next; i < hi; i++ {
					r, err := combined.Parse(string(f.line(i)))
					if err != nil {
						return nil, fmt.Errorf("parse event %d: %w", i, err)
					}
					reqs = append(reqs, r)
				}
				rec.end(id, hi-next)
				id = rec.begin("trace.Index.Add", "")
				for i := range reqs {
					fr[f.part[next+i]].Add(&reqs[i])
				}
				rec.end(id, hi-next)
				pass.events += hi - next
				next = hi
			}
		}

		// Seal: the expired stride fragment becomes the window index and
		// the still-live ones merge on top (the engine's ring); a tree
		// ships each node's fragment through the merge tier to the root.
		var idx *trace.Index
		if !w.tree {
			idx = frags[seq][0]
			if k > 1 {
				id := rec.begin("trace.Index.Merge", "")
				for s := seq + 1; s < seq+k; s++ {
					idx.Merge(frags[s][0])
				}
				rec.end(id, k-1)
			}
		} else {
			if idx, err = shipTree(frags[seq], win, seq, rec); err != nil {
				return nil, err
			}
		}
		delete(frags, seq)
		if idx.RequestCount != win.hi-win.lo {
			return nil, fmt.Errorf("traced window %d indexes %d requests, the generator assigned %d", seq, idx.RequestCount, win.hi-win.lo)
		}
		pass.servers = append(pass.servers, float64(len(idx.Servers)))

		id := rec.begin("trace.Index.ComputeStats", "")
		stats := idx.ComputeStats(fmt.Sprintf("smashd-w%d", seq))
		rec.end(id, 0)
		state := &core.State{Raw: idx, Stats: stats}
		for _, stage := range pipe.Stages() {
			id := rec.begin("core."+stage.Name, "")
			if stage.Name == core.StageMine {
				err = mine(ctx, miner, state)
			} else {
				err = stage.Run(ctx, state)
			}
			rec.end(id, 0)
			if err != nil {
				return nil, fmt.Errorf("traced window %d: %s: %w", seq, stage.Name, err)
			}
		}
		rep := state.Report

		id = rec.begin("tracker.Observe", "")
		matches := tk.Observe(rep)
		rec.end(id, len(matches))
		all := rep.AllCampaigns()
		res := &stream.WindowResult{
			Seq: seq, Start: win.start, End: win.end, Requests: idx.RequestCount,
			Report: rep, Matches: matches, Deltas: stream.DeltasFor(seq, all, matches),
		}
		id = rec.begin("store.Consume", "")
		err = st.Consume(res)
		rec.end(id, 0)
		if err != nil {
			return nil, fmt.Errorf("traced window %d: store: %w", seq, err)
		}
		line, err := json.Marshal(windowRecord{
			Window: seq, Start: win.start, End: win.end, Requests: res.Requests,
			Campaigns: len(all), Deltas: res.Deltas,
		})
		if err != nil {
			return nil, err
		}
		pass.records = append(pass.records, line)
		pass.windows++

		if rec.on {
			for _, dim := range mineDims {
				id := rec.begin("graph.Louvain", dim)
				rec.spans[id].Probe = true
				rec.end(id, len(rep.Mined.Graphs[dim].G.Louvain(1)))
			}
		}
	}
	pass.wall = time.Since(start)
	after := readRuntime()
	pass.alloc = after[0] - before[0]
	if cpu := after[2] - before[2]; cpu > 0 {
		pass.gcFrac = (after[1] - before[1]) / cpu
	}
	return pass, nil
}

// mine is core's mine stage over herd's public miner: serial, with the
// traced dimensions and mining function.
func mine(ctx context.Context, miner *herd.Miner, st *core.State) error {
	mined, err := miner.MineContext(ctx, st.Index, 1)
	if err != nil {
		return err
	}
	st.Mined = mined
	st.Report.Mined = mined
	st.Report.MainHerds = len(mined.Main)
	for dim, h := range mined.Secondary {
		st.Report.SecondaryHerds[dim] = len(h)
	}
	return nil
}

// shipTree carries one window through the tree: each ingest node encodes
// its fragment, the merge tier decodes and merges them and encodes the
// result, and the root decodes that and merges it into a fresh index.
func shipTree(nodeFrags []*trace.Index, win window, seq int, rec *recorder) (*trace.Index, error) {
	hop := func(node string, idx *trace.Index) (*trace.Index, error) {
		id := rec.begin("wire.EncodeFragment", "")
		data := wire.EncodeFragment(&wire.Fragment{Node: node, Window: int64(seq), Start: win.start, End: win.end, Index: idx})
		rec.end(id, len(data))
		id = rec.begin("wire.DecodeFragment", "")
		frag, err := wire.DecodeFragment(data)
		rec.end(id, len(data))
		if err != nil {
			return nil, fmt.Errorf("window %d from %s: %w", seq, node, err)
		}
		return frag.Index, nil
	}
	merge := func(in ...*trace.Index) *trace.Index {
		id := rec.begin("trace.Index.Merge", "")
		out := trace.NewIndex()
		for _, idx := range in {
			out.Merge(idx)
		}
		rec.end(id, len(in))
		return out
	}
	var got []*trace.Index
	for p, idx := range nodeFrags {
		d, err := hop(fmt.Sprintf("ingest%d", p), idx)
		if err != nil {
			return nil, err
		}
		got = append(got, d)
	}
	root, err := hop("merge0", merge(got...))
	if err != nil {
		return nil, err
	}
	return merge(root), nil
}

// readRuntime samples cumulative heap allocation, GC CPU and total CPU.
func readRuntime() [3]float64 {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out [3]float64
	for i, v := range s {
		switch v.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(v.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = v.Value.Float64()
		}
	}
	return out
}

// writeSpans writes the recorded spans as NDJSON.
func writeSpans(path string, spans []span) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(file)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			file.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
