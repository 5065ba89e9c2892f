package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// scraped sets the per-layer metrics read from smashd's /metrics at the
// end of the fixed-rate part. scrapes maps process name to its samples;
// "standalone" or "root" prints the results.
func (r *run) scraped(scrapes map[string]map[string]float64) {
	root := scrapes["standalone"]
	windows := total("smash_engine_windows_total", root)
	if r.w.tree {
		root = scrapes["root"]
		windows = total("smash_cluster_windows_total", root)
	}
	var all, ingest, tiers []map[string]float64
	for name, s := range scrapes {
		all = append(all, s)
		switch {
		case strings.HasPrefix(name, "ingest"):
			ingest = append(ingest, s)
		case name == "merge0" || name == "root":
			tiers = append(tiers, s)
		}
	}
	n := len(scrapes)
	r.set("stream.windows", windows, "count", 1)
	r.set("stream.late_events", total("smash_engine_late_events_total", all...), "count", n)
	r.set("stream.detect_ms_mean", histMeanMs("smash_window_detect_seconds", root), "ms", 1)
	r.set("stream.seal_commit_ms_mean", histMeanMs("smash_seal_commit_seconds", root), "ms", 1)
	r.set("runtime.gc_cycles", total("smash_go_gcs_total", all...), "count", n)
	r.set("runtime.gc_pause_ms_total", 1000*total("smash_go_gc_pause_seconds_total", all...), "ms", n)
	forwarders := ingest
	if merge, ok := scrapes["merge0"]; ok {
		forwarders = append(forwarders, merge)
	}
	r.set("cluster.forward_post_ms_mean", histMeanMs("smash_forward_post_seconds", forwarders...), "ms", len(forwarders))
	r.set("cluster.fragment_wait_ms_mean", histMeanMs("smash_cluster_fragment_wait_seconds", tiers...), "ms", len(tiers))
	r.set("cluster.forward_retries", total("smash_forward_retries_total", all...), "count", n)
}

// layerOf names the layer a span's self time belongs to.
var layerOf = map[string]string{
	"source.Parse":             "source",
	"trace.Index.Add":          "trace",
	"trace.Index.Merge":        "trace",
	"trace.Index.ComputeStats": "trace",
	"core.preprocess":          "core.preprocess",
	"core.mine":                "core.mine",
	"similarity.Build":         "similarity",
	"herd.MineGraph":           "herd",
	"graph.Louvain":            "graph",
	"core.correlate":           "core.correlate",
	"core.prune":               "core.prune",
	"core.infer":               "core.infer",
	"tracker.Observe":          "tracker",
	"store.Consume":            "store",
	"wire.EncodeFragment":      "wire",
	"wire.DecodeFragment":      "wire",
}

// layers in the order the metric table prints them.
var layers = []string{"source", "trace", "core.preprocess", "core.mine", "similarity", "graph", "herd",
	"core.correlate", "core.prune", "core.infer", "tracker", "store", "wire"}

// replayTraced runs the traced replay twice over the first windows of
// the feed — with the no-op recorder, then recording spans — checks both
// against the reference, writes the spans as NDJSON and sets the
// per-layer metrics.
func (r *run) replayTraced(wsAll []window, want [][]byte) error {
	w := r.w
	ws := wsAll[:min(tracedWindows, len(wsAll))]
	// The replay reads only log lines and stride boundaries: drop the
	// parsed feed and the reference first, so the generator's own live
	// heap does not inflate the replay's GC work.
	k := int(w.size / w.stride)
	strideEnd := make([]int, len(ws)+k)
	for s := range strideEnd {
		strideEnd[s] = r.f.at(worldBase.Add(time.Duration(s+1) * w.stride))
	}
	r.f.reqs, r.ref = nil, nil
	stateDir := func(name string) string {
		if !w.stateDir {
			return ""
		}
		return filepath.Join(r.dir, name)
	}
	// Untraced, traced, traced, untraced: the order cancels a linear
	// drift (heap growth, page cache) out of the overhead estimate.
	var (
		passes [4]*tracedPass
		recs   [4]*recorder
	)
	for i := range passes {
		recs[i] = &recorder{on: i == 1 || i == 2, t0: time.Now()}
		p, err := replay(w, r.f, strideEnd, ws, stateDir(fmt.Sprintf("replay%d", i)), recs[i])
		if err != nil {
			return err
		}
		r.compare("traced replay", stampedOf(p.records), want[:len(ws)])
		passes[i] = p
	}
	fmt.Fprintf(os.Stderr, "loadbench: replay passes (untraced, traced, traced, untraced) %v %v %v %v\n",
		passes[0].wall, passes[1].wall, passes[2].wall, passes[3].wall)
	// The per-layer numbers come from the second, warmer traced pass.
	plain, traced, rec := passes[3], passes[2], recs[2]
	if err := os.MkdirAll(filepath.Dir(r.dir), 0o755); err != nil {
		return err
	}
	spanLog := filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("spans-%s-%d.ndjson", w.name, r.seed))
	if err := writeSpans(spanLog, rec.spans); err != nil {
		return err
	}
	fmt.Printf("traced replay: %d spans in %s\n", len(rec.spans), spanLog)

	// Durations and self times per span name (and dimension).
	spans := rec.spans
	dur := func(s *span) time.Duration { return time.Duration(s.End - s.Start) }
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] = dur(&spans[i])
		if p := spans[i].Parent; p >= 0 {
			self[p] -= dur(&spans[i])
		}
	}
	byName := make(map[string]time.Duration)
	items := make(map[string]int)
	calls := make(map[string]int)
	layerSelf := make(map[string]time.Duration)
	var tracedTotal time.Duration
	for i := range spans {
		s := &spans[i]
		key := s.Name
		if s.Dim != "" {
			key += "." + s.Dim
		}
		byName[key] += dur(s)
		items[key] += s.Items
		calls[key]++
		if s.Probe {
			// The probe re-runs the Louvain inside herd.MineGraph: move
			// that much self time from herd to graph.
			layerSelf["graph"] += dur(s)
			layerSelf["herd"] -= dur(s)
			continue
		}
		layerSelf[layerOf[s.Name]] += self[i]
		if s.Parent < 0 {
			tracedTotal += dur(s)
		}
	}

	nw := float64(traced.windows)
	perWindow := func(d time.Duration) float64 { return ms(d) / nw }
	perItem := func(key string) float64 {
		if items[key] == 0 {
			return 0
		}
		return float64(byName[key].Nanoseconds()) / float64(items[key])
	}
	perCall := func(key string) float64 {
		if calls[key] == 0 {
			return 0
		}
		return ms(byName[key]) / float64(calls[key])
	}
	nt := traced.windows
	r.set("source.parse_ns_per_event", perItem("source.Parse"), "ns", items["source.Parse"])
	r.set("trace.add_ns_per_event", perItem("trace.Index.Add"), "ns", items["trace.Index.Add"])
	r.set("trace.merge_ms_per_window", perWindow(byName["trace.Index.Merge"]), "ms", nt)
	for _, stage := range []string{"preprocess", "mine", "correlate", "prune", "infer"} {
		r.set("core."+stage+"_ms_per_window", perWindow(byName["core."+stage]), "ms", nt)
	}
	for _, d := range mineDims {
		louvain := byName["graph.Louvain."+d]
		r.set("similarity.build_ms."+d, perWindow(byName["similarity.Build."+d]), "ms", nt)
		r.set("graph.louvain_ms."+d, perWindow(louvain), "ms", nt)
		r.set("herd.density_ms."+d, perWindow(byName["herd.MineGraph."+d]-louvain), "ms", nt)
		r.set("similarity.servers."+d, float64(traced.sizes[d][0])/nw, "count", nt)
		r.set("similarity.edges."+d, float64(traced.sizes[d][1])/nw, "count", nt)
		r.set("herd.herds."+d, float64(traced.herds[d])/nw, "count", nt)
	}
	r.set("tracker.observe_ms_per_window", perWindow(byName["tracker.Observe"]), "ms", nt)
	r.set("store.consume_ms_per_window", perWindow(byName["store.Consume"]), "ms", nt)
	r.set("wire.encode_ms_per_fragment", perCall("wire.EncodeFragment"), "ms", calls["wire.EncodeFragment"])
	r.set("wire.decode_ms_per_fragment", perCall("wire.DecodeFragment"), "ms", calls["wire.DecodeFragment"])
	bytesPer := 0.0
	if c := calls["wire.EncodeFragment"]; c > 0 {
		bytesPer = float64(items["wire.EncodeFragment"]) / float64(c)
	}
	r.set("wire.bytes_per_fragment", bytesPer, "bytes", calls["wire.EncodeFragment"])
	r.set("trace.window_servers_p50", quantile(traced.servers, 0.5), "count", nt)
	r.set("runtime.alloc_bytes_per_event", plain.alloc/float64(plain.events), "bytes", plain.events)
	r.set("runtime.gc_cpu_fraction", plain.gcFrac, "fraction", 1)
	untracedWall := passes[0].wall + passes[3].wall
	tracedWall := passes[1].wall + passes[2].wall - probeTime(recs[1].spans) - probeTime(recs[2].spans)
	r.set("baseline.serial_events_per_s", float64(2*plain.events)/untracedWall.Seconds(), "events/s", 2*plain.events)
	r.set("tracing.overhead_pct", 100*(tracedWall-untracedWall).Seconds()/untracedWall.Seconds(), "%", 4)
	for _, l := range layers {
		r.set("self_ms_per_window."+l, perWindow(layerSelf[l]), "ms", nt)
		r.set("share_pct."+l, 100*layerSelf[l].Seconds()/tracedTotal.Seconds(), "%", nt)
	}
	r.set("share_pct.intake", 100*(byName["source.Parse"]+byName["trace.Index.Add"]).Seconds()/tracedTotal.Seconds(), "%", nt)
	r.set("share_pct.core.mine_total", 100*byName["core.mine"].Seconds()/tracedTotal.Seconds(), "%", nt)
	return nil
}

// probeTime sums the probe spans, which lie outside traced time.
func probeTime(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Probe {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

func stampedOf(lines [][]byte) []stamped {
	out := make([]stamped, len(lines))
	for i, l := range lines {
		out[i] = stamped{line: l}
	}
	return out
}
