package stream

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"smash/internal/core"
	"smash/internal/obs"
	"smash/internal/trace"
	"smash/internal/tracker"
)

// Committer is the window commit path shared by the Engine and the
// cluster Aggregator: detection of a sealed window's index, lineage
// tracking with appear/persist/rotate/retire deltas, and the sinks. It
// owns the commit path's observability: the "detect", "detect:<stage>"
// and per-sink spans, and the smash_window_detect_seconds,
// smash_pipeline_stage_seconds and smash_sink_consume_seconds histograms.
//
// Detect is safe for concurrent use (the engine runs it from a worker
// pool); Commit must be called from one goroutine, in window order.
type Committer struct {
	name      string
	indexOnly bool
	det       *core.Detector
	tk        *tracker.Tracker
	sinks     []Sink
	tr        *obs.Tracer
	log       *slog.Logger

	detect *obs.Histogram // nil-safe: all instruments no-op without Metrics
	stage  map[string]*obs.Histogram
	sink   map[string]*obs.Histogram
}

// NewCommitter builds the commit path from cfg's commit fields: Name,
// Detector, Tracker (default tracker.New()), Sinks, IndexOnly, Metrics,
// Tracer and Logger. The windowing fields are ignored.
func NewCommitter(cfg Config) *Committer {
	c := &Committer{
		name:      cfg.Name,
		indexOnly: cfg.IndexOnly,
		det:       core.New(cfg.Detector...),
		tk:        cfg.Tracker,
		sinks:     cfg.Sinks,
		tr:        cfg.Tracer,
		log:       cfg.Logger,
	}
	if c.tk == nil {
		c.tk = tracker.New()
	}
	if c.log == nil {
		c.log = obs.Discard()
	}
	if reg := cfg.Metrics; reg != nil {
		c.detect = reg.Histogram("smash_window_detect_seconds",
			"Wall-clock running the detection pipeline, per window.")
		c.stage = make(map[string]*obs.Histogram)
		for _, s := range core.StageNames() {
			c.stage[s] = reg.Histogram("smash_pipeline_stage_seconds",
				"Wall-clock per detection pipeline stage run.", "stage", s)
		}
		c.sink = make(map[string]*obs.Histogram)
		for _, s := range cfg.Sinks {
			name := sinkName(s)
			c.sink[name] = reg.Histogram("smash_sink_consume_seconds",
				"Wall-clock per sink consume on the window commit path.", "sink", name)
		}
	}
	return c
}

// Tracker returns the lineage tracker Commit feeds.
func (c *Committer) Tracker() *tracker.Tracker { return c.tk }

// Detect runs the detection pipeline over window seq's index. It returns
// a nil report for index-only committers, empty windows and failed or
// cancelled runs. The error is the one to record: a context error as is,
// any other failure logged and wrapped with the window seq.
func (c *Committer) Detect(ctx context.Context, seq int, idx *trace.Index) (*core.Report, error) {
	if c.indexOnly || idx.RequestCount == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		// Hard shutdown: don't pay ComputeStats for a run that would
		// abort before its first stage.
		return nil, err
	}
	var extra []core.Observer
	if c.tr != nil || c.stage != nil {
		extra = []core.Observer{&stageTraceObserver{tr: c.tr, stages: c.stage, seq: int64(seq)}}
	}
	t0 := time.Now()
	report, err := c.det.RunIndexContext(ctx, idx, idx.ComputeStats(fmt.Sprintf("%s-w%d", c.name, seq)), extra...)
	d := time.Since(t0)
	if c.tr != nil {
		attrs := []string(nil)
		if err != nil {
			attrs = []string{"error", err.Error()}
		}
		c.tr.Record(int64(seq), "detect", t0, d, attrs...)
	}
	c.detect.Observe(d.Seconds())
	switch {
	case err == nil:
		return report, nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return nil, err
	default:
		c.log.Error("window detection failed", "window", seq, "err", err)
		return nil, fmt.Errorf("stream: window %d: %w", seq, err)
	}
}

// Commit tracks one in-order window and feeds it to every sink. Unless
// the committer is index-only, res.Report is observed by the tracker (an
// empty report when nil, so lineage day arithmetic stays aligned with the
// window sequence) and res.Matches and res.Deltas are filled in. Sink
// failures are logged; the first is returned, and the remaining sinks
// still run.
func (c *Committer) Commit(res *WindowResult) error {
	if !c.indexOnly {
		report := res.Report
		if report == nil {
			report = &core.Report{}
		}
		res.Matches = c.tk.Observe(report)
		// Retirements happened inside Observe before matching, so retire
		// deltas lead the window's transition list.
		res.Deltas = append(retireDeltas(res.Seq, c.tk.RetiredNow()),
			DeltasFor(res.Seq, report.AllCampaigns(), res.Matches)...)
	}
	var first error
	for _, s := range c.sinks {
		name := sinkName(s)
		t0 := time.Now()
		err := s.Consume(res)
		d := time.Since(t0)
		c.tr.Record(int64(res.Seq), name, t0, d)
		c.sink[name].Observe(d.Seconds())
		if err != nil {
			c.log.Error("sink failed", "window", res.Seq, "sink", name, "err", err)
			if first == nil {
				first = fmt.Errorf("stream: sink: %w", err)
			}
		}
	}
	return first
}

// stageTraceObserver is a core.Observer bound to one window: every
// finished pipeline stage is recorded as a "detect:<stage>" span on tr
// and observed in the per-stage histogram family. Both tr and stages may
// be nil.
type stageTraceObserver struct {
	tr     *obs.Tracer
	stages map[string]*obs.Histogram
	seq    int64
}

func (o *stageTraceObserver) StageStart(string, int) {}

func (o *stageTraceObserver) StageEnd(res core.StageResult) {
	if o.tr != nil {
		attrs := []string(nil)
		if res.Err != nil {
			attrs = []string{"error", res.Err.Error()}
		}
		o.tr.Record(o.seq, "detect:"+res.Stage,
			time.Now().Add(-res.Duration), res.Duration, attrs...)
	}
	o.stages[res.Stage].Observe(res.Duration.Seconds())
}
