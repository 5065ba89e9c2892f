// Command loadbench is smash's end-to-end benchmark. It builds nothing
// itself: run.sh builds smashd and this generator, then runs
//
//	loadbench --workload tumbling|sliding|tree --seed N --seconds S --trace 0|1
//
// One run generates a seeded synth feed, launches the workload's smashd
// processes, pushes the feed to them as combined access-log lines over
// POST /v1/ingest — first closed-loop (saturated, three times), then
// open-loop at a fixed rate, on sliding with a query mix alongside —
// stamps every window result smashd prints, checks each window against
// the batch-path reference, and prints every metric by name with its
// unit and sample count. The last stdout line is one JSON object:
// correct, attempted, failed and the metrics (end-to-end ones with
// --trace 0; per-layer ones, which add an in-process traced replay, with
// --trace 1). README.md has the metric -> layer -> workload table.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// workload is one traffic mix against one smashd deployment.
type workload struct {
	name         string
	size, stride time.Duration
	tree         bool // two ingest nodes -> merge tier -> aggregate root
	stateDir     bool // every process gets a -state-dir
	queries      bool // the fixed-rate part sends the query mix alongside
	days         int  // days the fixed-rate part pushes: at least minWindows windows
	// capacity is the saturated events_per_s the workload measured at
	// the commit that defined this benchmark. It sizes the saturated part
	// and sets the fixed rate.
	capacity float64
}

var workloads = []*workload{
	{name: "tumbling", size: day, stride: day, days: 100, capacity: 76000},
	{name: "sliding", size: day, stride: 6 * time.Hour, stateDir: true, queries: true, days: 50, capacity: 36000},
	{name: "tree", size: day, stride: day, tree: true, stateDir: true, days: 100, capacity: 45000},
}

// rate is the fixed-rate part's offered load in events per second.
func (w *workload) rate() float64 { return loadShare * w.capacity }

const (
	// loadShare is the fixed-rate part's share of capacity. A change
	// that costs more than the rest of the capacity shows as a growing
	// backlog in the window latencies.
	loadShare = 0.6

	batchEvents   = 250  // events per POST
	queryRate     = 40.0 // open-loop queries per second in the fixed-rate part
	setupRuns     = 10   // extra deployments per run, launched only to time set-up
	satReps       = 3    // repetitions of the saturated part
	minWindows    = 100  // fixed-rate windows, so ten lie beyond p90
	tracedWindows = 40   // windows the traced replay covers
	failedMs      = 1e6  // latency charged to a failed request
)

// endToEnd names the metrics gated with a bound in BENCHMARK.json. The
// throughput and latency metrics are measured in every run but reported
// with the per-layer metrics: on a shared 2-vCPU host they moved with
// other tenants' load (CPU steal) by more than any usable bound between
// runs of unchanged code. CPU time, memory and set-up moved less.
var endToEnd = []string{"cpu_ms_per_kevent", "peak_rss_mb", "setup_s"}

// digests holds, per workload, the SHA-256 of the window lines smashd
// printed in the fixed-rate part for seed digestSeed at the commit that
// defined this benchmark.
//
//go:embed digests.json
var digestsJSON []byte

const digestSeed = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(benchmain(os.Args[1:])) }

// benchmain runs one benchmark run and returns the exit code: 0 once
// the result line is printed, 1 when the run could not finish, 2 for
// bad flags.
func benchmain(args []string) int {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: tumbling, sliding or tree")
	seed := fs.Int64("seed", digestSeed, "seed of the generated feed")
	seconds := fs.Int("seconds", 12, "seconds the saturated part's repetitions last together at the workload's capacity")
	traced := fs.Int("trace", 0, "1 adds the traced replay and reports per-layer metrics instead of end-to-end ones")
	bin := fs.String("smashd", filepath.Join(".bench_build", "bin", "smashd"), "smashd binary")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "directory for state dirs and span logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "loadbench: need --workload tumbling|sliding|tree, --seconds >= 1 and --trace 0|1")
		return 2
	}
	// SIGINT or SIGTERM cancels the run, so the smashd processes are
	// still stopped and reaped below.
	sctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(sctx, 170*time.Second)
	defer cancel()
	r := &run{w: w, seed: *seed, seconds: *seconds, bin: *bin, traced: *traced == 1,
		metrics: make(map[string]metric), samples: make(map[string]int)}
	r.dir = filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	err := r.execute(ctx)
	for _, dep := range r.deps {
		dep.kill()
	}
	os.RemoveAll(r.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		return 1
	}
	r.print()
	return 0
}

// run is one benchmark run: its inputs, its tallies and its metrics.
type run struct {
	w       *workload
	seed    int64
	seconds int
	bin     string
	dir     string
	traced  bool

	f    *feed
	ref  *reference
	deps []*deployment // every deployment launched, stopped at exit

	attempted, failed int
	metrics           map[string]metric
	samples           map[string]int
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 10 {
		fmt.Fprintf(os.Stderr, "loadbench: FAIL "+format+"\n", args...)
	}
}

// phase logs how long a stage of the run took, to stderr.
func phase(name string, since time.Time) {
	fmt.Fprintf(os.Stderr, "loadbench: %-12s %6.2fs\n", name, time.Since(since).Seconds())
}

func (r *run) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// print writes the metric table, then the result object as the last line.
func (r *run) print() {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("loadbench %s seed=%d trace=%v: %d operations, %d failed\n", r.w.name, r.seed, r.traced, r.attempted, r.failed)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("  %-38s %16.4f %-9s n=%d\n", n, m.Value, m.Unit, r.samples[n])
	}
	// The result line carries the end-to-end metrics, or with --trace 1
	// the per-layer ones; the table above shows everything measured.
	metrics := make(map[string]metric)
	for n, m := range r.metrics {
		if slices.Contains(endToEnd, n) != r.traced {
			metrics[n] = m
		}
	}
	out, _ := json.Marshal(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics})
	fmt.Println(string(out))
}

// part is what one deployment printed and used while the generator
// pushed a stretch of the feed to it.
type part struct {
	windows []window   // windows the generator assigned events to
	out     []stamped  // window results the root printed
	posts   []postStat // push POSTs, end-of-stream included
	use     usage
}

func (r *run) execute(ctx context.Context) error {
	w := r.w
	parts := 1
	if w.tree {
		parts = 2
	}
	// Inputs first, outside every timed region. Each repetition of the
	// saturated part pushes the whole days that last at least
	// --seconds/satReps at the workload's capacity, within the feed. The
	// feed's length depends on the window layout alone, so tumbling and
	// tree get the same feed for a seed.
	tp := time.Now()
	f, err := genFeed(r.seed, w.days, parts, batchEvents)
	if err != nil {
		return err
	}
	r.f, r.ref = f, newReference(f)
	n, satN := len(f.reqs), len(f.reqs)
	for d := 0; d < w.days; d++ {
		if end := f.dayEnd(d); float64(end) >= float64(r.seconds)/satReps*w.capacity {
			satN = end
			break
		}
	}
	satWindows := f.windows(satN, w.size, w.stride)
	fix := &part{windows: f.windows(n, w.size, w.stride)}
	if len(fix.windows) < minWindows {
		return fmt.Errorf("%s: feed yields %d windows, want at least %d", w.name, len(fix.windows), minWindows)
	}
	r.attempted++
	if err := checkClock(f, fix.windows, w.stride); err != nil {
		r.fail("%v", err)
	}
	satBatches, fixBatches := f.batches(satN), f.batches(n)
	phase("generate", tp)

	// Collect the generator's garbage now, so that its collector does
	// not compete with what set-up times.
	runtime.GC()
	tp = time.Now()
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		dep, err := r.deploy(ctx, "setup"+strconv.Itoa(i))
		if err != nil {
			return err
		}
		setups = append(setups, dep.setup.Seconds())
		if err := dep.finish(ctx); err != nil {
			return err
		}
	}
	phase("setup runs", tp)

	// The saturated part runs satReps times, each on a fresh deployment;
	// events_per_s is the median over the repetitions.
	tp = time.Now()
	sats := make([]*part, satReps)
	var rates []float64
	for i := range sats {
		dep, err := r.deploy(ctx, "saturated"+strconv.Itoa(i))
		if err != nil {
			return err
		}
		setups = append(setups, dep.setup.Seconds())
		sat := &part{windows: satWindows}
		first := time.Now()
		sat.posts = saturate(ctx, dep, satBatches)
		if err := dep.finish(ctx); err != nil {
			return err
		}
		r.attempted += len(dep.ingest) // the end-of-stream POSTs finish made
		sat.out, sat.use = dep.root.results(), dep.usage()
		if len(sat.out) == 0 {
			return fmt.Errorf("saturated part printed no window")
		}
		rates = append(rates, float64(satN)/sat.out[len(sat.out)-1].at.Sub(first).Seconds())
		sats[i] = sat
	}
	phase("saturated", tp)
	fmt.Fprintf(os.Stderr, "loadbench: saturated events/s by repetition %.0f\n", rates)

	tp = time.Now()
	dep, err := r.deploy(ctx, "fixed")
	if err != nil {
		return err
	}
	setups = append(setups, dep.setup.Seconds())
	var scrapes map[string]map[string]float64
	var beforeEOS func() error
	if r.traced {
		beforeEOS = func() (err error) {
			scrapes, err = r.scrapeAll(ctx, dep, fix.windows)
			return err
		}
	}
	interval := time.Duration(float64(batchEvents) / w.rate() * float64(time.Second))
	var queries []postStat
	var t0 time.Time
	qps := 0.0
	if w.queries {
		qps = queryRate
	}
	fix.posts, queries, t0, err = fixedRate(ctx, dep, fixBatches, interval, qps, beforeEOS)
	if err != nil {
		return err
	}
	fix.out, fix.use = dep.root.results(), dep.usage()
	phase("fixed-rate", tp)

	// Checks, after every timed region.
	tp = time.Now()
	posts := slices.Concat(fix.posts, queries)
	for _, sat := range sats {
		posts = append(posts, sat.posts...)
	}
	for _, p := range posts {
		r.attempted++
		if p.err != nil {
			r.fail("%v", p.err)
		}
	}
	want, err := r.ref.records(satWindows)
	if err != nil {
		return err
	}
	for i, sat := range sats {
		r.compare("saturated"+strconv.Itoa(i), sat.out, want)
	}
	want, err = r.ref.records(fix.windows)
	if err != nil {
		return err
	}
	r.compare("fixed-rate", fix.out, want)
	phase("reference", tp)
	if err := r.checkDigest(fix.out); err != nil {
		return err
	}

	r.set("events_per_s", quantile(rates, 0.5), "events/s", len(rates))
	// A window is due once the batch holding its last event is.
	var lat []float64
	for i, win := range fix.windows {
		due := t0.Add(time.Duration((win.hi-1)/batchEvents) * interval)
		if i < len(fix.out) {
			lat = append(lat, ms(fix.out[i].at.Sub(due)))
		} else {
			lat = append(lat, failedMs)
		}
	}
	r.set("window_latency_p50_ms", quantile(lat, 0.5), "ms", len(lat))
	r.set("window_latency_p90_ms", quantile(lat, 0.9), "ms", len(lat))
	// Only sliding sends queries; the others print 0 from no samples.
	qlat := latencies(queries, func(s postStat) time.Duration { return s.done.Sub(s.due) })
	if len(qlat) == 0 {
		qlat = append(qlat, 0)
	}
	r.set("query_latency_p50_ms", quantile(qlat, 0.5), "ms", len(queries))
	r.set("query_latency_p90_ms", quantile(qlat, 0.9), "ms", len(queries))
	// CPU per event and peak RSS cover every deployment that took events.
	cpu, peak, events := fix.use.cpu, fix.use.maxRSS, n+satReps*satN
	for _, sat := range sats {
		cpu += sat.use.cpu
		peak = max(peak, sat.use.maxRSS)
	}
	r.set("cpu_ms_per_kevent", ms(cpu)/(float64(events)/1000), "ms", len(sats)+1)
	r.set("peak_rss_mb", float64(peak)/1e6, "MB", len(sats)+1)
	r.set("setup_s", quantile(setups, 0.5), "s", len(setups))
	if !r.traced {
		return nil
	}

	// Per-layer metrics: generator timing and the scrape of the
	// fixed-rate part, then the traced replay.
	var data []postStat
	for _, p := range fix.posts {
		if !p.eos {
			data = append(data, p)
		}
	}
	post := latencies(data, func(s postStat) time.Duration { return s.done.Sub(s.sent) })
	late := latencies(data, func(s postStat) time.Duration { return s.sent.Sub(s.due) })
	r.set("serve.ingest_post_ms_p50", quantile(post, 0.5), "ms", len(post))
	r.set("serve.ingest_post_ms_p90", quantile(post, 0.9), "ms", len(post))
	r.set("gen.late_ms_p90", quantile(late, 0.9), "ms", len(late))
	r.scraped(scrapes)
	return r.replayTraced(fix.windows, want)
}

// scrapeAll waits until the root has printed every window but those the
// end of stream will seal, then scrapes /metrics of every process.
func (r *run) scrapeAll(ctx context.Context, dep *deployment, ws []window) (map[string]map[string]float64, error) {
	last := r.f.reqs[len(r.f.reqs)-1].Time
	open := 0
	for _, win := range ws {
		if win.end.After(last) {
			open++
		}
	}
	if err := dep.root.waitWindows(ctx, len(ws)-open); err != nil {
		return nil, err
	}
	out := make(map[string]map[string]float64)
	for _, d := range dep.all {
		s, err := scrape(ctx, d)
		if err != nil {
			return nil, err
		}
		out[d.name] = s
	}
	return out, nil
}

// checkDigest prints the digest of the fixed-rate part's window lines
// and, for digestSeed, compares it with the committed one.
func (r *run) checkDigest(out []stamped) error {
	lines := make([][]byte, len(out))
	for i, l := range out {
		lines[i] = l.line
	}
	got := digest(lines)
	fmt.Printf("fixed-rate output digest %s (seed %d)\n", got, r.seed)
	if r.seed != digestSeed {
		return nil
	}
	var want map[string]string
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	r.attempted++
	if want[r.w.name] != got {
		r.fail("%s: output digest %s, the defining commit printed %s", r.w.name, got, want[r.w.name])
	}
	return nil
}

// deploy launches the workload's processes with state under dir/name.
func (r *run) deploy(ctx context.Context, name string) (*deployment, error) {
	dep, err := deploy(ctx, r.bin, filepath.Join(r.dir, name), r.w)
	if err == nil {
		r.deps = append(r.deps, dep)
	}
	return dep, err
}

// compare checks the window lines a part printed against the reference:
// byte-identical, one for one. Every mismatch is a failed operation.
func (r *run) compare(name string, got []stamped, want [][]byte) {
	for i := range want {
		r.attempted++
		switch {
		case i >= len(got):
			r.fail("%s: window %d missing", name, i)
		case !bytes.Equal(got[i].line, want[i]):
			r.fail("%s: window %d:\n got  %s\n want %s", name, i, got[i].line, want[i])
		}
	}
	if len(got) > len(want) {
		r.attempted++
		r.fail("%s: %d windows printed, %d expected", name, len(got), len(want))
	}
}

// latencies maps the stats through d in milliseconds; a failed request
// counts as missing every latency limit.
func latencies(stats []postStat, d func(postStat) time.Duration) []float64 {
	out := make([]float64, 0, len(stats))
	for _, s := range stats {
		if s.err != nil {
			out = append(out, failedMs)
		} else {
			out = append(out, ms(d(s)))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
