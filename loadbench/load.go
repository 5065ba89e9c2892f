package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// postStat is one request: when it was due, when it was sent, when it
// returned, and whether it failed. eos marks an end-of-stream POST.
type postStat struct {
	due, sent, done time.Time
	eos             bool
	err             error
}

// saturate runs the closed-loop part: one pusher per ingest endpoint, each
// sending its next batch as soon as the previous POST returns. It returns
// when every POST has returned; the caller sends end-of-stream.
func saturate(ctx context.Context, dep *deployment, batches []batch) []postStat {
	var (
		mu    sync.Mutex
		stats []postStat
		wg    sync.WaitGroup
	)
	for k, d := range dep.ingest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []postStat
			for _, b := range batches {
				if len(b.bodies[k]) == 0 {
					continue
				}
				s := postStat{sent: time.Now()}
				s.due = s.sent
				s.err = push(ctx, d, b.bodies[k], false)
				s.done = time.Now()
				local = append(local, s)
			}
			mu.Lock()
			stats = append(stats, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return stats
}

// fixedRate runs the open-loop part: batch i is due at t0 + i*interval on
// every ingest endpoint, whatever happened to earlier batches, and the
// end-of-stream POST is due one interval after the last batch. A pusher
// that falls behind sends immediately; every latency counts from the due
// time. With qps > 0, a separate connection sends the query mix to the
// root at qps queries per second while it runs, starting once the first
// window result is out. beforeEOS, if set, runs after the last data
// batch and before end-of-stream.
func fixedRate(ctx context.Context, dep *deployment, batches []batch, interval time.Duration, qps float64, beforeEOS func() error) (posts, queries []postStat, t0 time.Time, err error) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	t0 = time.Now().Add(5 * time.Millisecond)
	due := func(i int) time.Time { return t0.Add(time.Duration(i) * interval) }
	stop := make(chan struct{})
	qdone := make(chan []postStat, 1)
	if qps > 0 {
		go func() { qdone <- queryLoop(ctx, dep.root, qps, stop) }()
	} else {
		qdone <- nil
	}

	for k, d := range dep.ingest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []postStat
			for i, b := range batches {
				if len(b.bodies[k]) == 0 {
					continue
				}
				s := postStat{due: due(i)}
				time.Sleep(time.Until(s.due))
				s.sent = time.Now()
				s.err = push(ctx, d, b.bodies[k], false)
				s.done = time.Now()
				local = append(local, s)
			}
			mu.Lock()
			posts = append(posts, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(stop)
	queries = <-qdone
	if beforeEOS != nil {
		if err = beforeEOS(); err != nil {
			dep.kill()
			return posts, queries, t0, err
		}
	}
	eosDue := due(len(batches))
	time.Sleep(time.Until(eosDue))
	for _, d := range dep.ingest {
		s := postStat{due: eosDue, sent: time.Now(), eos: true}
		s.err = push(ctx, d, nil, true)
		s.done = time.Now()
		posts = append(posts, s)
	}
	return posts, queries, t0, dep.wait(ctx)
}

// queryLoop sends the open-loop query mix to d until stop closes: the
// latest window, the first lineage page, a live lineage's timeline and a
// ranged window listing, in turn. Query j is due 1/qps after query j-1;
// the schedule starts when d prints its first window result.
func queryLoop(ctx context.Context, d *daemon, qps float64, stop <-chan struct{}) []postStat {
	client := newClient()
	defer client.CloseIdleConnections()
	select {
	case <-firstWindow(ctx, d):
	case <-stop:
		return nil
	}
	interval := time.Duration(float64(time.Second) / qps)
	t0 := time.Now()
	var out []postStat
	for j := 0; ; j++ {
		s := postStat{due: t0.Add(time.Duration(j) * interval)}
		select {
		case <-stop:
			return out
		case <-time.After(time.Until(s.due)):
		}
		s.sent = time.Now()
		s.err = query(ctx, client, d.api+queryPath(d, j))
		s.done = time.Now()
		out = append(out, s)
	}
}

// firstWindow closes once d has printed a window result.
func firstWindow(ctx context.Context, d *daemon) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		_ = d.waitWindows(ctx, 1)
	}()
	return ch
}

// queryPath picks query j of the mix, drawing the live lineage and the
// window range from what d has printed so far.
func queryPath(d *daemon, j int) string {
	lastSeq, lineage := d.latest()
	switch j % 4 {
	case 0:
		return "/v1/windows/latest"
	case 1:
		return "/v1/lineages?limit=50"
	case 2:
		if lineage >= 0 {
			return "/v1/lineages/" + strconv.Itoa(lineage) + "/timeline"
		}
		return "/v1/lineages?limit=50"
	default:
		return fmt.Sprintf("/v1/windows?from=%d&to=%d", max(0, lastSeq-7), lastSeq)
	}
}

func query(ctx context.Context, c *http.Client, url string) error {
	resp, err := get(ctx, c, url)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}
