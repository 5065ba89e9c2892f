package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// scrape fetches a Prometheus text exposition and sums every sample per
// metric name across label sets.
func scrape(ctx context.Context, d *daemon) (map[string]float64, error) {
	resp, err := get(ctx, d.client, d.api+"/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: %s", d.name, resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, nil
}

// histMeanMs is a scraped histogram's mean in milliseconds, summed over
// the given scrapes; 0 without observations.
func histMeanMs(name string, scrapes ...map[string]float64) float64 {
	var sum, n float64
	for _, s := range scrapes {
		sum += s[name+"_sum"]
		n += s[name+"_count"]
	}
	if n == 0 {
		return 0
	}
	return sum / n * 1000
}

// total sums one scraped series over the given scrapes.
func total(name string, scrapes ...map[string]float64) float64 {
	var v float64
	for _, s := range scrapes {
		v += s[name]
	}
	return v
}
