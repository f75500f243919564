package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupRepeats is how many times a run sets the daemon up from scratch;
// setup_s is their median and the last daemon serves the timed phase.
const setupRepeats = 3

// poster sends one request to a chipletd (child process or in-process
// handler) and returns its status and body. Implementations are safe for
// concurrent use.
type poster func(path string, body []byte) (int, []byte, error)

// plan is one workload's generated sequence plus the hooks that set the
// daemon up and check its answers.
type plan struct {
	seq []op
	// warm does the lazy set-up a real deployment pays once: engines,
	// spatial calibrations, working sets. It is part of setup_s.
	warm func(p poster) error
	// keep selects the response bodies retained for the check.
	keep func(i int) bool
	// inspect runs on every 200 body during timing (batch summaries).
	inspect inspectFunc
	// check recomputes answers in-process from the kept bodies and returns
	// how many items it checked and how many were wrong.
	check func(ph phase) (checked, wrong int, err error)
	// replay is how many leading ops the traced run replays through an
	// in-process handler.
	replay int
}

// workload generates a plan from the seed and the nominal run length.
type workload func(seed int64, seconds int) (*plan, error)

var workloads = map[string]workload{
	"solve-cold":   solveCold,
	"search-sweep": searchSweep,
	// search-spatial is not listed in BENCHMARK.json; see searchSpatial.
	"search-spatial": searchSpatial,
	"sweep-warm":     sweepWarm,
}

// httpPoster posts to a daemon over one keep-alive client.
func httpPoster(base string) poster {
	client := &http.Client{Timeout: 120 * time.Second}
	return func(path string, body []byte) (int, []byte, error) {
		return post(client, base+path, body)
	}
}

// parallel runs fn(i) for i in [0, n) on at most clients goroutines and
// returns the first error.
func parallel(n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if stop || i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// expectOK posts and fails unless the answer is 200.
func expectOK(p poster, path string, body []byte) ([]byte, error) {
	status, out, err := p(path, body)
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", path, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(out))
	}
	return out, nil
}

// run executes one benchmark run: set-up, the timed phase, the checks and,
// when tracing, the per-layer probes.
func run(o options, w workload) (*result, error) {
	p, err := w(o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	var (
		d      *daemon
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		d, err = startDaemon()
		if err != nil {
			return nil, err
		}
		if err := p.warm(httpPoster(d.base)); err != nil {
			d.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < setupRepeats-1 {
			d.stop()
		}
	}
	defer d.stop()

	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	ph := runPhase(d.base, p.seq, p.keep, p.inspect)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rss, err := d.rssMB()
	if err != nil {
		return nil, err
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	d.stop()

	checked, wrong, err := p.check(ph)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	s := summarize(p.seq, ph)
	s.failed += wrong
	e2e := map[string]metric{
		"ops_per_s":            {float64(s.okOps) / ph.wall.Seconds(), "1/s"},
		"items_per_s":          {float64(s.okItems) / ph.wall.Seconds(), "1/s"},
		"latency_p50_ms":       {quantile(s.latMS, 0.5), "ms"},
		"latency_p90_ms":       {quantile(s.latMS, 0.9), "ms"},
		"ok_ratio":             {1 - float64(s.failed)/float64(s.attempted), "1"},
		"daemon_cpu_ms_per_op": {(cpu1 - cpu0) * 1e3 / float64(max(s.okOps, 1)), "ms"},
		"daemon_rss_mb":        {rss, "MB"},
		"setup_s":              {median(setups), "s"},
	}
	fmt.Printf("workload %s seed %d: %d ops, %d items attempted, %d failed (%d wrong of %d checked), wall %.2fs\n",
		o.workload, o.seed, len(p.seq), s.attempted, s.failed, wrong, checked, ph.wall.Seconds())
	fmt.Printf("latency samples %d, above p90 %d; setups %v\n", len(s.latMS), countAbove(s.latMS, e2e["latency_p90_ms"].Value), fmtSecs(setups))
	res := &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed}
	verdict := "PASS"
	if !res.Correct {
		verdict = "FAIL"
	}
	fmt.Printf("correctness: %s (%d of %d items failed or wrong)\n", verdict, s.failed, s.attempted)
	if !o.trace {
		printMetrics(e2e)
		res.Metrics = e2e
		return res, nil
	}
	layers, err := traceLayers(o, p, ph, before, after)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	res.Metrics = layers
	return res, nil
}

// runSummary aggregates the timed phase.
type runSummary struct {
	attempted, failed int
	okOps, okItems    int
	latMS             []float64
}

func summarize(seq []op, ph phase) runSummary {
	var s runSummary
	for i, r := range ph.results {
		items := seq[i].items
		s.attempted += items
		s.latMS = append(s.latMS, float64(r.latency)/float64(time.Millisecond))
		if r.transport || r.status != http.StatusOK {
			s.failed += items
			continue
		}
		s.okOps++
		s.okItems += items - r.itemFails
		s.failed += r.itemFails
	}
	return s
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
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

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func fmtSecs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2fs", x)
	}
	return strings.Join(parts, " ")
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
