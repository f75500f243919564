package main

import (
	"bytes"
	"net/http"
	"sync"
	"time"
)

// clients is the closed loop's concurrency: two callers, each sending its
// next request only after the previous response has been read in full.
const clients = 2

// op is one pre-encoded request of a workload's fixed sequence.
type op struct {
	path  string
	body  []byte
	items int // batch items carried (1 for single requests)
}

// opResult is what the generator records for one op during the timed
// phase: latency, status, and the per-item failures the workload's cheap
// inspect hook found. Bodies the workload wants to verify are kept raw and
// decoded only after timing.
type opResult struct {
	latency   time.Duration
	status    int
	transport bool // the request failed before a status arrived
	itemFails int  // per-item errors reported inside a 200 response
	summary   batchSummary
	body      []byte // kept raw body (nil when not kept)
}

// phase is the outcome of one timed run of a sequence.
type phase struct {
	results []opResult
	wall    time.Duration
}

// inspectFunc examines a response body during timing; it must be cheap.
type inspectFunc func(body []byte) (itemFails int, sum batchSummary)

// runPhase sends every op of seq through the closed loop. Client c sends
// ops c, c+clients, c+2*clients, ... in order, so every run with the same
// sequence gives each client the same requests in the same order whatever
// the timing; keep(i) selects the bodies retained for the correctness
// check.
func runPhase(base string, seq []op, keep func(int) bool, inspect inspectFunc) phase {
	tr := &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 120 * time.Second}
	res := make([]opResult, len(seq))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := c; i < len(seq); i += clients {
				res[i] = send(client, base, seq[i], &buf)
				if res[i].status == http.StatusOK && inspect != nil {
					res[i].itemFails, res[i].summary = inspect(buf.Bytes())
				}
				if keep != nil && keep(i) {
					res[i].body = bytes.Clone(buf.Bytes())
				}
			}
		}()
	}
	wg.Wait()
	return phase{results: res, wall: time.Since(start)}
}

// send posts one op and reads the whole response into buf.
func send(client *http.Client, base string, o op, buf *bytes.Buffer) opResult {
	buf.Reset()
	req, err := http.NewRequest(http.MethodPost, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return opResult{transport: true}
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return opResult{latency: time.Since(t0), transport: true}
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return opResult{latency: lat, transport: true}
	}
	return opResult{latency: lat, status: resp.StatusCode}
}

// post sends one request outside the timed phase (set-up, probes) and
// returns its status and body.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}
