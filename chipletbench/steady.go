package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the self-check needs.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady is the steadiness self-check: it runs every workload of
// BENCHMARK.json n times, with seeds 1..n, as child processes of this
// program, and prints each end-to-end metric's median and quartile spread
// (Q3-Q1 over the median) next to its bound. A spread at or above the
// bound is flagged; the target is a third of it.
func runSteady(n int, o options) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seconds := spec.RunSeconds
	if seconds == 0 {
		seconds = o.seconds
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	only := o.workload
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := map[string][]float64{}
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w.Name, seed, err)
			}
			fmt.Printf("%s seed %d: correct=%v attempted=%d failed=%d", w.Name, seed, res.Correct, res.Attempted, res.Failed)
			for _, m := range spec.EndToEnd {
				fmt.Printf(" %s=%.4g", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Println()
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		fmt.Printf("%s over %d seeds:\n", w.Name, n)
		for _, m := range spec.EndToEnd {
			xs := values[m.Name]
			med := median(xs)
			spread := ratio(quantileExclusive(xs, 0.75)-quantileExclusive(xs, 0.25), med)
			flag := "ok"
			switch {
			case m.Name == "setup_s":
				flag = "(spread not gated)"
			case spread >= m.Bound:
				flag = "OVER BOUND"
			case spread >= m.Bound/3:
				flag = "above a third of bound"
			}
			fmt.Printf("  %-24s median %12.6g %-4s spread %6.3f  bound %.3f  %s\n", m.Name, med, m.Unit, spread, m.Bound, flag)
		}
	}
	return nil
}

// quantileExclusive matches Python's statistics.quantiles(xs, n=4) default
// (exclusive) method for the quartiles.
func quantileExclusive(xs []float64, q float64) float64 {
	if len(xs) < 2 {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)+1)
	j := int(pos)
	switch {
	case j < 1:
		return s[0]
	case j >= len(s):
		return s[len(s)-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}
