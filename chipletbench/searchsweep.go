package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"chiplet25d/internal/config"
	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/org"
	"chiplet25d/internal/serve"
)

// Search-sweep's request space. Each search scans two interposer edges:
// one of its own, which no other search of its benchmark uses, and the
// shared edge searchSharedEdgeMM, which every search of the benchmark
// uses. Every search therefore does fresh simulation work on its own edge
// (so its cost is never a bare memo lookup) and reuses the engine memo on
// the shared edge and the 2D baseline.
//
// A search's cost depends strongly on its threshold, its own edge, its
// objective weighting and its fidelity tier, so every run uses the same
// stratified design: per benchmark, 32 slots in 8 threshold strata of
// four. Each stratum holds three cost-weighted searches (alpha = beta =
// 0.5) and one performance-only search (alpha = 1). Performance-only
// searches walk far more placements; at one in four they stay above the
// median, which therefore sits inside the cluster of cost-weighted
// searches instead of on the gap between clusters. search-sweep leaves
// every search at the daemon's default fidelity tier; search-spatial puts
// two of each stratum on the spatial surrogate tier. Each slot has a fixed
// own-edge pair and greedy seed; the seed picks the threshold within its
// stratum (0.1 °C grid), the edge within its pair, and the order, so each
// seed asks different searches of the same total work. One greedy start
// keeps the slowest search in seconds, far inside the daemon's 60 s
// deadline.
var searchBenchmarks = []string{"shock", "blackscholes", "canneal", "cholesky"} // clients take alternate entries

const (
	searchOwnEdgeLoMM  = 24.0 // own edges spread over 24..47.5 on the 0.5 mm grid
	searchSharedEdgeMM = floorplan.MaxInterposerEdgeMM
	searchesPerBench   = 32
	searchThresholdLoC = 88.0
	searchThresholdHiC = 96.0
	searchStarts       = 1
	// searchPeakTolC is the slack on "winner peak <= threshold_c" at full
	// fidelity: the daemon's warm-started CG agrees with the reference
	// evaluator to the solver tolerance, not bit for bit.
	searchPeakTolC = solvePeakTolC
)

// searchSweep builds distinct /v1/org/search requests at the search's
// default 32x32 grid and the daemon's default fidelity tier; requests on
// one benchmark share the daemon's engine memo. The op count is fixed
// (searchesPerBench per benchmark, 128 in all) and does not scale with
// seconds: the stratified design needs every slot.
func searchSweep(seed int64, _ int) (*plan, error) { return searchPlan(seed, false) }

// searchSpatial is searchSweep with half of each benchmark's requests
// opted into the spatial surrogate tier. It is not a BENCHMARK.json
// workload: that tier can return winners over threshold at full fidelity,
// and this workload reproduces and counts them.
func searchSpatial(seed int64, _ int) (*plan, error) { return searchPlan(seed, true) }

func searchPlan(seed int64, spatialHalf bool) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	const strata = searchesPerBench / 4
	width := (searchThresholdHiC - searchThresholdLoC) / strata
	// Each client's requests cover its own benchmarks (see runPhase), so
	// the two clients never wait on or reuse each other's memo entries and
	// a client's work does not depend on how the two interleave.
	groups := make([][]serve.SearchRequest, clients)
	for bi, b := range searchBenchmarks {
		g := &groups[bi%clients]
		flip := rng.Perm(searchesPerBench) // low bit of flip[pair] swaps the pair's two edges
		for j := 0; j < searchesPerBench; j++ {
			t, k := j/4, j%4
			e := (j * 13) % searchesPerBench // spreads edge pairs across threshold strata
			e ^= flip[e/2] & 1
			own := searchOwnEdgeLoMM + math.Round(float64(e)*1.5)/2
			th := searchThresholdLoC + float64(t)*width + math.Floor(rng.Float64()*width*10)/10
			alpha, spatial := 0.5, k == 1
			switch k {
			case 2:
				alpha, spatial = 1, t%2 == 0
			case 3:
				spatial = t%2 == 1
			}
			f := config.File{
				Benchmark:      b,
				Alpha:          ptr(alpha),
				Beta:           ptr(1 - alpha),
				ThresholdC:     ptr(th),
				InterposerMin:  ptr(own),
				InterposerMax:  ptr(searchSharedEdgeMM),
				InterposerStep: ptr(searchSharedEdgeMM - own),
				Starts:         ptr(searchStarts),
				Seed:           ptr(int64(1 + j)),
			}
			if spatialHalf {
				f.SpatialSurrogate = ptr(spatial)
			}
			*g = append(*g, serve.SearchRequest{File: f})
		}
	}
	var reqs []serve.SearchRequest
	for _, g := range groups {
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	for i := range groups[0] {
		for _, g := range groups {
			reqs = append(reqs, g[i])
		}
	}
	seq, err := encodeOps("/v1/org/search", reqs)
	if err != nil {
		return nil, err
	}
	// Create the 32x32 engine the searches use and calibrate each
	// benchmark's spatial surrogate on it: a TCO thermal check at grid 32
	// shares that engine (the engine is keyed by physics only) and
	// calibrates on first use. search-sweep's searches never consult the
	// calibration; it stays in set-up so that both search workloads set up
	// the same engine.
	warm := make([][]byte, len(searchBenchmarks))
	for i, b := range searchBenchmarks {
		body, err := json.Marshal(serve.TCORequest{
			Chiplets: 16, Benchmark: b, FreqMHz: 320, Cores: 64,
			ThermalCheck: true, GridN: 32,
		})
		if err != nil {
			return nil, err
		}
		warm[i] = body
	}
	return &plan{
		seq: seq,
		warm: func(p poster) error {
			return parallel(len(warm), func(i int) error {
				out, err := expectOK(p, "/v1/cost/tco", warm[i])
				if err != nil {
					return err
				}
				var r serve.TCOResponse
				if err := json.Unmarshal(out, &r); err != nil {
					return err
				}
				if r.Fidelity != "spatial" {
					return fmt.Errorf("calibration request for %s answered at fidelity %q", searchBenchmarks[i], r.Fidelity)
				}
				return nil
			})
		},
		keep:   func(int) bool { return true },
		check:  func(ph phase) (int, int, error) { return checkSearches(reqs, ph) },
		replay: 4,
	}, nil
}

func ptr[T any](v T) *T { return &v }

// searchConfig resolves a search request the way chipletd does at its
// defaults: multigrid, warm starts, one search worker and serial kernels
// per search on a 2-worker pool.
func searchConfig(req serve.SearchRequest) (org.Config, error) {
	cfg, err := req.File.ToConfig()
	if err != nil {
		return org.Config{}, err
	}
	cfg.Thermal.Preconditioner = daemonPrecond
	cfg.WarmStart = true
	cfg.SearchWorkers = 1
	cfg.Thermal.KernelThreads = 1
	return cfg, nil
}

// checkSearches re-simulates every feasible winner at full fidelity with
// org.ReferenceSimulate: its peak must not exceed the request's threshold.
func checkSearches(reqs []serve.SearchRequest, ph phase) (checked, wrong int, err error) {
	type job struct {
		i    int
		best *serve.OrgJSON
	}
	var jobs []job
	bad := make([]bool, len(reqs))
	feasible := 0
	for i, r := range ph.results {
		if r.body == nil || r.status != 200 {
			continue
		}
		checked++
		var sr serve.SearchResponse
		if err := json.Unmarshal(r.body, &sr); err != nil || sr.Cached {
			bad[i] = true
			continue
		}
		if sr.Feasible {
			if sr.Best == nil {
				bad[i] = true
				continue
			}
			feasible++
			jobs = append(jobs, job{i, sr.Best})
		}
	}
	peaks := make([]float64, len(jobs))
	err = parallel(len(jobs), func(j int) error {
		i, best := jobs[j].i, jobs[j].best
		cfg, err := searchConfig(reqs[i])
		if err != nil {
			return err
		}
		pl, err := floorplan.PaperOrg(best.Chiplets, best.S1MM, best.S2MM, best.S3MM)
		if err != nil {
			bad[i] = true
			return nil
		}
		op, err := dvfs(best.FreqMHz)
		if err != nil {
			bad[i] = true
			return nil
		}
		rec, err := org.ReferenceSimulate(cfg, cfg.Benchmark, pl, op, best.ActiveCores)
		if err != nil {
			return err
		}
		peaks[j] = rec.PeakC
		if rec.PeakC > cfg.ThresholdC+searchPeakTolC {
			bad[i] = true
		}
		return nil
	})
	for j, jb := range jobs {
		if bad[jb.i] {
			th := *reqs[jb.i].ThresholdC
			spatial := reqs[jb.i].SpatialSurrogate != nil && *reqs[jb.i].SpatialSurrogate
			fmt.Printf("infeasible winner: search %d (%s, threshold %g °C, spatial %v) reports %.2f °C, full fidelity %.2f °C\n",
				jb.i, reqs[jb.i].Benchmark, th, spatial, jb.best.PeakC, peaks[j])
		}
	}
	for _, b := range bad {
		if b {
			wrong++
		}
	}
	fmt.Printf("search check: %d answers, %d feasible winners re-simulated at full fidelity, %d wrong\n", checked, feasible, wrong)
	return checked, wrong, err
}
