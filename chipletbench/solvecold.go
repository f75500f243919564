package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/org"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
	"chiplet25d/internal/serve"
)

const (
	// solveOpsPerSecond sizes solve-cold's fixed op count: a 2-CPU box
	// serves about 11 cold 64x64 solves per second, so the timed phase
	// lasts a little under --seconds.
	solveOpsPerSecond = 9
	// solveRefChecks is how many answers per run are recomputed with
	// org.ReferenceSimulate (about 0.2 s each); every answer gets the
	// structural checks.
	solveRefChecks = 24
	// solvePeakTolC bounds |daemon - reference| peak temperature. The CG
	// solver stops at a 1e-7 relative residual, which moves a ~100 °C field
	// by ~1e-5 °C; two orders of margin on top of that.
	solvePeakTolC = 1e-3
	// solveWarmSolves fills the daemon's per-engine model cache (16
	// entries) so memory is at its steady state before timing.
	solveWarmSolves = 16
)

// solvePlacements lists every placement solve-cold draws from: the
// monolithic chip and the uniform 2x2 and 4x4 matrices at every valid
// spacing on the 0.5 mm grid.
func solvePlacements() []serve.PlacementSpec {
	out := []serve.PlacementSpec{{Chiplets: 1}}
	for _, n := range []int{4, 16} {
		for k := 0; k <= 40; k++ {
			s := float64(k) / 2
			spec := serve.PlacementSpec{Chiplets: n, SpacingMM: &s}
			if _, err := spec.Resolve(); err == nil {
				out = append(out, spec)
			}
		}
	}
	return out
}

// solveCold builds distinct /v1/thermal/solve requests at the serving
// defaults. Placements repeat in one fixed shuffled cycle longer than the
// daemon's model cache and warm-start ring, so every request assembles its
// model, sets up multigrid and solves from ambient; benchmark, DVFS point
// and core count are drawn so that no two requests share a cache key.
func solveCold(seed int64, seconds int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	pls := solvePlacements()
	rng.Shuffle(len(pls), func(i, j int) { pls[i], pls[j] = pls[j], pls[i] })
	benches := perf.Names()
	n := max(solveOpsPerSecond*seconds, 120)

	// Latin-hypercube draws: over the run, benchmarks, DVFS points and core
	// counts each cover their range evenly, so every seed asks for the same
	// mix of work; the seed decides the pairing and the order.
	bi, fi, ci := rng.Perm(n), rng.Perm(n), rng.Perm(n)
	type key struct {
		pl, bench, f, cores int
	}
	seen := map[key]bool{}
	reqs := make([]serve.SolveRequest, 0, n)
	for i := 0; len(reqs) < n; i++ {
		j := i % n
		k := key{
			pl:    i % len(pls),
			bench: bi[j] % len(benches),
			f:     fi[j] % len(power.FrequencySet),
			cores: 64 + (ci[j]*193+rng.Intn(193))/n,
		}
		if seen[k] {
			k.cores = 64 + rng.Intn(193)
			if seen[k] {
				continue
			}
		}
		seen[k] = true
		reqs = append(reqs, serve.SolveRequest{
			Placement: pls[k.pl],
			Benchmark: benches[k.bench],
			FreqMHz:   power.FrequencySet[k.f].FreqMHz,
			Cores:     k.cores,
		})
	}
	// Warm-up solves use core counts below the timed range, so they can
	// never answer a timed request from the cache or the memo.
	warm := make([][]byte, solveWarmSolves)
	for i := range warm {
		body, err := json.Marshal(serve.SolveRequest{
			Placement: pls[(len(pls)-1-i)%len(pls)],
			Benchmark: benches[i%len(benches)],
			FreqMHz:   power.FrequencySet[i%len(power.FrequencySet)].FreqMHz,
			Cores:     32 + i,
		})
		if err != nil {
			return nil, err
		}
		warm[i] = body
	}
	seq, err := encodeOps("/v1/thermal/solve", reqs)
	if err != nil {
		return nil, err
	}
	stride := max(len(reqs)/solveRefChecks, 1)
	return &plan{
		seq: seq,
		warm: func(p poster) error {
			return parallel(len(warm), func(i int) error {
				_, err := expectOK(p, "/v1/thermal/solve", warm[i])
				return err
			})
		},
		keep: func(int) bool { return true },
		check: func(ph phase) (int, int, error) {
			return checkSolves(reqs, ph, stride)
		},
		replay: 8,
	}, nil
}

// encodeOps pre-encodes a request sequence.
func encodeOps[T any](path string, reqs []T) ([]op, error) {
	seq := make([]op, len(reqs))
	for i := range reqs {
		body, err := json.Marshal(reqs[i])
		if err != nil {
			return nil, err
		}
		seq[i] = op{path: path, body: body, items: 1}
	}
	return seq, nil
}

// checkSolves structurally checks every answer and recomputes every
// stride-th one with the unmemoized reference evaluator.
func checkSolves(reqs []serve.SolveRequest, ph phase, stride int) (checked, wrong int, err error) {
	bad := make([]bool, len(reqs))
	resps := make([]serve.SolveResponse, len(reqs))
	var refIdx []int
	for i, r := range ph.results {
		if r.body == nil || r.status != 200 {
			continue // already counted as failed
		}
		checked++
		if err := json.Unmarshal(r.body, &resps[i]); err != nil {
			bad[i] = true
			continue
		}
		sr := resps[i]
		if sr.Cached || !(sr.PeakC > 0 && sr.PeakC < 500) || !(sr.TotalPowerW > 0) || sr.LeakageIterations < 1 || sr.CGIterations < 1 {
			bad[i] = true
			continue
		}
		if i%stride == 0 {
			refIdx = append(refIdx, i)
		}
	}
	err = parallel(len(refIdx), func(j int) error {
		i := refIdx[j]
		ref, err := referenceSolve(reqs[i], 64)
		if err != nil {
			return err
		}
		if math.Abs(ref.PeakC-resps[i].PeakC) > solvePeakTolC {
			bad[i] = true
			fmt.Printf("wrong solve %d: peak %.6f, reference %.6f\n", i, resps[i].PeakC, ref.PeakC)
		}
		return nil
	})
	for _, b := range bad {
		if b {
			wrong++
		}
	}
	fmt.Printf("solve check: %d answers checked structurally, %d against org.ReferenceSimulate (tolerance %g °C)\n", checked, len(refIdx), solvePeakTolC)
	return checked, wrong, err
}

// referenceSolve recomputes one solve request with org.ReferenceSimulate
// at the daemon's default preconditioner.
func referenceSolve(req serve.SolveRequest, gridN int) (org.SimRecord, error) {
	cfg, b, pl, op, err := solveInputs(req, gridN)
	if err != nil {
		return org.SimRecord{}, err
	}
	return org.ReferenceSimulate(cfg, b, pl, op, req.Cores)
}

// solveInputs resolves a solve request into the engine configuration the
// daemon would use (serial kernels, multigrid) and the evaluation point.
func solveInputs(req serve.SolveRequest, gridN int) (org.Config, perf.Benchmark, floorplan.Placement, power.DVFSPoint, error) {
	b, err := perf.ByName(req.Benchmark)
	if err != nil {
		return org.Config{}, perf.Benchmark{}, floorplan.Placement{}, power.DVFSPoint{}, err
	}
	pl, err := req.Placement.Resolve()
	if err != nil {
		return org.Config{}, perf.Benchmark{}, floorplan.Placement{}, power.DVFSPoint{}, err
	}
	op, err := dvfs(req.FreqMHz)
	if err != nil {
		return org.Config{}, perf.Benchmark{}, floorplan.Placement{}, power.DVFSPoint{}, err
	}
	cfg := org.DefaultConfig(b)
	cfg.Thermal.Nx, cfg.Thermal.Ny = gridN, gridN
	cfg.Thermal.Preconditioner = daemonPrecond
	cfg.Thermal.KernelThreads = 1
	return cfg, b, pl, op, nil
}

// dvfs looks a frequency up in the DVFS table.
func dvfs(freqMHz float64) (power.DVFSPoint, error) {
	for _, op := range power.FrequencySet {
		if op.FreqMHz == freqMHz {
			return op, nil
		}
	}
	return power.DVFSPoint{}, fmt.Errorf("freq_mhz %g not in the DVFS table", freqMHz)
}
