package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"

	"chiplet25d/internal/cost"
	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
	"chiplet25d/internal/serve"
)

// Sweep-warm's batch shape. Each batch carries warmSolveItems solve items
// drawn from a working set computed during set-up (re-spelled within the
// 0.5 mm snap, so they coalesce and hit the cache), warmCheckItems TCO
// items with a spatial thermal check, and a TCO sweep template that the
// daemon expands into 96 analytic items. The TCO key space is far larger
// than the 512-entry result cache, so inserts and LRU evictions run
// alongside the hits.
const (
	warmWorkingSet  = 32
	warmSolveItems  = 96
	warmCheckItems  = 64
	warmBatchBodies = 256 // distinct bodies; the sequence cycles through them
	warmLaneDraws   = 24  // explicit lane workloads the sweep templates draw from
	// warmOpsPerSecond sizes the fixed op count (batches): a 2-CPU box
	// serves about 190 batches per second, so the timed phase lasts about
	// two thirds of --seconds.
	warmOpsPerSecond = 120
	// warmKept is how many batch bodies per run are kept and checked.
	warmKept = 40
	// warmRefChecks working-set entries are recomputed with the reference
	// evaluator.
	warmRefChecks = 8
)

var (
	warmCheckBenchmarks = []string{"cholesky", "streamcluster"}
	warmCheckEdges      = []float64{0, 30, 36, 42}
	warmTechNodes       = []string{"45nm", "28nm", "16nm", "7nm"}
	warmLanesPerServer  = []int{2, 4, 8, 10}
)

// warmSolve is one working-set entry: the request and the spellings of it
// that share its canonical cache key.
type warmSolve struct {
	req      serve.SolveRequest
	spelling []float64 // spacing offsets (mm) that snap to the same key
}

// sweepWarm builds POST /v1/batch requests over a warm working set plus a
// TCO key space larger than the result cache.
func sweepWarm(seed int64, seconds int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	benches := perf.Names()
	pls := solvePlacements()
	ws := make([]warmSolve, 0, warmWorkingSet)
	seen := map[string]bool{}
	for len(ws) < warmWorkingSet {
		req := serve.SolveRequest{
			Placement: pls[rng.Intn(len(pls))],
			Benchmark: benches[rng.Intn(len(benches))],
			FreqMHz:   power.FrequencySet[rng.Intn(len(power.FrequencySet))].FreqMHz,
			Cores:     64 + rng.Intn(193),
		}
		body, _ := json.Marshal(req)
		if seen[string(body)] {
			continue
		}
		seen[string(body)] = true
		offs, err := snapSpellings(req.Placement)
		if err != nil {
			return nil, err
		}
		ws = append(ws, warmSolve{req: req, spelling: offs})
	}
	lanes := make([][2]float64, warmLaneDraws)
	for i := range lanes {
		lanes[i] = [2]float64{float64(120 + 5*rng.Intn(41)), float64(100 + 2*rng.Intn(101))}
	}

	batches := make([]serve.BatchRequest, warmBatchBodies)
	for bi := range batches {
		var items []serve.BatchItem
		for k := 0; k < warmSolveItems; k++ {
			w := ws[rng.Intn(len(ws))]
			req := w.req
			if off := w.spelling[rng.Intn(len(w.spelling))]; off != 0 {
				s := *req.Placement.SpacingMM + off
				req.Placement.SpacingMM = &s
			}
			items = append(items, serve.BatchItem{Solve: &req})
		}
		for k := 0; k < warmCheckItems; k++ {
			n := []int{1, 4, 16}[rng.Intn(3)]
			edge := 0.0
			if n > 1 {
				edge = warmCheckEdges[rng.Intn(len(warmCheckEdges))]
			}
			items = append(items, serve.BatchItem{TCO: &serve.TCORequest{
				Chiplets:     n,
				InterposerMM: edge,
				Benchmark:    warmCheckBenchmarks[rng.Intn(len(warmCheckBenchmarks))],
				FreqMHz:      power.FrequencySet[rng.Intn(len(power.FrequencySet))].FreqMHz,
				Cores:        64 + rng.Intn(193),
				ThermalCheck: true,
				GridN:        32,
			}})
		}
		lane := lanes[rng.Intn(len(lanes))]
		batches[bi] = serve.BatchRequest{
			Items: items,
			Sweep: &serve.SweepTemplate{
				TCO:             &serve.TCORequest{LanePowerW: lane[0], LaneGIPS: lane[1]},
				TechNodes:       warmTechNodes,
				ChipletsPerLane: []int{1, 4, 16},
				InterposerMM:    []float64{0, 40},
				LanesPerServer:  warmLanesPerServer,
			},
		}
	}
	bodies := make([][]byte, len(batches))
	counts := make([]int, len(batches))
	for i := range batches {
		b, err := json.Marshal(batches[i])
		if err != nil {
			return nil, err
		}
		exp, err := batches[i].Sweep.Expand()
		if err != nil {
			return nil, err
		}
		bodies[i] = b
		counts[i] = len(batches[i].Items) + len(exp)
	}
	n := max(warmOpsPerSecond*seconds, 120)
	seq := make([]op, n)
	for i := range seq {
		seq[i] = op{path: "/v1/batch", body: bodies[i%len(bodies)], items: counts[i%len(bodies)]}
	}

	// Set-up: compute the working set, and calibrate the TCO thermal
	// check's surrogate for each of its benchmarks on the 32x32 engine.
	wsItems := make([]serve.BatchItem, len(ws))
	for i := range ws {
		req := ws[i].req
		wsItems[i] = serve.BatchItem{Solve: &req}
	}
	wsBody, err := json.Marshal(serve.BatchRequest{Items: wsItems})
	if err != nil {
		return nil, err
	}
	calBodies := make([][]byte, len(warmCheckBenchmarks))
	for i, b := range warmCheckBenchmarks {
		calBodies[i], err = json.Marshal(serve.TCORequest{
			Chiplets: 16, Benchmark: b, FreqMHz: 320, Cores: 64, ThermalCheck: true, GridN: 32,
		})
		if err != nil {
			return nil, err
		}
	}
	var (
		wsMu  sync.Mutex
		wsRes []serve.SolveResponse
	)
	stride := max(n/warmKept, 1)
	return &plan{
		seq: seq,
		warm: func(p poster) error {
			out, err := expectOK(p, "/v1/batch", wsBody)
			if err != nil {
				return err
			}
			var br serve.BatchResponse
			if err := json.Unmarshal(out, &br); err != nil {
				return err
			}
			res := make([]serve.SolveResponse, len(br.Items))
			for i, it := range br.Items {
				if it.Status != 200 || it.Solve == nil {
					return fmt.Errorf("working-set item %d: status %d %s", i, it.Status, it.Error)
				}
				res[i] = *it.Solve
			}
			wsMu.Lock()
			wsRes = res
			wsMu.Unlock()
			return parallel(len(calBodies), func(i int) error {
				_, err := expectOK(p, "/v1/cost/tco", calBodies[i])
				return err
			})
		},
		keep:    func(i int) bool { return i%stride == 0 },
		inspect: inspectBatch,
		check: func(ph phase) (int, int, error) {
			wsMu.Lock()
			defer wsMu.Unlock()
			return checkBatches(ws, wsRes, batches, ph)
		},
		replay: 32,
	}, nil
}

// snapSpellings returns the spacing offsets that leave a placement's
// canonical (0.5 mm-snapped) cache key unchanged; 0 is always included.
func snapSpellings(ps serve.PlacementSpec) ([]float64, error) {
	base, err := ps.Resolve()
	if err != nil {
		return nil, err
	}
	offs := []float64{0}
	if ps.SpacingMM == nil {
		return offs, nil
	}
	for _, off := range []float64{0.02, 0.05, 0.1, 0.15, 0.2} {
		s := *ps.SpacingMM + off
		alt := ps
		alt.SpacingMM = &s
		pl, err := alt.Resolve()
		if err == nil && snapKey(pl) == snapKey(base) {
			offs = append(offs, off)
		}
	}
	return offs, nil
}

// snapKey is the placement part of chipletd's solve cache key.
func snapKey(pl floorplan.Placement) [6]int {
	hm := func(v float64) int { return int(math.Round(v * 2)) }
	return [6]int{pl.NumChiplets(), hm(pl.W), hm(pl.H), hm(pl.S1), hm(pl.S2), hm(pl.S3)}
}

// batchSummary is the tail of a batch response.
type batchSummary struct {
	total, uniqueKeys, cacheHits int
}

var statusOK = []byte(`"status": 200,`)

// inspectBatch counts per-item failures and reads the batch summary from
// the end of the body without decoding the items.
func inspectBatch(body []byte) (int, batchSummary) {
	read := func(name string) int {
		f := []byte(`"` + name + `": `)
		i := bytes.LastIndex(body, f)
		if i < 0 {
			return -1
		}
		rest := body[i+len(f):]
		j := bytes.IndexAny(rest, ",\n}")
		if j < 0 {
			return -1
		}
		v, err := strconv.Atoi(string(bytes.TrimSpace(rest[:j])))
		if err != nil {
			return -1
		}
		return v
	}
	s := batchSummary{
		total:      read("total"),
		uniqueKeys: read("unique_keys"),
		cacheHits:  read("cache_hits"),
	}
	fails := s.total - bytes.Count(body, statusOK)
	if s.total < 0 || fails < 0 {
		fails = 0
	}
	return fails, s
}

// checkBatches decodes the kept batch bodies and checks every item: solve
// items must equal the working-set answers bit for bit, and TCO items must
// equal cost.ElaborateServer bit for bit (with the spatial check's verdict
// applied as chipletd documents it). A sample of the working set is also
// recomputed with the reference evaluator.
func checkBatches(ws []warmSolve, wsRes []serve.SolveResponse, batches []serve.BatchRequest, ph phase) (checked, wrong int, err error) {
	if len(wsRes) != len(ws) {
		return 0, 0, fmt.Errorf("working set not computed")
	}
	type solveID struct {
		pl    [6]int
		bench string
		freq  float64
		cores int
	}
	wsByKey := map[solveID]serve.SolveResponse{}
	solveKey := func(r serve.SolveRequest) (solveID, error) {
		pl, err := r.Placement.Resolve()
		if err != nil {
			return solveID{}, err
		}
		return solveID{snapKey(pl), r.Benchmark, r.FreqMHz, r.Cores}, nil
	}
	for i := range ws {
		k, err := solveKey(ws[i].req)
		if err != nil {
			return 0, 0, err
		}
		wsByKey[k] = wsRes[i]
	}
	for i, r := range ph.results {
		if r.body == nil || r.status != 200 {
			continue
		}
		bi := i % len(batches)
		var br serve.BatchResponse
		if err := json.Unmarshal(r.body, &br); err != nil {
			return checked, wrong, fmt.Errorf("decode batch %d: %w", i, err)
		}
		req := batches[bi]
		exp, err := req.Sweep.Expand()
		if err != nil {
			return checked, wrong, err
		}
		all := append(append([]serve.BatchItem(nil), req.Items...), exp...)
		if len(br.Items) != len(all) {
			wrong += len(all)
			continue
		}
		for j, it := range all {
			got := br.Items[j]
			if got.Status != 200 {
				continue // counted as a per-item failure during timing
			}
			checked++
			ok := false
			switch {
			case it.Solve != nil && got.Solve != nil:
				k, err := solveKey(*it.Solve)
				if err != nil {
					return checked, wrong, err
				}
				want, found := wsByKey[k]
				g := *got.Solve
				ok = found && g.PeakC == want.PeakC && g.TotalPowerW == want.TotalPowerW &&
					g.MeshPowerW == want.MeshPowerW && g.LeakageIterations == want.LeakageIterations &&
					g.CGIterations == want.CGIterations
			case it.TCO != nil && got.TCO != nil:
				t, lane, err := tcoInputs(*it.TCO)
				if err != nil {
					return checked, wrong, err
				}
				want, err := t.ElaborateServer(cost.DefaultParams(), lane)
				if err != nil {
					return checked, wrong, err
				}
				g := *got.TCO
				if it.TCO.ThermalCheck && want.Feasible {
					ok = g.Fidelity == "spatial"
					if g.PredPeakC > g.ThresholdC {
						want.Feasible, want.Reason, want.LanesPerServer = false, cost.ReasonThermal, 0
					}
				} else {
					ok = g.Fidelity == "analytic"
				}
				ok = ok && g.Elab == want
			}
			if !ok {
				wrong++
			}
		}
	}
	refStride := max(len(ws)/warmRefChecks, 1)
	var refIdx []int
	for i := 0; i < len(ws); i += refStride {
		refIdx = append(refIdx, i)
	}
	var mu sync.Mutex
	err = parallel(len(refIdx), func(j int) error {
		i := refIdx[j]
		ref, err := referenceSolve(ws[i].req, 64)
		if err != nil {
			return err
		}
		if math.Abs(ref.PeakC-wsRes[i].PeakC) > solvePeakTolC {
			mu.Lock()
			wrong++
			mu.Unlock()
		}
		return nil
	})
	fmt.Printf("batch check: %d items checked, %d working-set answers against org.ReferenceSimulate, %d wrong\n", checked, len(refIdx), wrong)
	return checked, wrong, err
}
