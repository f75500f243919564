package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"chiplet25d/internal/cost"
	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/noc"
	"chiplet25d/internal/org"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
	"chiplet25d/internal/serve"
	"chiplet25d/internal/thermal"
)

// daemonPrecond is chipletd's default -precond; the in-process probes and
// reference checks use it so they solve the same systems the daemon does.
const daemonPrecond = thermal.PrecondMG

// Traced-run sample sizes: leading inputs of each generated sequence.
const (
	probeSolves      = 8
	probeSearches    = 4
	probePredictions = 256
	probeTCOBatches  = 8
	probeTemplates   = 64
	probeEncodes     = 16
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (no spans inside the program). Spans of one probe share a root.
type span struct {
	Name   string             `json:"name"`
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Start  time.Time          `json:"start"`
	End    time.Time          `json:"end"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; the traced run writes them out at the end.
type tracer struct{ spans []span }

func (t *tracer) start(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: time.Now()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Now() }

func (t *tracer) attr(id int, k string, v float64) {
	sp := &t.spans[id-1]
	if sp.Attrs == nil {
		sp.Attrs = map[string]float64{}
	}
	sp.Attrs[k] = v
}

// durations returns the durations of every span with this name, in unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name {
			out = append(out, float64(sp.End.Sub(sp.Start))/float64(unit))
		}
	}
	return out
}

// attrs returns one attribute over every span with this name.
func (t *tracer) attrs(name, k string) []float64 {
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name {
			out = append(out, sp.Attrs[k])
		}
	}
	return out
}

// layerTable accumulates per-layer metrics with their sample counts.
type layerTable struct {
	metrics map[string]metric
	samples map[string]int
}

func (lt *layerTable) set(name string, v float64, unit string, n int) {
	lt.metrics[name] = metric{Value: v, Unit: unit}
	lt.samples[name] = n
}

// setMedian records the median of xs.
func (lt *layerTable) setMedian(name string, xs []float64, unit string) {
	lt.set(name, median(xs), unit, len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traceLayers is the traced run: /metrics deltas from the untraced phase,
// in-process layer probes on the generated inputs of all three workloads
// (so every run reports every layer), and an in-process handler replay of
// this workload's own leading requests.
func traceLayers(o options, p *plan, ph phase, before, after promSamples) (map[string]metric, error) {
	lt := &layerTable{metrics: map[string]metric{}, samples: map[string]int{}}
	ops := float64(len(p.seq))

	// Counters the daemon exports, over the timed phase.
	var sumHits, sumKeys int
	for _, r := range ph.results {
		sumHits += r.summary.cacheHits
		sumKeys += r.summary.uniqueKeys
	}
	hits := delta(before, after, "chipletd_cache_hits_total") + float64(sumHits)
	lookups := hits + delta(before, after, "chipletd_cache_misses_total") + float64(sumKeys-sumHits)
	n := len(p.seq)
	lt.set("serve.sims_per_op", delta(before, after, "chipletd_thermal_sims_total")/ops, "count", n)
	lt.set("serve.cg_iters_per_op", delta(before, after, "chipletd_cg_iterations_total")/ops, "count", n)
	lt.set("serve.cache_hit_ratio", ratio(hits, lookups), "1", int(lookups))
	items := delta(before, after, "chipletd_batch_items_total")
	lt.set("serve.coalesce_ratio", ratio(delta(before, after, "chipletd_batch_coalesced_total"), items), "1", int(items))
	qn := delta(before, after, `chipletd_stage_duration_seconds_count{stage="pool.queue_wait"}`)
	qs := delta(before, after, `chipletd_stage_duration_seconds_sum{stage="pool.queue_wait"}`)
	lt.set("serve.queue_wait_ms", ratio(qs*1e3, qn), "ms", int(qn))
	misses := delta(before, after, "chipletd_eval_memo_misses_total")
	lt.set("org.model_reuse_ratio", ratio(delta(before, after, "chipletd_eval_model_reuses_total"), misses), "1", int(misses))

	tr := &tracer{}
	if err := probeLayers(o, tr, lt); err != nil {
		return nil, err
	}
	if err := probeServe(tr, lt, p, ph); err != nil {
		return nil, err
	}

	names := make([]string, 0, len(lt.metrics))
	for k := range lt.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-36s %14.6g %-6s n=%d\n", k, lt.metrics[k].Value, lt.metrics[k].Unit, lt.samples[k])
	}
	if err := writeSpans(o, tr); err != nil {
		return nil, err
	}
	return lt.metrics, nil
}

// probeLayers times the model layers in-process on the seed's generated
// inputs: solve-cold's leading solves, search-sweep's leading searches and
// sweep-warm's TCO items and sweep templates.
func probeLayers(o options, tr *tracer, lt *layerTable) error {
	ctx := context.Background()
	cold, err := solveCold(o.seed, o.seconds)
	if err != nil {
		return err
	}
	var solves []serve.SolveRequest
	for i := 0; i < probeSolves && i < len(cold.seq); i++ {
		var r serve.SolveRequest
		if err := json.Unmarshal(cold.seq[i].body, &r); err != nil {
			return err
		}
		solves = append(solves, r)
	}

	// One cold evaluation per input, layer by layer, then the same
	// evaluation through a fresh engine; the difference is the residual
	// the layer split does not explain.
	var residuals []float64
	for _, req := range solves {
		cfg, b, _, op, err := solveInputs(req, 64)
		if err != nil {
			return err
		}
		cfg.WarmStart = true
		root := tr.start("probe.solve", 0)

		sp := tr.start("floorplan.build", root)
		pl, err := req.Placement.Resolve()
		if err != nil {
			return err
		}
		stack, err := floorplan.BuildStack(pl)
		if err != nil {
			return err
		}
		cores, err := pl.Cores()
		if err != nil {
			return err
		}
		tr.end(sp)

		sp = tr.start("noc.mesh", root)
		mesh, err := noc.MeshPower(pl, op, req.Cores, b.Traffic, cfg.Link, cfg.Router)
		if err != nil {
			return err
		}
		tr.end(sp)

		sp = tr.start("thermal.model", root)
		m, err := thermal.NewModel(stack, cfg.Thermal)
		if err != nil {
			return err
		}
		tr.end(sp)

		active, err := power.MintempActive(req.Cores)
		if err != nil {
			return err
		}
		w := power.Workload{RefCoreW: b.RefCoreW, Op: op, Active: active, NoCW: mesh.TotalW(), Leakage: cfg.Leakage}
		pmap := firstPowerMap(m, cores, w)
		sp = tr.start("thermal.solve", root)
		res, err := m.SolveCtx(ctx, pmap)
		if err != nil {
			return err
		}
		tr.end(sp)
		tr.attr(sp, "cg_iters", float64(res.Iterations))

		sp = tr.start("thermal.readback", root)
		for _, c := range cores {
			_ = res.MaxOverRect(c.Rect)
			_ = res.AvgOverRect(c.Rect)
		}
		tr.end(sp)

		sp = tr.start("power.leakage_loop", root)
		sim, err := power.SimulateCtx(ctx, m, cores, w, cfg.SimOpts)
		if err != nil {
			return err
		}
		tr.end(sp)
		tr.attr(sp, "iters", float64(sim.Iterations))

		eng, err := org.NewEngine(cfg)
		if err != nil {
			return err
		}
		sp = tr.start("org.simulate", root)
		if _, _, err := eng.Simulate(ctx, b, pl, op, req.Cores); err != nil {
			return err
		}
		tr.end(sp)
		tr.end(root)

		last := func(name string) float64 {
			d := tr.durations(name, time.Millisecond)
			return d[len(d)-1]
		}
		residuals = append(residuals, last("org.simulate")-
			(last("floorplan.build")+last("noc.mesh")+last("thermal.model")+last("power.leakage_loop")))
	}
	us, ms := time.Microsecond, time.Millisecond
	lt.setMedian("floorplan.build_us", tr.durations("floorplan.build", us), "us")
	lt.setMedian("noc.mesh_us", tr.durations("noc.mesh", us), "us")
	lt.setMedian("thermal.model_ms", tr.durations("thermal.model", ms), "ms")
	lt.setMedian("thermal.solve_ms", tr.durations("thermal.solve", ms), "ms")
	lt.setMedian("thermal.cg_iters_per_solve", tr.attrs("thermal.solve", "cg_iters"), "count")
	lt.setMedian("thermal.readback_us", tr.durations("thermal.readback", us), "us")
	lt.setMedian("power.leakage_loop_ms", tr.durations("power.leakage_loop", ms), "ms")
	lt.setMedian("power.leakage_iters_per_sim", tr.attrs("power.leakage_loop", "iters"), "count")
	lt.setMedian("org.simulate_ms", tr.durations("org.simulate", ms), "ms")
	lt.setMedian("org.reconcile_residual_ms", residuals, "ms")
	fmt.Printf("reconciliation (solve-cold inputs): org.simulate %.3f ms = floorplan %.3f + noc %.3f + model %.3f + leakage loop %.3f + residual %.3f ms (medians)\n",
		lt.metrics["org.simulate_ms"].Value, lt.metrics["floorplan.build_us"].Value/1e3, lt.metrics["noc.mesh_us"].Value/1e3,
		lt.metrics["thermal.model_ms"].Value, lt.metrics["power.leakage_loop_ms"].Value, median(residuals))

	// search-sweep's searches in sequence order on one shared engine,
	// after calibrating the spatial surrogate for each benchmark they use.
	sweep, err := searchSweep(o.seed, o.seconds)
	if err != nil {
		return err
	}
	var searches []serve.SearchRequest
	for i := 0; i < probeSearches && i < len(sweep.seq); i++ {
		var r serve.SearchRequest
		if err := json.Unmarshal(sweep.seq[i].body, &r); err != nil {
			return err
		}
		searches = append(searches, r)
	}
	cfg0, err := searchConfig(searches[0])
	if err != nil {
		return err
	}
	eng, err := org.NewEngine(cfg0)
	if err != nil {
		return err
	}
	calibrated := map[string]bool{}
	for _, r := range searches {
		if calibrated[r.Benchmark] {
			continue
		}
		calibrated[r.Benchmark] = true
		b, err := perf.ByName(r.Benchmark)
		if err != nil {
			return err
		}
		sp := tr.start("surrogate.calibrate", 0)
		if _, err := eng.SpatialCalibration(ctx, b, 4); err != nil {
			return err
		}
		tr.end(sp)
	}
	st0 := eng.Stats()
	for _, r := range searches {
		cfg, err := searchConfig(r)
		if err != nil {
			return err
		}
		sr, err := org.NewSearcherWithEngine(cfg, eng)
		if err != nil {
			return err
		}
		sp := tr.start("org.search", 0)
		res, err := sr.WithContext(ctx).Optimize()
		if err != nil {
			return err
		}
		tr.end(sp)
		tr.attr(sp, "full_sims", float64(res.ThermalSims))
		tr.attr(sp, "surrogate", float64(res.SurrogateHits))
	}
	st1 := eng.Stats()
	lt.setMedian("surrogate.calibrate_s", tr.durations("surrogate.calibrate", time.Second), "s")
	lt.setMedian("org.search_ms", tr.durations("org.search", ms), "ms")
	lt.set("org.full_sims_per_search", mean(tr.attrs("org.search", "full_sims")), "count", len(searches))
	lt.set("org.surrogate_decisions_per_search", mean(tr.attrs("org.search", "surrogate")), "count", len(searches))
	memoHits, memoMisses := float64(st1.Hits-st0.Hits), float64(st1.Misses-st0.Misses)
	lt.set("org.memo_hit_ratio", ratio(memoHits, memoHits+memoMisses), "1", int(memoHits+memoMisses))

	// Spatial predictions on the calibrated engine, over solve-cold's
	// placements and operating points.
	b0, err := perf.ByName(searches[0].Benchmark)
	if err != nil {
		return err
	}
	for i := 0; i < probePredictions; i++ {
		req := cold.seq[i%len(cold.seq)].body
		var r serve.SolveRequest
		if err := json.Unmarshal(req, &r); err != nil {
			return err
		}
		pl, err := r.Placement.Resolve()
		if err != nil {
			return err
		}
		op, err := dvfs(r.FreqMHz)
		if err != nil {
			return err
		}
		sp := tr.start("surrogate.predict", 0)
		if _, err := eng.SpatialPredictPeakC(ctx, b0, pl, op, r.Cores); err != nil {
			return err
		}
		tr.end(sp)
	}
	lt.setMedian("surrogate.predict_us", tr.durations("surrogate.predict", us), "us")

	// TCO elaborations and sweep expansion on sweep-warm's batches.
	warm, err := sweepWarm(o.seed, o.seconds)
	if err != nil {
		return err
	}
	for i := 0; i < probeTemplates && i < len(warm.seq); i++ {
		var br serve.BatchRequest
		if err := json.Unmarshal(warm.seq[i].body, &br); err != nil {
			return err
		}
		sp := tr.start("serve.expand", 0)
		exp, err := br.Sweep.Expand()
		if err != nil {
			return err
		}
		tr.end(sp)
		if i >= probeTCOBatches {
			continue
		}
		for _, it := range append(br.Items, exp...) {
			if it.TCO == nil {
				continue
			}
			t, lane, err := tcoInputs(*it.TCO)
			if err != nil {
				return err
			}
			sp := tr.start("cost.elaborate", 0)
			if _, err := t.ElaborateServer(cost.DefaultParams(), lane); err != nil {
				return err
			}
			tr.end(sp)
		}
	}
	lt.setMedian("serve.expand_us", tr.durations("serve.expand", us), "us")
	lt.setMedian("cost.elaborate_us", tr.durations("cost.elaborate", us), "us")
	return nil
}

// firstPowerMap is the leakage loop's first power map: every active core
// at the leakage model's reference temperature plus its NoC share.
func firstPowerMap(m *thermal.Model, cores []floorplan.Core, w power.Workload) []float64 {
	g := m.Grid()
	pmap := make([]float64, g.NumCells())
	nocPerCore := w.NoCW / float64(max(w.ActiveCount(), 1))
	for _, c := range cores {
		if w.Active[c.Row*floorplan.CoresPerEdge+c.Col] {
			g.RasterizeAdd(pmap, c.Rect, power.CorePower(w.RefCoreW, w.Op, w.Leakage.RefC, w.Leakage)+nocPerCore)
		}
	}
	return pmap
}

// probeServe replays this workload's leading requests through an
// in-process chipletd handler (same defaults, same set-up) and times the
// response encoding of its kept answers.
func probeServe(tr *tracer, lt *layerTable, p *plan, ph phase) error {
	opts := serve.DefaultOptions()
	opts.Preconditioner = daemonPrecond
	opts.WarmStart = true
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	h := serve.New(opts).Handler()
	call := func(path string, body []byte) (int, []byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes(), nil
	}
	if err := p.warm(call); err != nil {
		return fmt.Errorf("in-process set-up: %w", err)
	}
	var e2e []float64
	for i := 0; i < p.replay && i < len(p.seq); i++ {
		sp := tr.start("serve.handler", 0)
		status, _, _ := call(p.seq[i].path, p.seq[i].body)
		tr.end(sp)
		if status != http.StatusOK {
			return fmt.Errorf("in-process replay of op %d: status %d", i, status)
		}
		e2e = append(e2e, float64(ph.results[i].latency)/float64(time.Millisecond))
	}
	handler := tr.durations("serve.handler", time.Millisecond)
	lt.setMedian("serve.handler_ms", handler, "ms")
	lt.set("serve.transport_ms", median(e2e)-median(handler), "ms", len(e2e))
	lt.set("trace.overhead_ratio", ratio(median(handler), median(e2e)), "1", len(e2e))
	fmt.Printf("tracing overhead: in-process handler p50 %.3f ms vs untraced end-to-end p50 %.3f ms over the same %d requests (ratio %.3f)\n",
		median(handler), median(e2e), len(e2e), ratio(median(handler), median(e2e)))

	for i, r := range ph.results {
		if len(tr.durations("serve.encode", time.Microsecond)) >= probeEncodes {
			break
		}
		if r.body == nil || r.status != http.StatusOK {
			continue
		}
		v := responseValue(p.seq[i].path)
		if err := json.Unmarshal(r.body, v); err != nil {
			return err
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		sp := tr.start("serve.encode", 0)
		if err := enc.Encode(v); err != nil {
			return err
		}
		tr.end(sp)
	}
	lt.setMedian("serve.encode_us", tr.durations("serve.encode", time.Microsecond), "us")
	return nil
}

// responseValue returns a pointer to the response type of an endpoint.
func responseValue(path string) any {
	switch path {
	case "/v1/thermal/solve":
		return &serve.SolveResponse{}
	case "/v1/org/search":
		return &serve.SearchResponse{}
	default:
		return &serve.BatchResponse{}
	}
}

// tcoInputs resolves a TCO request into the elaboration's inputs the way
// chipletd does at its defaults.
func tcoInputs(req serve.TCORequest) (cost.TCOParams, cost.LaneDesign, error) {
	t := cost.DefaultTCOParams()
	t.Node = req.TechNode
	if req.MaxLanesPerServer != nil {
		t.MaxLanesPerServer = *req.MaxLanesPerServer
	}
	lane := cost.LaneDesign{Chiplets: req.Chiplets, InterposerEdgeMM: req.InterposerMM,
		LanePowerW: req.LanePowerW, LaneGIPS: req.LaneGIPS}
	if req.Chiplets == 1 {
		lane.InterposerEdgeMM = 0
	}
	if req.Benchmark != "" {
		b, err := perf.ByName(req.Benchmark)
		if err != nil {
			return t, lane, err
		}
		op, err := dvfs(req.FreqMHz)
		if err != nil {
			return t, lane, err
		}
		lane.LanePowerW = power.TotalNominal(b.RefCoreW, req.Cores, op, power.DefaultLeakage())
		lane.LaneGIPS = b.IPS(op, req.Cores)
	}
	return t, lane, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// writeSpans writes the traced run's spans next to the built binaries.
func writeSpans(o options, tr *tracer) error {
	path := filepath.Join(binDir, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	b, err := json.MarshalIndent(tr.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	return nil
}
