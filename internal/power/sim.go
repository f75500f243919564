package power

import (
	"context"
	"fmt"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/obs"
	"chiplet25d/internal/thermal"
)

// SimOptions controls the leakage-temperature fixed-point iteration.
type SimOptions struct {
	// MaxIterations bounds the leakage loop (the paper iterates HotSpot
	// with updated leakage until the temperature converges).
	MaxIterations int
	// ConvergenceC is the per-core temperature change threshold (°C) below
	// which the loop stops.
	ConvergenceC float64
	// DisableLeakageFeedback freezes leakage at the reference temperature
	// (used by the ablation bench).
	DisableLeakageFeedback bool
}

// DefaultSimOptions returns the standard loop settings.
func DefaultSimOptions() SimOptions {
	return SimOptions{MaxIterations: 12, ConvergenceC: 0.1}
}

// SimResult summarizes one converged steady-state power/thermal simulation.
type SimResult struct {
	// PeakC is the peak chip-layer temperature (Eq. (6)'s left side).
	PeakC float64
	// TotalPowerW is the converged total power including
	// temperature-adjusted leakage and NoC power.
	TotalPowerW float64
	// CoreTemps holds the converged per-core temperatures (°C) indexed by
	// logical core id (row*16+col); inactive cores report their tile
	// temperature too.
	CoreTemps []float64
	// Iterations is the number of leakage-loop iterations used.
	Iterations int
	// CGIterations is the total number of conjugate-gradient iterations
	// across all thermal solves of the leakage loop (the dominant cost of a
	// simulation, exported for observability).
	CGIterations int
	// Thermal is the final thermal solution.
	Thermal *thermal.Result
}

// Workload describes what runs on the machine for one simulation: the
// per-core reference power at the nominal DVFS point and 60 °C, the
// operating point, the active-core mask (length 256, logical mesh order),
// and the total NoC power, which is spread uniformly over the active cores'
// tiles (the paper: NoC power has negligible impact on the thermal profile
// but is accounted for).
type Workload struct {
	RefCoreW float64
	Op       DVFSPoint
	Active   []bool
	NoCW     float64
	Leakage  LeakageModel
}

// Validate checks the workload.
func (w Workload) Validate() error {
	if w.RefCoreW <= 0 {
		return fmt.Errorf("power: reference core power must be positive, got %g", w.RefCoreW)
	}
	if len(w.Active) != floorplan.NumCores {
		return fmt.Errorf("power: active mask has %d entries, want %d", len(w.Active), floorplan.NumCores)
	}
	if w.NoCW < 0 {
		return fmt.Errorf("power: negative NoC power %g", w.NoCW)
	}
	if w.Op.FreqMHz <= 0 || w.Op.VoltageV <= 0 {
		return fmt.Errorf("power: invalid operating point %+v", w.Op)
	}
	return w.Leakage.Validate()
}

// ActiveCount returns the number of active cores in the workload.
func (w Workload) ActiveCount() int {
	n := 0
	for _, a := range w.Active {
		if a {
			n++
		}
	}
	return n
}

// Simulate runs the coupled power/thermal fixed point on an assembled
// thermal model: per-core leakage depends on the core's temperature, which
// depends on the power map; the loop iterates, warm-starting each solve,
// until the temperature field converges.
func Simulate(m *thermal.Model, cores []floorplan.Core, w Workload, opts SimOptions) (*SimResult, error) {
	return SimulateCtx(context.Background(), m, cores, w, opts)
}

// SimulateCtx is Simulate with cooperative cancellation: ctx is checked
// between leakage-loop iterations and inside each CG solve, so abandoned
// requests stop burning CPU promptly.
func SimulateCtx(ctx context.Context, m *thermal.Model, cores []floorplan.Core, w Workload, opts SimOptions) (*SimResult, error) {
	return SimulateSeededCtx(ctx, m, cores, w, opts, nil)
}

// SimulateSeededCtx is SimulateCtx with a temperature-field seed for the
// first thermal solve of the leakage loop. Within one simulation the loop
// already warm-starts each solve from the previous iteration's field; seed
// extends that reuse across simulations — the org engine passes the
// converged field of a nearby search point so even the first solve starts
// close to the fixed point. A nil or invalid seed (wrong length, NaN) falls
// back to the ambient cold start; the seed never changes the converged
// answer, only how fast CG reaches it.
func SimulateSeededCtx(ctx context.Context, m *thermal.Model, cores []floorplan.Core, w Workload, opts SimOptions, seed []float64) (*SimResult, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if len(cores) != floorplan.NumCores {
		return nil, fmt.Errorf("power: core map has %d cores, want %d", len(cores), floorplan.NumCores)
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 1
	}
	active := w.ActiveCount()
	nocPerCore := 0.0
	if active > 0 {
		nocPerCore = w.NoCW / float64(active)
	}

	ctx, loop := obs.Start(ctx, "power.leakage_loop")
	defer loop.End()
	grid := m.Grid()
	temps := make([]float64, floorplan.NumCores)
	for i := range temps {
		temps[i] = w.Leakage.RefC
	}
	var res *thermal.Result
	var totalW float64
	cgIters := 0
	iter := 0
	// One power-map buffer for the whole fixed point; together with the
	// model's pooled solver workspaces and Recycle below, iterating the
	// loop does no per-iteration large allocations.
	pmap := make([]float64, grid.NumCells())
	for iter = 1; iter <= opts.MaxIterations; iter++ {
		for i := range pmap {
			pmap[i] = 0
		}
		totalW = 0
		for _, c := range cores {
			id := c.Row*floorplan.CoresPerEdge + c.Col
			if !w.Active[id] {
				continue // idle cores sleep at ~0 W
			}
			t := temps[id]
			if opts.DisableLeakageFeedback {
				t = w.Leakage.RefC
			}
			p := CorePower(w.RefCoreW, w.Op, t, w.Leakage) + nocPerCore
			grid.RasterizeAdd(pmap, c.Rect, p)
			totalW += p
		}
		var next *thermal.Result
		var err error
		if res == nil && seed != nil {
			next, err = m.SolveSeededCtx(ctx, pmap, seed)
		} else {
			next, err = m.SolveWarmCtx(ctx, pmap, res)
		}
		if err != nil {
			return nil, err
		}
		if res != nil {
			// The superseded field has served as the warm start; hand its
			// buffer back to the model's pool.
			res.Recycle()
		}
		res = next
		cgIters += res.Iterations
		maxDelta := 0.0
		for _, c := range cores {
			id := c.Row*floorplan.CoresPerEdge + c.Col
			t := res.AvgOverRect(c.Rect)
			if d := abs(t - temps[id]); d > maxDelta {
				maxDelta = d
			}
			temps[id] = t
		}
		if opts.DisableLeakageFeedback || maxDelta < opts.ConvergenceC {
			break
		}
	}
	if iter > opts.MaxIterations {
		iter = opts.MaxIterations
	}
	loop.SetAttr("iterations", iter)
	loop.SetAttr("cg_iterations", cgIters)
	loop.SetAttr("active_cores", active)
	peak := res.PeakC()
	loop.SetAttr("peak_c", peak)
	return &SimResult{
		PeakC:        peak,
		TotalPowerW:  totalW,
		CoreTemps:    temps,
		Iterations:   iter,
		CGIterations: cgIters,
		Thermal:      res,
	}, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
