// Package thermal implements a steady-state grid thermal simulator for
// layered 2D/2.5D package stacks, following the modeling approach of
// HotSpot's grid model (the tool the paper uses): every layer is discretized
// on a uniform grid with per-cell heterogeneous material properties taken
// from the floorplan, cells exchange heat laterally within a layer and
// vertically with the layers above and below, and the stack is capped by a
// copper heat spreader (edge 2x the package footprint) and a finned heat
// sink (edge 2x the spreader) that convects to ambient with a fixed heat
// transfer coefficient. The resulting sparse symmetric positive-definite
// system is solved with preconditioned conjugate gradients.
//
// Temperatures are in degrees Celsius, power in watts, plan geometry in
// millimeters (converted to SI internally).
package thermal

import (
	"fmt"
	"math"
	"sync"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/geom"
)

// Config holds solver and cooling-package parameters.
type Config struct {
	// Nx, Ny are the package grid dimensions. Both must be divisible by 4
	// so the 2x-spreader and 4x-sink grids nest exactly. The paper uses a
	// 64 x 64 grid.
	Nx, Ny int
	// AmbientC is the ambient temperature (the paper uses 45 °C).
	AmbientC float64
	// HeatTransferCoeff is the effective convection coefficient h in
	// W/(m²·K) from the sink's top surface. The paper keeps h constant as
	// the sink grows with the interposer (adjusting convective resistance).
	HeatTransferCoeff float64
	// BoardHeatTransferCoeff enables the secondary heat path: convection
	// from the substrate's bottom face to ambient (W/(m²·K)). Zero (the
	// default, matching HotSpot's default and the paper's setup) makes the
	// bottom adiabatic.
	BoardHeatTransferCoeff float64
	// SpreaderK and SinkK are the spreader/sink conductivities (copper).
	SpreaderK, SinkK float64
	// Tolerance is the relative residual target for the CG solve.
	Tolerance float64
	// MaxIterations bounds the CG solve.
	MaxIterations int
	// KernelThreads overrides the package-default worker count for the
	// parallel solver kernel (SetKernelThreads) for models built from this
	// config. 0 keeps the package default; 1 forces serial — what nested
	// parallelism (org's exhaustive scan, chipletd's worker pool) sets to
	// avoid oversubscription. The thread count never changes results: the
	// kernel is bit-deterministic across worker counts (see kernel.go).
	KernelThreads int
	// Preconditioner selects the CG preconditioner: PrecondIC0 (also the
	// empty string) or PrecondMG for the geometric multigrid V-cycle (see
	// mg.go). Grids the coarsener cannot halve fall back to IC(0);
	// PreconditionerName reports what a model actually uses. Like
	// KernelThreads this is a performance knob excluded from cache
	// identity — both preconditioners converge the same system to the
	// configured Tolerance — but unlike KernelThreads the two paths agree
	// only to solver tolerance, not bit-for-bit. Within one
	// preconditioner, results stay bit-identical at every thread count.
	Preconditioner string
}

// DefaultConfig returns the evaluation configuration from Sec. IV: 64x64
// grid, 45 °C ambient, constant heat transfer coefficient. The coefficient
// is calibrated so the 256-core single chip running a high-power benchmark
// at 1 GHz lands well above the 85 °C threshold while large-interposer
// 16-chiplet organizations can pull it below (Fig. 5's shape).
func DefaultConfig() Config {
	return Config{
		Nx: 64, Ny: 64,
		AmbientC:          45,
		HeatTransferCoeff: 2800,
		SpreaderK:         400,
		SinkK:             400,
		Tolerance:         1e-7,
		MaxIterations:     20000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nx <= 0 || c.Ny <= 0 || c.Nx%4 != 0 || c.Ny%4 != 0 {
		return fmt.Errorf("thermal: grid %dx%d must be positive and divisible by 4", c.Nx, c.Ny)
	}
	if c.HeatTransferCoeff <= 0 {
		return fmt.Errorf("thermal: heat transfer coefficient must be positive")
	}
	if c.BoardHeatTransferCoeff < 0 {
		return fmt.Errorf("thermal: board heat transfer coefficient must be non-negative")
	}
	if c.SpreaderK <= 0 || c.SinkK <= 0 {
		return fmt.Errorf("thermal: spreader/sink conductivity must be positive")
	}
	if c.Tolerance <= 0 || c.Tolerance >= 1 {
		return fmt.Errorf("thermal: tolerance %g outside (0,1)", c.Tolerance)
	}
	if c.MaxIterations <= 0 {
		return fmt.Errorf("thermal: max iterations must be positive")
	}
	if c.KernelThreads < 0 {
		return fmt.Errorf("thermal: kernel threads must be non-negative, got %d", c.KernelThreads)
	}
	switch c.Preconditioner {
	case "", PrecondIC0, PrecondMG:
	default:
		return fmt.Errorf("thermal: unknown preconditioner %q (want %q or %q)", c.Preconditioner, PrecondIC0, PrecondMG)
	}
	return nil
}

// link is one symmetric conductance between nodes a and b.
type link struct {
	a, b int32
	g    float64
}

// Model is an assembled thermal network for one stack geometry. It can be
// solved repeatedly for different power maps (e.g. across the
// leakage-temperature fixed point iteration) reusing the assembly.
type Model struct {
	cfg    Config
	stack  floorplan.Stack
	grid   geom.Grid // package grid (chip-layer coordinates)
	nLayer int       // package layers
	nCells int       // Nx*Ny
	nNodes int       // (nLayer+2)*nCells

	diag  []float64 // diagonal of the conductance matrix
	links []link    // assembly-time edge list; dropped by finalize
	// csr is the finalized off-diagonal structure the solve kernel sweeps
	// (see csr.go); built once per model from the edge list.
	csr *csrMatrix
	// convG is the per-sink-cell convection conductance (W/K); its sum
	// times (Tsink - Tamb) is the heat leaving the system.
	convG []float64
	// boardG is the per-substrate-cell conductance of the optional
	// secondary path to ambient (empty slice when disabled).
	boardG []float64

	sinkBase int // node index of the first sink node

	// Exactly one preconditioner is built. mg is non-nil when
	// cfg.Preconditioner selected multigrid and the hierarchy was
	// buildable; otherwise precond holds the IC(0) factorization (the
	// default, and the fallback when the coarsener declines a geometry).
	// The transient solver factors its own shifted IC(0) either way.
	precond     *icPreconditioner
	mg          *mgPreconditioner
	precondName string

	// wsPool recycles CG scratch workspaces and xPool recycled solution
	// vectors (fed by Result.Recycle), so steady-state warm solves do no
	// large allocations. Both are safe for concurrent solves.
	wsPool sync.Pool
	xPool  sync.Pool
}

// Grid returns the package grid used for chip-layer power maps.
func (m *Model) Grid() geom.Grid { return m.grid }

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Stack returns the stack the model was assembled from.
func (m *Model) Stack() floorplan.Stack { return m.stack }

// NumNodes returns the total node count of the network.
func (m *Model) NumNodes() int { return m.nNodes }

// ChipLayerOffset returns the node index of the first chip-layer cell.
func (m *Model) ChipLayerOffset() int { return m.stack.ChipLayer * m.nCells }

// NewModel assembles the thermal network for a stack.
func NewModel(stack floorplan.Stack, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := stack.Validate(); err != nil {
		return nil, err
	}
	g, err := geom.NewGrid(cfg.Nx, cfg.Ny, stack.W, stack.H)
	if err != nil {
		return nil, err
	}
	m := &Model{
		cfg:    cfg,
		stack:  stack,
		grid:   g,
		nLayer: len(stack.Layers),
		nCells: g.NumCells(),
	}
	m.nNodes = (m.nLayer + 2) * m.nCells
	m.sinkBase = (m.nLayer + 1) * m.nCells
	m.diag = make([]float64, m.nNodes)
	m.convG = make([]float64, m.nCells)
	// Every sheet's lateral links, the package's vertical links and the
	// two nesting layers (package→spreader, spreader→sink): an upper
	// bound, since addLink skips degenerate conductances.
	nx, ny := cfg.Nx, cfg.Ny
	m.links = make([]link, 0, (m.nLayer+2)*(2*m.nCells-nx-ny)+(m.nLayer+1)*m.nCells)
	m.assemble()
	m.finalize()
	return m, nil
}

// finalize converts the assembled edge list into the solver's CSR layout,
// derives the preconditioner in use from the same (already column-sorted)
// structure, and drops the edge list — after this point every matvec is a
// gather-only row sweep over the CSR arrays. IC(0) is factored only when
// multigrid was not requested or could not be built.
func (m *Model) finalize() {
	m.csr = newCSR(m.nNodes, m.links)
	m.links = nil
	if m.cfg.Preconditioner == PrecondMG {
		if mg := newMultigrid(m.nLayer+2, m.cfg.Nx, m.cfg.Ny, m.diag, m.csr); mg != nil {
			m.mg = mg
			m.precondName = PrecondMG
			return
		}
	}
	m.precond = newICFromCSR(m.nNodes, m.diag, m.csr)
	m.precondName = PrecondIC0
}

// PreconditionerName reports the preconditioner the model's solves use:
// PrecondMG when multigrid was requested and buildable, else PrecondIC0.
func (m *Model) PreconditionerName() string { return m.precondName }

// addLink registers a symmetric conductance g between nodes a and b.
func (m *Model) addLink(a, b int, g float64) {
	if g <= 0 || math.IsNaN(g) || math.IsInf(g, 0) {
		return
	}
	m.links = append(m.links, link{a: int32(a), b: int32(b), g: g})
	m.diag[a] += g
	m.diag[b] += g
}

func (m *Model) assemble() {
	nx, ny := m.cfg.Nx, m.cfg.Ny
	nc := m.nCells
	cw := m.grid.CellW() * 1e-3 // meters
	ch := m.grid.CellH() * 1e-3
	area := cw * ch

	// Rasterize every package layer's properties.
	props := make([][]floorplan.LayerProps, m.nLayer)
	for l, layer := range m.stack.Layers {
		props[l] = floorplan.RasterizeLayer(layer, m.grid)
	}

	// Lateral conduction within each package layer.
	for l := 0; l < m.nLayer; l++ {
		t := m.stack.Layers[l].ThicknessM
		base := l * nc
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				c := m.grid.Index(ix, iy)
				if ix+1 < nx {
					c2 := m.grid.Index(ix+1, iy)
					r := 0.5*cw/(props[l][c].LatK*t*ch) + 0.5*cw/(props[l][c2].LatK*t*ch)
					m.addLink(base+c, base+c2, 1/r)
				}
				if iy+1 < ny {
					c2 := m.grid.Index(ix, iy+1)
					r := 0.5*ch/(props[l][c].LatK*t*cw) + 0.5*ch/(props[l][c2].LatK*t*cw)
					m.addLink(base+c, base+c2, 1/r)
				}
			}
		}
	}

	// Vertical conduction between adjacent package layers.
	for l := 0; l+1 < m.nLayer; l++ {
		tLo := m.stack.Layers[l].ThicknessM
		tHi := m.stack.Layers[l+1].ThicknessM
		for c := 0; c < nc; c++ {
			r := 0.5*tLo/(props[l][c].VertK*area) + 0.5*tHi/(props[l+1][c].VertK*area)
			m.addLink(l*nc+c, (l+1)*nc+c, 1/r)
		}
	}

	// Spreader: 2x footprint edge, same node count, cells 2cw x 2ch. The
	// center quarter sits exactly above the package: package cell (ix, iy)
	// nests in spreader cell ((ix+nx/2)/2, (iy+ny/2)/2).
	sprBase := m.nLayer * nc
	tTop := m.stack.Layers[m.nLayer-1].ThicknessM
	kTop := props[m.nLayer-1]
	tSpr := floorplan.SpreaderThicknessM
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			c := m.grid.Index(ix, iy)
			sc := m.grid.Index((ix+nx/2)/2, (iy+ny/2)/2)
			r := 0.5*tTop/(kTop[c].VertK*area) + 0.5*tSpr/(m.cfg.SpreaderK*area)
			m.addLink((m.nLayer-1)*nc+c, sprBase+sc, 1/r)
		}
	}
	// Spreader lateral conduction (cells 2cw x 2ch).
	m.addUniformLateral(sprBase, 2*cw, 2*ch, tSpr, m.cfg.SpreaderK)

	// Sink: 4x footprint edge, same node count, cells 4cw x 4ch. Spreader
	// cell (ix, iy) nests in sink cell ((ix+nx/2)/2, (iy+ny/2)/2).
	tSink := floorplan.SinkThicknessM
	sprArea := 4 * area
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			sc := m.grid.Index(ix, iy)
			kc := m.grid.Index((ix+nx/2)/2, (iy+ny/2)/2)
			r := 0.5*tSpr/(m.cfg.SpreaderK*sprArea) + 0.5*tSink/(m.cfg.SinkK*sprArea)
			m.addLink(sprBase+sc, m.sinkBase+kc, 1/r)
		}
	}
	// Sink lateral conduction (cells 4cw x 4ch).
	m.addUniformLateral(m.sinkBase, 4*cw, 4*ch, tSink, m.cfg.SinkK)

	// Convection from the sink's top surface to ambient: applied per sink
	// cell over its full area; equivalently a convective resistance
	// 1/(h*A_sink) kept proportional to sink area as in the paper.
	sinkCellArea := 16 * area
	for c := 0; c < nc; c++ {
		g := m.cfg.HeatTransferCoeff * sinkCellArea
		m.convG[c] = g
		m.diag[m.sinkBase+c] += g
	}

	// Optional secondary path: substrate bottom to ambient through half the
	// substrate thickness in series with board convection.
	if m.cfg.BoardHeatTransferCoeff > 0 {
		m.boardG = make([]float64, nc)
		t0 := m.stack.Layers[0].ThicknessM
		for c := 0; c < nc; c++ {
			r := 0.5*t0/(props[0][c].VertK*area) + 1/(m.cfg.BoardHeatTransferCoeff*area)
			m.boardG[c] = 1 / r
			m.diag[c] += m.boardG[c]
		}
	}
}

// addUniformLateral adds lateral links for a homogeneous layer grid of
// nx x ny cells of size cw x ch (meters) starting at node index base.
func (m *Model) addUniformLateral(base int, cw, ch, t, k float64) {
	nx, ny := m.cfg.Nx, m.cfg.Ny
	gx := k * t * ch / cw
	gy := k * t * cw / ch
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			c := m.grid.Index(ix, iy)
			if ix+1 < nx {
				m.addLink(base+c, base+m.grid.Index(ix+1, iy), gx)
			}
			if iy+1 < ny {
				m.addLink(base+c, base+m.grid.Index(ix, iy+1), gy)
			}
		}
	}
}
