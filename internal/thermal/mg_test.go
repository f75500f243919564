package thermal

import (
	"math"
	"slices"
	"testing"
)

// mgModel builds the same uniform-grid test model as gridModel but with the
// multigrid preconditioner selected.
func mgModel(t testing.TB, nx, kernelThreads int) (*Model, []float64) {
	t.Helper()
	m, pmap := gridModel(t, nx, kernelThreads)
	cfg := m.Config()
	cfg.Preconditioner = PrecondMG
	mg, err := NewModel(m.Stack(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mg, pmap
}

// TestMGSelectedAndFallback pins the selection rules: multigrid engages on
// coarsenable grids, falls back to IC(0) on grids too small to halve, and
// the default config keeps IC(0).
func TestMGSelectedAndFallback(t *testing.T) {
	m, _ := mgModel(t, 16, 1)
	if got := m.PreconditionerName(); got != PrecondMG {
		t.Errorf("16x16 with Preconditioner=mg: using %q, want %q", got, PrecondMG)
	}
	m, _ = mgModel(t, 4, 1)
	if got := m.PreconditionerName(); got != PrecondIC0 {
		t.Errorf("4x4 with Preconditioner=mg: using %q, want fallback %q", got, PrecondIC0)
	}
	m, _ = gridModel(t, 16, 1)
	if got := m.PreconditionerName(); got != PrecondIC0 {
		t.Errorf("default config: using %q, want %q", got, PrecondIC0)
	}
}

func TestConfigValidatePreconditioner(t *testing.T) {
	cfg := DefaultConfig()
	for _, ok := range []string{"", PrecondIC0, PrecondMG} {
		cfg.Preconditioner = ok
		if err := cfg.Validate(); err != nil {
			t.Errorf("Preconditioner=%q: unexpected error %v", ok, err)
		}
	}
	cfg.Preconditioner = "amg"
	if err := cfg.Validate(); err == nil {
		t.Error("Preconditioner=amg: want validation error, got nil")
	}
}

// TestMGMatchesIC0 is the core differential: the multigrid-preconditioned
// solve must agree with the IC(0)-preconditioned solve node-for-node. Both
// converge the same SPD system to the same relative residual, so the
// fields differ only by the solver tolerance's error floor.
// tightTolerance rebuilds a model with the CG tolerance pinned far below
// the comparison bound: at the default 1e-7 each solver stops with ~1e-6 °C
// of leftover iteration error, so two independently-iterated fields can
// differ by twice that while both being correct. Differential comparisons
// must drive both solves well past the bound they assert.
func tightTolerance(t testing.TB, m *Model) *Model {
	t.Helper()
	cfg := m.Config()
	cfg.Tolerance = 1e-10
	tm, err := NewModel(m.Stack(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestMGMatchesIC0(t *testing.T) {
	for _, nx := range []int{16, 32} {
		ref, pmap := gridModel(t, nx, 1)
		ref = tightTolerance(t, ref)
		want, err := ref.Solve(pmap)
		if err != nil {
			t.Fatalf("nx=%d ic0 solve: %v", nx, err)
		}
		m, _ := mgModel(t, nx, 1)
		m = tightTolerance(t, m)
		got, err := m.Solve(pmap)
		if err != nil {
			t.Fatalf("nx=%d mg solve: %v", nx, err)
		}
		for i := range want.T {
			if d := math.Abs(got.T[i] - want.T[i]); d > 1e-6 {
				t.Fatalf("nx=%d: T[%d] differs by %g °C (mg %v, ic0 %v)",
					nx, i, d, got.T[i], want.T[i])
			}
		}
		if got.Iterations >= want.Iterations {
			t.Errorf("nx=%d: mg took %d iterations, ic0 %d — multigrid should cut iterations",
				nx, got.Iterations, want.Iterations)
		}
	}
}

// TestMGSerialParallelEquality extends the golden determinism test to the
// multigrid path: bit-identical fields at kernel threads {1, 2, 4} with
// striping forced on, per the kernel.go contract.
func TestMGSerialParallelEquality(t *testing.T) {
	forceStriping(t, 8, 1)
	for _, nx := range []int{16, 32} {
		serial, pmap := mgModel(t, nx, 1)
		ref, err := serial.Solve(pmap)
		if err != nil {
			t.Fatalf("nx=%d serial mg solve: %v", nx, err)
		}
		for _, threads := range []int{2, 4} {
			m, _ := mgModel(t, nx, threads)
			got, err := m.Solve(pmap)
			if err != nil {
				t.Fatalf("nx=%d threads=%d mg solve: %v", nx, threads, err)
			}
			if got.Iterations != ref.Iterations {
				t.Errorf("nx=%d threads=%d: %d iterations, serial took %d",
					nx, threads, got.Iterations, ref.Iterations)
			}
			for i := range ref.T {
				if got.T[i] != ref.T[i] { // bitwise, not approximate
					t.Fatalf("nx=%d threads=%d: T[%d] = %v, serial %v",
						nx, threads, i, got.T[i], ref.T[i])
				}
			}
		}
	}
}

// TestMGIterationBudget64 is the CG-iteration gate ci.sh runs: the cold
// 64x64 multigrid solve must converge within a pinned iteration budget.
// The hierarchy currently converges the production grid in 7 iterations
// (vs ~80 for IC(0) at the default tolerance); the budget at 12 gives
// comfortable headroom while still catching any regression that degrades
// the preconditioner (a broken transfer or smoother typically costs 5-10x,
// not 1.7x).
func TestMGIterationBudget64(t *testing.T) {
	m, pmap := mgModel(t, 64, 0)
	res, err := m.Solve(pmap)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 12
	if res.Iterations > budget {
		t.Errorf("cold 64x64 mg solve took %d CG iterations, budget is %d", res.Iterations, budget)
	}
	t.Logf("cold 64x64 mg solve: %d iterations, residual %.3g", res.Iterations, res.Residual)
}

// TestNewModelAllocBudget64 is the allocation gate ci.sh runs next to the
// warm-solve budget: a cold 64x64 multigrid model build sizes every CSR,
// transfer and Galerkin buffer up front (symbolic passes, exact bounds) and
// factors no unused IC(0), so it makes a few hundred allocations. Per-row
// sorting closures or append-grown product buffers put it back in the tens
// of thousands.
func TestNewModelAllocBudget64(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget holds only uninstrumented")
	}
	m, _ := mgModel(t, 64, 1)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := NewModel(m.Stack(), m.Config()); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 400
	if allocs > budget {
		t.Fatalf("64x64 mg NewModel made %.0f allocations, budget is %d", allocs, budget)
	}
	t.Logf("64x64 mg NewModel: %.0f allocations", allocs)
}

// TestMGTransferRowSums checks prolongation reproduces constants (every
// row of P sums to exactly 1, boundary clamping included) — the property
// that keeps the coarse correction consistent with the fine equations.
func TestMGTransferRowSums(t *testing.T) {
	tr := newTransferOp(3, 16, 8)
	for i := 0; i < tr.nFine; i++ {
		s := 0.0
		for e := tr.rowPtr[i]; e < tr.rowPtr[i+1]; e++ {
			s += tr.w[e]
		}
		if math.Abs(s-1) > 1e-15 {
			t.Fatalf("P row %d sums to %v, want 1", i, s)
		}
	}
	if tr.nCoarse != 3*8*4 {
		t.Fatalf("nCoarse = %d, want %d", tr.nCoarse, 3*8*4)
	}
}

// TestMGGalerkinSymmetric checks the assembled coarse operator is exactly
// symmetric (the symmetrization pass is what CG's theory assumes).
func TestMGGalerkinSymmetric(t *testing.T) {
	m, _ := mgModel(t, 16, 1)
	if m.mg == nil {
		t.Fatal("multigrid not built")
	}
	for lvl := 1; lvl < len(m.mg.levels); lvl++ {
		mat := m.mg.levels[lvl].mat
		for i := 0; i < mat.n; i++ {
			for idx := mat.rowPtr[i]; idx < mat.rowPtr[i+1]; idx++ {
				j := int(mat.colIdx[idx])
				if j <= i {
					continue
				}
				lo, hi := mat.rowPtr[j], mat.rowPtr[j+1]
				found := false
				for e := lo; e < hi; e++ {
					if int(mat.colIdx[e]) == i {
						if mat.vals[e] != mat.vals[idx] {
							t.Fatalf("level %d: A[%d][%d]=%v != A[%d][%d]=%v",
								lvl, i, j, mat.vals[idx], j, i, mat.vals[e])
						}
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("level %d: entry (%d,%d) has no mirror", lvl, i, j)
				}
			}
		}
	}
}

// --- SolveSeeded / SolveWarm edge cases ------------------------------------

// solveCold returns the reference cold solution for comparison.
func solveCold(t *testing.T, m *Model, pmap []float64) *Result {
	t.Helper()
	res, err := m.Solve(pmap)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSolveWarmWrongGeometry feeds SolveWarm a previous result from a
// different-geometry model. The seed must be ignored (cold start), never
// used at the wrong length.
func TestSolveWarmWrongGeometry(t *testing.T) {
	small, smallPmap := gridModel(t, 16, 1)
	prev := solveCold(t, small, smallPmap)
	m, pmap := gridModel(t, 32, 1)
	want := solveCold(t, m, pmap)
	got, err := m.SolveWarm(pmap, prev)
	if err != nil {
		t.Fatalf("SolveWarm with foreign prev: %v", err)
	}
	for i := range want.T {
		if got.T[i] != want.T[i] {
			t.Fatalf("T[%d] = %v, cold solve %v", i, got.T[i], want.T[i])
		}
	}
}

// TestSolveWarmRecycledResult feeds SolveWarm an already-recycled Result
// (T == nil): it must behave exactly like a cold start.
func TestSolveWarmRecycledResult(t *testing.T) {
	m, pmap := gridModel(t, 16, 1)
	want := solveCold(t, m, pmap)
	prev := solveCold(t, m, pmap)
	prev.Recycle()
	got, err := m.SolveWarm(pmap, prev)
	if err != nil {
		t.Fatalf("SolveWarm with recycled prev: %v", err)
	}
	for i := range want.T {
		if got.T[i] != want.T[i] {
			t.Fatalf("T[%d] = %v, cold solve %v", i, got.T[i], want.T[i])
		}
	}
}

// TestSolveSeededNaNSeed poisons one seed entry with NaN (and, separately,
// Inf). The solver must reject the seed and converge from ambient — a NaN
// reaching the Krylov recurrence would otherwise poison the entire field.
func TestSolveSeededNaNSeed(t *testing.T) {
	m, pmap := gridModel(t, 16, 1)
	want := solveCold(t, m, pmap)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		seed := make([]float64, m.NumNodes())
		copy(seed, want.T)
		seed[len(seed)/2] = bad
		got, err := m.SolveSeeded(pmap, seed)
		if err != nil {
			t.Fatalf("SolveSeeded with %v entry: %v", bad, err)
		}
		for i := range want.T {
			if got.T[i] != want.T[i] {
				t.Fatalf("seed entry %v: T[%d] = %v, cold solve %v", bad, i, got.T[i], want.T[i])
			}
		}
	}
}

// TestSolveSeededNeighborField seeds a solve with a converged field from a
// genuinely different model (same geometry, perturbed conductances): it
// must converge to the same fixed point as the cold solve within the
// tolerance error floor, in fewer iterations.
func TestSolveSeededNeighborField(t *testing.T) {
	m, pmap := gridModel(t, 32, 1)
	m = tightTolerance(t, m)
	want := solveCold(t, m, pmap)
	// The neighbor here is a search move on the same model: the operator is
	// unchanged and only the power map differs, which is exactly the
	// situation the org engine's field cache serves. (A neighbor with
	// perturbed conductances is the unrewarding case: its field difference
	// is concentrated in the solver's slowest mode and the seed saves
	// nothing — see DESIGN.md.)
	pmap2 := make([]float64, len(pmap))
	for i, p := range pmap {
		pmap2[i] = p * (1 + 0.05*float64(i%3))
	}
	seedRes, err := m.Solve(pmap2)
	if err != nil {
		t.Fatalf("neighbor-move solve: %v", err)
	}
	got, err := m.SolveSeeded(pmap, seedRes.T)
	if err != nil {
		t.Fatalf("SolveSeeded with neighbor field: %v", err)
	}
	for i := range want.T {
		if d := math.Abs(got.T[i] - want.T[i]); d > 1e-6 {
			t.Fatalf("T[%d] differs from cold solve by %g °C", i, d)
		}
	}
	if got.Iterations >= want.Iterations {
		t.Errorf("neighbor-seeded solve took %d iterations, cold took %d — a same-operator seed must save work",
			got.Iterations, want.Iterations)
	}
	// A seed that is already the solution must converge essentially
	// immediately: convergence is measured against ‖b‖, so the head start
	// is banked, not re-normalized away. One iteration of slack covers the
	// drift between the recurrence residual the solve stopped on and the
	// true residual the seeded solve recomputes.
	again, err := m.SolveSeeded(pmap, want.T)
	if err != nil {
		t.Fatalf("SolveSeeded with own solution: %v", err)
	}
	if again.Iterations > 1 {
		t.Errorf("own-solution seed took %d iterations, want <= 1", again.Iterations)
	}
}

// BenchmarkSolveColdGrid64MG times the cold production-grid solve on the
// multigrid path (the tentpole target: <10 ms vs ~70 ms for IC(0)).
func BenchmarkSolveColdGrid64MG(b *testing.B) {
	m, pmap := mgModel(b, 64, 1)
	iters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Solve(pmap)
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Iterations
		res.Recycle()
	}
	b.ReportMetric(float64(iters), "cg-iters/op")
}

// BenchmarkSolveWarmNeighborMG times the neighbor-seeded warm solve the
// org engine's field cache serves: the same model evaluated at a nearby
// search point (the operator unchanged, the power map shifted), seeded
// with that neighbor's converged field (target: <300 µs).
func BenchmarkSolveWarmNeighborMG(b *testing.B) {
	m, pmap := mgModel(b, 64, 1)
	pmap2 := make([]float64, len(pmap))
	for i, p := range pmap {
		pmap2[i] = p * (1 + 0.05*float64(i%3))
	}
	seedRes, err := m.Solve(pmap2)
	if err != nil {
		b.Fatal(err)
	}
	iters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.SolveSeeded(pmap, seedRes.T)
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Iterations
		res.Recycle()
	}
	b.ReportMetric(float64(iters), "cg-iters/op")
}

// BenchmarkNewModelGrid64MG times a cold production-grid model build with
// the multigrid hierarchy: CSR assembly, the line smoother, the transfers
// and the Galerkin coarse operators.
func BenchmarkNewModelGrid64MG(b *testing.B) {
	m, _ := mgModel(b, 64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewModel(m.Stack(), m.Config()); err != nil {
			b.Fatal(err)
		}
	}
}

// galerkinRowScatter is the original coarse-operator assembly, kept as the
// reference for galerkinCoarse: for each coarse row jc it walks the fine
// rows restricting into jc and re-scatters each one's row of A through P,
// so a fine row of A·P is rebuilt once per coarse row it restricts into.
func galerkinRowScatter(fDiag []float64, fMat *csrMatrix, t *transferOp) ([]float64, *csrMatrix) {
	nc := t.nCoarse
	cDiag := make([]float64, nc)
	rowPtr := make([]int32, nc+1)
	var colIdx []int32
	var vals []float64
	acc := make([]float64, nc)
	touched := make([]bool, nc)
	cols := make([]int32, 0, 64)

	scatter := func(k int32, scale float64) {
		end := t.rowPtr[k+1]
		for e := t.rowPtr[k]; e < end; e++ {
			lc := t.colIdx[e]
			if !touched[lc] {
				touched[lc] = true
				cols = append(cols, lc)
			}
			acc[lc] += scale * t.w[e]
		}
	}

	for jc := 0; jc < nc; jc++ {
		cols = cols[:0]
		for q := t.tPtr[jc]; q < t.tPtr[jc+1]; q++ {
			i := t.tIdx[q]
			wi := t.tW[q]
			scatter(i, wi*fDiag[i])
			end := fMat.rowPtr[i+1]
			for idx := fMat.rowPtr[i]; idx < end; idx++ {
				scatter(fMat.colIdx[idx], wi*fMat.vals[idx])
			}
		}
		slices.Sort(cols)
		for _, lc := range cols {
			if int(lc) == jc {
				cDiag[jc] = acc[lc]
			} else {
				colIdx = append(colIdx, lc)
				vals = append(vals, acc[lc])
			}
			acc[lc] = 0
			touched[lc] = false
		}
		rowPtr[jc+1] = int32(len(colIdx))
	}
	return cDiag, &csrMatrix{n: nc, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// TestGalerkinMatchesRowScatter checks the one-pass P'·(A·P) product
// against the row-scatter reference on every level of the 16-chiplet
// 64x64 production hierarchy, before truncation: the sparsity patterns
// must be identical and the entries may differ only by floating-point
// reassociation.
func TestGalerkinMatchesRowScatter(t *testing.T) {
	m, _ := mgModel(t, 64, 1)
	if m.mg == nil {
		t.Fatal("multigrid not built")
	}
	const relTol = 1e-12
	for k, lv := range m.mg.levels {
		wantDiag, want := galerkinRowScatter(lv.diag, lv.mat, lv.down)
		gotDiag, got := galerkinCoarse(lv.diag, lv.mat, lv.down)
		if !slices.Equal(got.rowPtr, want.rowPtr) || !slices.Equal(got.colIdx, want.colIdx) {
			t.Fatalf("level %d: sparsity pattern differs from the row-scatter reference", k)
		}
		worst := 0.0
		check := func(what string, i int, g, w float64) {
			d := math.Abs(g - w)
			if s := math.Abs(w); s > 0 {
				d /= s
			}
			worst = math.Max(worst, d)
			if d > relTol {
				t.Fatalf("level %d: %s %d = %v, reference %v (rel %.3g)", k, what, i, g, w, d)
			}
		}
		for i := range wantDiag {
			check("diag", i, gotDiag[i], wantDiag[i])
		}
		for e := range want.vals {
			check("entry", e, got.vals[e], want.vals[e])
		}
		t.Logf("level %d: n=%d nnz=%d worst rel diff %.3g", k, want.n, len(want.vals), worst)
	}
}
