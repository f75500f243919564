package thermal

import (
	"math"
	"slices"
	"sync"
)

// Geometric multigrid preconditioner for the CG solve.
//
// The thermal network is a stack of structured Nx x Ny sheets (the package
// layers, the spreader, the sink), so a geometric hierarchy is available
// for free. The stack is strongly anisotropic — vertical conductances
// dwarf lateral ones — so the hierarchy treats the two directions
// differently:
//
//   - The finest level keeps the full stack and smooths with a vertical
//     line smoother: each (x,y) column's package nodes are solved exactly
//     through a per-column tridiagonal LDL' factorization (stored z-major
//     so the sweep walks memory linearly), embedded in a block
//     Gauss–Seidel ordering with the spreader and sink as trailing point
//     rows. Point-wise smoothing cannot damp errors that are smooth along
//     the strong vertical direction; the line solve removes them in one
//     sweep.
//
//   - The first transfer collapses the vertical direction and halves the
//     lateral grid in a single fused operator (composeTransfers): the
//     strongly coupled bottom package block — found by zSplits, which
//     looks for weak vertical interfaces such as the TIM gap — aggregates
//     piecewise-constant onto one coarse sheet, the weakly attached upper
//     layers interpolate between that block and the spreader with
//     harmonic (two-sided Thomas-solve) weights, and the spreader and
//     sink pass through; the whole thing is then composed with a
//     cell-centered bilinear 2x lateral coarsening. Subsequent levels
//     fold the spreader into the sink (newFoldTransfer) and halve
//     laterally (newTransferOp) until an edge would drop below mgMinEdge.
//
// Coarse operators are Galerkin products Ac = P'·A·P assembled in the same
// CSR layout the fine solve sweeps, then truncated with diagonal
// compensation (see mgDropTol) so the near-null smooth modes survive
// dropping. Coarse levels smooth with plain Gauss–Seidel (a forward sweep
// before the coarse correction, a backward sweep after), and the coarsest
// system (a few hundred nodes) is solved directly by a dense Cholesky
// factored once at model build. One V(1,1) cycle of that hierarchy is the
// preconditioner application; it converges the production 64x64 stack in
// 7 CG iterations vs ~80 for IC(0).
//
// Why this beats IC(0) here: the convection boundary is a weak anchor, so
// the conductance matrix has near-null smooth modes that IC(0)-PCG spends
// many iterations resolving on a 64x64 stack. The coarse levels solve
// exactly those modes.
//
// Determinism: the parallel vector stages of the V-cycle (residual,
// restriction, prolongation) run through the striped kernel primitives of
// kernel.go — fixed stripes, gather-only loops, writes confined to a
// stripe's own rows — while the smoother sweeps and the coarsest direct
// solve are serial loops in fixed row order (exactly like the IC(0)
// triangular solves they replace). The preconditioner therefore inherits
// the kernel's contract: bit-identical results at every kernel thread
// count.
//
// Symmetry: the post-smoother (backward sweep) is the adjoint of the
// pre-smoother (forward sweep), restriction is the transpose of
// prolongation, and the coarse operators are Galerkin — so the V(1,1)
// cycle is a symmetric positive-definite operator, a valid CG
// preconditioner.

const (
	// PrecondIC0 selects the zero-fill incomplete Cholesky preconditioner
	// (the package default; the empty string means the same).
	PrecondIC0 = "ic0"
	// PrecondMG selects the geometric multigrid V-cycle preconditioner.
	// Models whose grid cannot be coarsened (an edge below 2*mgMinEdge
	// cells) fall back to IC(0); see Model.PreconditionerName.
	PrecondMG = "mg"
)

// mgMinEdge is the smallest sheet edge the coarsener will produce:
// coarsening stops when halving would drop Nx or Ny below mgMinEdge.
const mgMinEdge = 4

// mgDropTol and mgDropTolDeep are the Galerkin truncation thresholds:
// coarse entries with |a_ij| below the threshold times the smaller of the
// two incident diagonals are dropped with diagonal compensation (see
// truncateCSR). Bilinear prolongation smears shifted cross-sheet nesting
// links into long tails of near-zero couplings — without truncation the
// deeper operators carry ~26 entries per row (4-5x the fine operator) and
// their sweeps dominate the cycle. Deep levels (the lateral chain) tolerate
// a much coarser threshold: the smeared couplings there are weak by
// construction, and dropping them with compensation perturbs only modes the
// level's own smoother resolves.
const (
	mgDropTol     = 1e-3
	mgDropTolDeep = 1e-2
)

// cgPre is what the CG iteration needs from a preconditioner: overwrite z
// with M~·r and return the fused inner product sum(r[i]*z[i]).
type cgPre interface {
	precondApply(threads int, ws *workspace, z, r []float64) float64
}

// precondApply adapts the IC(0) preconditioner to the cgPre interface. The
// triangular sweeps are inherently sequential, so the thread count and
// workspace are unused.
func (ic *icPreconditioner) precondApply(_ int, _ *workspace, z, r []float64) float64 {
	return ic.apply(z, r)
}

// transferOp is one inter-grid transfer: the cell-centered bilinear
// prolongation P stored as CSR over fine rows (ascending columns, at most
// four entries per row), plus its counting-sorted transpose so restriction
// (P') is a gather over coarse rows — no scattered writes, which is what
// lets both directions run striped without breaking determinism.
type transferOp struct {
	nFine, nCoarse int

	rowPtr []int32
	colIdx []int32
	w      []float64

	tPtr []int32
	tIdx []int32
	tW   []float64
}

// axisWeights returns the 1D cell-centered bilinear weights for fine index
// f over a coarse axis of cn cells, in ascending coarse-index order. An
// interior fine cell sees its enclosing coarse cell with weight 3/4 and
// the nearest adjacent one with 1/4; at the sheet boundary the outside
// neighbor clamps onto the enclosing cell, merging to weight 1 — row sums
// stay exactly 1, so prolongation reproduces constants.
func axisWeights(f, cn int) (idx [2]int, w [2]float64, n int) {
	c0 := f / 2
	c1 := c0 - 1
	if f&1 == 1 {
		c1 = c0 + 1
	}
	if c1 < 0 || c1 >= cn {
		return [2]int{c0}, [2]float64{1}, 1
	}
	if c1 < c0 {
		return [2]int{c1, c0}, [2]float64{0.25, 0.75}, 2
	}
	return [2]int{c0, c1}, [2]float64{0.75, 0.25}, 2
}

// mgZSplitTol is the aggregation-strength threshold for the vertical
// coarsening: a package interface whose coupling, relative to the larger
// of the two incident diagonals' shares, stays below this value separates
// layer blocks that hold independent laterally-smooth error — aggregating
// across it produces a coarse space that cannot represent those modes (the
// error propagator keeps an O(0.8) mode and CG pays for it in iterations).
// Such interfaces split the aggregation into per-block coarse sheets.
const mgZSplitTol = 0.6

// zSplits inspects the assembled matrix and returns the package interfaces
// (indices l meaning "between layer l and l+1") too weak to aggregate
// across. Strength of an interface at one column is the vertical link over
// the incident diagonal, taken from whichever side follows the other more
// strongly (one-sided following suffices for aggregation: the weak side's
// error is slaved to the strong side's). The median over columns makes the
// decision robust to floorplan material variation.
func zSplits(nLayer, nc int, diag []float64, mat *csrMatrix) []int {
	var splits []int
	ratios := make([]float64, nc)
	for l := 0; l < nLayer-1; l++ {
		for c := 0; c < nc; c++ {
			i := l*nc + c
			j := i + nc
			v := -csrAt(mat, i, j)
			s := v / diag[i]
			if r := v / diag[j]; r > s {
				s = r
			}
			ratios[c] = s
		}
		slices.Sort(ratios)
		if ratios[nc/2] < mgZSplitTol {
			splits = append(splits, l)
		}
	}
	return splits
}

// newZAggTransfer builds the first transfer of the hierarchy, collapsing
// the package vertically in one step. Layer blocks are delimited by the
// weak interfaces zSplits found: the bottom block — connected to the
// spreader only through weak links, so its laterally-smooth error is
// independent — aggregates onto its own coarse sheet with
// piecewise-constant weights (within a block the vertical conductances
// dominate, so after the line relaxation the error is constant down the
// block and a constant-in-z space captures it exactly). All other blocks
// are slaved to the spreader through strong coupling and fold directly
// into its center block with nested bilinear weights, the same geometry
// newFoldTransfer uses. The single transfer keeps every Galerkin link as
// local as the fine operator: in-aggregate vertical links cancel outright
// and fold links land on aligned coarse cells.
func newZAggTransfer(nLayer, nx, ny int, splits []int, mat *csrMatrix) *transferOp {
	nc := nx * ny
	nPkg := nLayer * nc
	group := make([]int, nLayer)
	g := 0
	for l, s := 0, 0; l < nLayer; l++ {
		group[l] = g
		if s < len(splits) && splits[s] == l {
			g++
			s++
		}
	}
	// Layers in the bottom block (group 0) aggregate onto their own coarse
	// sheet when the aggregation is split; all layers above the first split
	// are slaved between that block and the spreader.
	nKeep, s0 := 0, 0
	if len(splits) > 0 {
		nKeep, s0 = 1, splits[0]+1
	}
	// Harmonic vertical weights for the slaved layers: each slaved column
	// segment solves its own vertical-conductance tridiagonal with unit
	// boundary values at the kept block below (weight alpha) and the
	// spreader above (weight 1-alpha). The error the line smoother leaves
	// on a slaved layer is not the spreader's value replicated — the power
	// iteration over the error propagator shows it interpolating between
	// the bottom block's amplitude and the spreader's — and the harmonic
	// profile is exactly the shape a column in equilibrium takes between
	// those two anchors, whatever the interface strengths. Lateral terms
	// are excluded from the tridiagonal so alpha + beta = 1 per layer and
	// the transfer still reproduces constants exactly. With no split there
	// is no lower anchor and the solve degenerates to alpha = 0 — the
	// plain slaved fold.
	nSlaved := nLayer - s0
	alpha := make([]float64, nSlaved*nc)
	for c := 0; c < nc; c++ {
		var d, low, ya, ys [16]float64
		for k := 0; k < nSlaved; k++ {
			l := s0 + k
			i := l*nc + c
			if l > 0 {
				low[k] = -csrAt(mat, i, i-nc)
			}
			if l < nLayer-1 {
				d[k] = low[k] - csrAt(mat, i, i+nc)
			} else {
				up := 0.0
				for idx := mat.rowPtr[i]; idx < mat.rowPtr[i+1]; idx++ {
					if int(mat.colIdx[idx]) >= nPkg {
						up -= mat.vals[idx]
					}
				}
				d[k] = low[k] + up
				ys[k] = up
			}
		}
		if nKeep == 1 {
			ya[0] = low[0]
		}
		// Thomas elimination on the symmetric tridiagonal, two right-hand
		// sides at once.
		for k := 1; k < nSlaved; k++ {
			m := low[k] / d[k-1]
			d[k] -= m * low[k]
			ya[k] += m * ya[k-1]
			ys[k] += m * ys[k-1]
		}
		ya[nSlaved-1] /= d[nSlaved-1]
		for k := nSlaved - 2; k >= 0; k-- {
			ya[k] = (ya[k] + low[k+1]*ya[k+1]) / d[k]
		}
		for k := 0; k < nSlaved; k++ {
			alpha[k*nc+c] = ya[k]
		}
	}
	nCoarseSheets := nKeep + 2
	t := &transferOp{nFine: (nLayer + 2) * nc, nCoarse: nCoarseSheets * nc}
	t.rowPtr = make([]int32, t.nFine+1)
	t.colIdx = make([]int32, 0, t.nFine+4*nLayer*nc)
	t.w = make([]float64, 0, t.nFine+4*nLayer*nc)
	sprBase := int32(nKeep * nc)
	for i := 0; i < t.nFine; i++ {
		sheet := i / nc
		c := i % nc
		switch {
		case sheet < nLayer && nKeep == 1 && group[sheet] == 0:
			t.colIdx = append(t.colIdx, int32(c))
			t.w = append(t.w, 1)
		case sheet < nLayer:
			a := alpha[(sheet-s0)*nc+c]
			if a != 0 {
				t.colIdx = append(t.colIdx, int32(c))
				t.w = append(t.w, a)
			}
			beta := 1 - a
			fy, fx := c/nx, c%nx
			cys, wys, nwy := axisWeights(fy+ny/2, ny)
			cxs, wxs, nwx := axisWeights(fx+nx/2, nx)
			for yi := 0; yi < nwy; yi++ {
				for xi := 0; xi < nwx; xi++ {
					t.colIdx = append(t.colIdx, sprBase+int32(cys[yi]*nx+cxs[xi]))
					t.w = append(t.w, beta*wys[yi]*wxs[xi])
				}
			}
		default: // spreader, sink: pass through
			t.colIdx = append(t.colIdx, sprBase+int32(sheet-nLayer)*int32(nc)+int32(c))
			t.w = append(t.w, 1)
		}
		t.rowPtr[i+1] = int32(len(t.colIdx))
	}
	t.buildTranspose()
	return t
}

// newFoldTransfer folds fine sheets nSkip..nSkip+nFold-1 into fine sheet
// nSkip+nFold (the first nSkip sheets and the sheets above the target pass
// through unchanged), exploiting the
// stack's nesting geometry: the spreader (and sink) sit at twice the lateral
// pitch of the sheet below with the finer sheet centered on them, so the
// finer sheet's cells nest exactly inside the center block of the coarser
// one — cell (ix,iy) lies inside cell ((ix+nx/2)/2, (iy+ny/2)/2), the same
// map the model's vertical nesting links use. The folded sheets' rows interpolate
// bilinearly over that aligned sub-grid (a +nx/2 index pre-shift feeds the
// standard cell-centered weights and never clamps, since the target indices
// stay interior); the remaining sheets pass through unchanged. Because the
// fold follows the physical nesting, the vertical links between sheet 0 and
// sheet 1 connect nodes whose transfer entries land on the same coarse
// cells — the Galerkin product stays as local as the fine operator instead
// of smearing the shifted links into wide stencils.
func newFoldTransfer(nSkip, nFold, nSheets, nx, ny int) *transferOp {
	nc := nx * ny
	t := &transferOp{nFine: nSheets * nc, nCoarse: (nSheets - nFold) * nc}
	t.rowPtr = make([]int32, t.nFine+1)
	t.colIdx = make([]int32, 0, (4*nFold+nSheets-nFold)*nc)
	t.w = make([]float64, 0, (4*nFold+nSheets-nFold)*nc)
	for i := 0; i < nSkip*nc; i++ {
		t.colIdx = append(t.colIdx, int32(i))
		t.w = append(t.w, 1)
		t.rowPtr[i+1] = int32(len(t.colIdx))
	}
	tgt := int32(nSkip * nc) // the fold target sheet's coarse base
	for s := nSkip; s < nSkip+nFold; s++ {
		for fy := 0; fy < ny; fy++ {
			cys, wys, nwy := axisWeights(fy+ny/2, ny)
			for fx := 0; fx < nx; fx++ {
				cxs, wxs, nwx := axisWeights(fx+nx/2, nx)
				for yi := 0; yi < nwy; yi++ {
					for xi := 0; xi < nwx; xi++ {
						t.colIdx = append(t.colIdx, tgt+int32(cys[yi]*nx+cxs[xi]))
						t.w = append(t.w, wys[yi]*wxs[xi])
					}
				}
				t.rowPtr[s*nc+fy*nx+fx+1] = int32(len(t.colIdx))
			}
		}
	}
	for i := (nSkip + nFold) * nc; i < t.nFine; i++ {
		t.colIdx = append(t.colIdx, int32(i-nFold*nc))
		t.w = append(t.w, 1)
		t.rowPtr[i+1] = int32(len(t.colIdx))
	}
	t.buildTranspose()
	return t
}

// newTransferOp builds the prolongation from an nSheets-sheet stack of
// (fnx/2 x fny/2) coarse sheets to (fnx x fny) fine sheets. Sheets are
// independent blocks: inter-sheet (vertical) coupling is left entirely to
// the Galerkin product, which folds the fine vertical links into coarse
// ones algebraically.
func newTransferOp(nSheets, fnx, fny int) *transferOp {
	cnx, cny := fnx/2, fny/2
	fnc, cnc := fnx*fny, cnx*cny
	t := &transferOp{nFine: nSheets * fnc, nCoarse: nSheets * cnc}
	t.rowPtr = make([]int32, t.nFine+1)
	t.colIdx = make([]int32, 0, 4*t.nFine)
	t.w = make([]float64, 0, 4*t.nFine)
	for s := 0; s < nSheets; s++ {
		cBase := int32(s * cnc)
		for fy := 0; fy < fny; fy++ {
			cys, wys, ny := axisWeights(fy, cny)
			for fx := 0; fx < fnx; fx++ {
				cxs, wxs, nx := axisWeights(fx, cnx)
				for yi := 0; yi < ny; yi++ {
					for xi := 0; xi < nx; xi++ {
						t.colIdx = append(t.colIdx, cBase+int32(cys[yi]*cnx+cxs[xi]))
						t.w = append(t.w, wys[yi]*wxs[xi])
					}
				}
				t.rowPtr[s*fnc+fy*fnx+fx+1] = int32(len(t.colIdx))
			}
		}
	}
	t.buildTranspose()
	return t
}

// buildTranspose counting-sorts the prolongation entries by coarse row so
// restriction can gather.
func (t *transferOp) buildTranspose() {
	t.tPtr = make([]int32, t.nCoarse+1)
	for _, c := range t.colIdx {
		t.tPtr[c+1]++
	}
	for j := 0; j < t.nCoarse; j++ {
		t.tPtr[j+1] += t.tPtr[j]
	}
	t.tIdx = make([]int32, len(t.colIdx))
	t.tW = make([]float64, len(t.w))
	off := make([]int32, t.nCoarse)
	copy(off, t.tPtr[:t.nCoarse])
	for i := 0; i < t.nFine; i++ {
		for e := t.rowPtr[i]; e < t.rowPtr[i+1]; e++ {
			j := t.colIdx[e]
			q := off[j]
			off[j]++
			t.tIdx[q] = int32(i)
			t.tW[q] = t.w[e]
		}
	}
}

// composeTransfers returns the product transfer a then b: fine rows of a
// mapped through b's coarsening, so two geometric coarsenings collapse into
// a single level. The hierarchy uses it to fuse the vertical aggregation
// with the first lateral halving — the intermediate grid would cost a full
// smooth-residual-transfer pass per cycle while contributing nothing the
// combined coarse space does not already span (the line smoother leaves
// laterally-smooth error, which survives a 2x lateral coarsening).
func composeTransfers(a, b *transferOp) *transferOp {
	t := &transferOp{nFine: a.nFine, nCoarse: b.nCoarse}
	t.rowPtr, t.colIdx, t.w = sparseProduct(a.nFine, b.nCoarse,
		a.rowPtr, a.colIdx, a.w, nil, b.rowPtr, b.colIdx, b.w, true)
	t.buildTranspose()
	return t
}

// sparseProduct returns the CSR product C = L·R of two row-major sparse
// operands, Gustavson style. Row r of L is (lPtr, lIdx, lVal) plus, when
// lDiag is non-nil, a leading diagonal entry (r, lDiag[r]) — the split
// diag + off-diagonal layout of the thermal operators. A symbolic pass
// counts every output row exactly, so the arrays are allocated once at
// their final size; the numeric pass then accumulates each row into a
// dense scratch and writes it out in first-touch column order, sorted
// ascending when sorted is set.
func sparseProduct(nRows, nCols int, lPtr, lIdx []int32, lVal, lDiag []float64,
	rPtr, rIdx []int32, rVal []float64, sorted bool) ([]int32, []int32, []float64) {
	mark := make([]int32, nCols)
	for i := range mark {
		mark[i] = -1
	}
	ptr := make([]int32, nRows+1)
	// count marks the columns of R's row k new to output row r.
	count := func(r, k int32) (n int32) {
		for e := rPtr[k]; e < rPtr[k+1]; e++ {
			if c := rIdx[e]; mark[c] != r {
				mark[c] = r
				n++
			}
		}
		return n
	}
	for r := int32(0); r < int32(nRows); r++ {
		n := int32(0)
		if lDiag != nil {
			n += count(r, r)
		}
		for q := lPtr[r]; q < lPtr[r+1]; q++ {
			n += count(r, lIdx[q])
		}
		ptr[r+1] = ptr[r] + n
	}
	idx := make([]int32, ptr[nRows])
	val := make([]float64, ptr[nRows])
	acc := make([]float64, nCols)
	for i := range mark {
		mark[i] = -1
	}
	for r := int32(0); r < int32(nRows); r++ {
		pos := ptr[r]
		add := func(k int32, s float64) {
			for e := rPtr[k]; e < rPtr[k+1]; e++ {
				c := rIdx[e]
				if mark[c] != r {
					mark[c] = r
					acc[c] = 0
					idx[pos] = c
					pos++
				}
				acc[c] += s * rVal[e]
			}
		}
		if lDiag != nil {
			add(r, lDiag[r])
		}
		for q := lPtr[r]; q < lPtr[r+1]; q++ {
			add(lIdx[q], lVal[q])
		}
		row := idx[ptr[r]:ptr[r+1]]
		if sorted {
			slices.Sort(row)
		}
		for e, c := range row {
			val[int(ptr[r])+e] = acc[c]
		}
	}
	return ptr, idx, val
}

// galerkinCoarse assembles Ac = P'·(A·P) in two sparse products: A·P is
// formed once per fine row, then each coarse row gathers the A·P rows of
// the fine rows restricting into it (the transpose of P). The result is
// compacted into the same split diag + off-diagonal CSR layout the fine
// operator uses, so the coarse SpMV reuses spmvStriped unchanged.
func galerkinCoarse(fDiag []float64, fMat *csrMatrix, t *transferOp) ([]float64, *csrMatrix) {
	apPtr, apIdx, apVal := sparseProduct(t.nFine, t.nCoarse,
		fMat.rowPtr, fMat.colIdx, fMat.vals, fDiag, t.rowPtr, t.colIdx, t.w, false)
	nc := t.nCoarse
	rowPtr, colIdx, vals := sparseProduct(nc, nc,
		t.tPtr, t.tIdx, t.tW, nil, apPtr, apIdx, apVal, true)
	// Split the diagonal out in place; rows only shrink, so the compacted
	// write position never overtakes the read position.
	cDiag := make([]float64, nc)
	out := int32(0)
	for jc := 0; jc < nc; jc++ {
		start, end := rowPtr[jc], rowPtr[jc+1]
		rowPtr[jc] = out
		for e := start; e < end; e++ {
			if int(colIdx[e]) == jc {
				cDiag[jc] = vals[e]
				continue
			}
			colIdx[out] = colIdx[e]
			vals[out] = vals[e]
			out++
		}
	}
	rowPtr[nc] = out
	return cDiag, &csrMatrix{n: nc, rowPtr: rowPtr, colIdx: colIdx[:out], vals: vals[:out]}
}

// symmetrizeCSR averages every (i,j)/(j,i) pair in place. The Galerkin
// product is symmetric in exact arithmetic but its floating-point
// accumulation order is not, and CG assumes an exactly symmetric operator;
// the sparsity pattern is symmetric by construction, so each mirror entry
// is found by binary search within its (column-sorted) row.
func symmetrizeCSR(mat *csrMatrix) {
	for i := 0; i < mat.n; i++ {
		end := mat.rowPtr[i+1]
		for idx := mat.rowPtr[i]; idx < end; idx++ {
			j := mat.colIdx[idx]
			if int(j) <= i {
				continue
			}
			lo, hi := mat.rowPtr[j], mat.rowPtr[j+1]
			for lo < hi {
				mid := (lo + hi) / 2
				if mat.colIdx[mid] < int32(i) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < mat.rowPtr[j+1] && mat.colIdx[lo] == int32(i) {
				v := 0.5 * (mat.vals[idx] + mat.vals[lo])
				mat.vals[idx] = v
				mat.vals[lo] = v
			}
		}
	}
}

// truncateCSR drops every symmetric off-diagonal pair whose magnitude is
// below mgDropTol times the smaller incident diagonal, compensating both
// diagonals by the dropped value (d_i += v, d_j += v). Dropping a pair
// with compensation perturbs the operator by v·(e_i−e_j)(e_i−e_j)', which
// for the positive entries a Galerkin product picks up adds a PSD term
// (always safe) and for negative entries removes a conductance link whose
// magnitude the threshold bounds to a small fraction of the diagonal — the
// operator stays comfortably positive definite, and the coarsest-level
// Cholesky verifies that outright. Thresholds are taken against a snapshot
// of the pre-compensation diagonal so the drop decision is symmetric.
// diag is adjusted in place; the returned matrix replaces mat.
func truncateCSR(diag []float64, mat *csrMatrix, tol float64) *csrMatrix {
	n := mat.n
	ref := make([]float64, n)
	copy(ref, diag)
	rowPtr := make([]int32, n+1)
	colIdx := make([]int32, 0, len(mat.colIdx))
	vals := make([]float64, 0, len(mat.vals))
	for i := 0; i < n; i++ {
		end := mat.rowPtr[i+1]
		for idx := mat.rowPtr[i]; idx < end; idx++ {
			j := int(mat.colIdx[idx])
			v := mat.vals[idx]
			d := ref[i]
			if ref[j] < d {
				d = ref[j]
			}
			if math.Abs(v) <= tol*d {
				if j > i { // compensate once per pair
					diag[i] += v
					diag[j] += v
				}
				continue
			}
			colIdx = append(colIdx, int32(j))
			vals = append(vals, v)
		}
		rowPtr[i+1] = int32(len(colIdx))
	}
	return &csrMatrix{n: n, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// mgLevel is one grid of the hierarchy (excluding the coarsest, which is
// held by the direct solver instead).
type mgLevel struct {
	n    int
	diag []float64
	dinv []float64
	mat  *csrMatrix
	down *transferOp   // transfer to the next-coarser level
	line *lineSmoother // level 0 of a multi-layer stack; nil = point GS
}

// finishLevel precomputes the reciprocal diagonal the Gauss–Seidel sweeps
// multiply by (an FP divide in a loop-carried chain costs ~10x a multiply,
// same reasoning as the IC(0) solves).
func finishLevel(lv *mgLevel) {
	lv.dinv = make([]float64, lv.n)
	for i := 0; i < lv.n; i++ {
		lv.dinv[i] = 1 / lv.diag[i]
	}
}

// lineSmoother is the level-0 smoother for the full stack: block
// Gauss–Seidel whose blocks are the vertical package columns (solved
// exactly as tridiagonal systems via a precomputed LDL' factorization),
// followed by the spreader and sink rows as point blocks. Point smoothing
// stalls on this stack because the package's vertical interfaces span three
// orders of magnitude in strength — some layers follow the die, one
// follows the spreader — so no single sweep direction relaxes every
// column mode, and the column-constant coarse space of the z-aggregation
// misses whatever survives. An exact column solve eliminates all
// vertically-varying error in one sweep no matter how the interface
// strengths fall, leaving exactly the laterally-smooth, column-constant
// error the z-aggregated coarse grid is built to correct.
type lineSmoother struct {
	nLayer, nc int
	nPkg       int // nLayer*nc: first spreader row
	// The column sweeps run in a z-major scratch layout — node (l, c) at
	// index c*nLayer+l — because in the model's sheet-major layout the six
	// package entries of one column sit exactly 8*nx*ny bytes apart: a
	// large power-of-2 stride that maps every layer of a column (plus the
	// matching right-hand-side reads) onto a single L1 set and thrashes
	// it. In z-major order a column is contiguous, its lateral neighbors
	// are a few cache lines away, and the factors and matrix entries
	// below stream sequentially. mz holds the unit-bidiagonal elimination
	// multipliers (l >= 1) and dinvz the inverse LDL' pivots, both
	// z-major.
	mz, dinvz []float64
	// lbz/ubz are the package rows of lb/ub in z-major order with
	// pre-translated column indices; uez holds ub's package-to-spreader
	// entries separately, indexed into the sheet-major iterate (only the
	// backward sweep needs them — on the forward sweep from zero the
	// spreader is a later block and still zero).
	lbzPtr, lbzIdx []int32
	lbzVal         []float64
	ubzPtr, ubzIdx []int32
	ubzVal         []float64
	uezPtr, uezIdx []int32
	uezVal         []float64
	// lb and ub split the level's off-diagonal operator by block order:
	// lb holds couplings to earlier blocks (package columns to the left,
	// or rows below for the point blocks), ub to later ones. In-block
	// vertical links are in neither — the LDL' solve owns them. The split
	// is built once so the sweeps and the post-smoothing residual stream
	// exactly the entries they need, with no per-entry block test and no
	// gathers of known-zero values.
	lb, ub *csrMatrix
}

// csrAt returns A[i][j] from the off-diagonal CSR (0 when absent), by
// binary search within row i's sorted columns.
func csrAt(mat *csrMatrix, i, j int) float64 {
	lo, hi := mat.rowPtr[i], mat.rowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if mat.colIdx[mid] < int32(j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < mat.rowPtr[i+1] && mat.colIdx[lo] == int32(j) {
		return mat.vals[lo]
	}
	return 0
}

func newLineSmoother(nLayer, nc int, diag []float64, mat *csrMatrix) *lineSmoother {
	ls := &lineSmoother{nLayer: nLayer, nc: nc, nPkg: nLayer * nc}
	ls.mz = make([]float64, ls.nPkg)
	ls.dinvz = make([]float64, ls.nPkg)
	ls.lb, ls.ub = ls.splitBlocks(mat)
	for c := 0; c < nc; c++ {
		zi := c * nLayer
		d := diag[c]
		ls.dinvz[zi] = 1 / d
		for l := 1; l < nLayer; l++ {
			v := csrAt(mat, l*nc+c, (l-1)*nc+c) // vertical in-column link
			mult := v / d
			ls.mz[zi+l] = mult
			d = diag[l*nc+c] - mult*v
			ls.dinvz[zi+l] = 1 / d
		}
	}
	// Re-key the package rows of the split matrices into the z-major
	// sweep streams, each sized exactly from the split.
	ls.lbzPtr = make([]int32, ls.nPkg+1)
	ls.ubzPtr = make([]int32, ls.nPkg+1)
	ls.uezPtr = make([]int32, ls.nPkg+1)
	nUe := 0
	for _, j := range ls.ub.colIdx[:ls.ub.rowPtr[ls.nPkg]] {
		if int(j) >= ls.nPkg {
			nUe++
		}
	}
	nLb, nUb := int(ls.lb.rowPtr[ls.nPkg]), int(ls.ub.rowPtr[ls.nPkg])-nUe
	ls.lbzIdx, ls.lbzVal = make([]int32, 0, nLb), make([]float64, 0, nLb)
	ls.ubzIdx, ls.ubzVal = make([]int32, 0, nUb), make([]float64, 0, nUb)
	ls.uezIdx, ls.uezVal = make([]int32, 0, nUe), make([]float64, 0, nUe)
	for c := 0; c < nc; c++ {
		for l := 0; l < nLayer; l++ {
			i := l*nc + c
			zi := c*nLayer + l
			for idx := ls.lb.rowPtr[i]; idx < ls.lb.rowPtr[i+1]; idx++ {
				j := int(ls.lb.colIdx[idx])
				ls.lbzIdx = append(ls.lbzIdx, int32((j%nc)*nLayer+j/nc))
				ls.lbzVal = append(ls.lbzVal, ls.lb.vals[idx])
			}
			for idx := ls.ub.rowPtr[i]; idx < ls.ub.rowPtr[i+1]; idx++ {
				j := int(ls.ub.colIdx[idx])
				if j < ls.nPkg {
					ls.ubzIdx = append(ls.ubzIdx, int32((j%nc)*nLayer+j/nc))
					ls.ubzVal = append(ls.ubzVal, ls.ub.vals[idx])
				} else {
					ls.uezIdx = append(ls.uezIdx, int32(j))
					ls.uezVal = append(ls.uezVal, ls.ub.vals[idx])
				}
			}
			ls.lbzPtr[zi+1] = int32(len(ls.lbzIdx))
			ls.ubzPtr[zi+1] = int32(len(ls.ubzIdx))
			ls.uezPtr[zi+1] = int32(len(ls.uezIdx))
		}
	}
	return ls
}

// packZ transposes the package part of a sheet-major vector into z-major
// scratch; unpackZ is the inverse. Each is one strided pass over the
// package — two orders of magnitude cheaper than letting every gather of
// the column sweeps pay the stride instead.
func (ls *lineSmoother) packZ(dst, src []float64) {
	nLayer, nc := ls.nLayer, ls.nc
	for l := 0; l < nLayer; l++ {
		sheet := src[l*nc : (l+1)*nc]
		for c, v := range sheet {
			dst[c*nLayer+l] = v
		}
	}
}

func (ls *lineSmoother) unpackZ(dst, src []float64) {
	nLayer, nc := ls.nLayer, ls.nc
	for l := 0; l < nLayer; l++ {
		sheet := dst[l*nc : (l+1)*nc]
		for c := range sheet {
			sheet[c] = src[c*nLayer+l]
		}
	}
}

// splitBlocks partitions the off-diagonal operator into lb (couplings to
// earlier blocks in the sweep order) and ub (later blocks). A package
// node's block is its column index; spreader and sink rows follow as point
// blocks in row order, so for them the split is the plain strict triangle.
// A package row's in-column vertical links (j == i±nc inside the package —
// lateral neighbors live on the same sheet and the spreader link uses the
// nesting map, so only a top-layer cell whose nested spreader index lands
// on its own column can collide, and that j >= nPkg entry belongs in ub)
// go to neither side: the column's LDL' solve owns them.
func (ls *lineSmoother) splitBlocks(mat *csrMatrix) (lb, ub *csrMatrix) {
	n := mat.n
	nc, nPkg := ls.nc, ls.nPkg
	// side reports where entry (i, j) goes: -1 lower, +1 upper, 0 neither.
	side := func(i, j int) int {
		switch {
		case i < nPkg && j < nPkg:
			switch {
			case j%nc < i%nc:
				return -1
			case j%nc > i%nc:
				return 1
			}
			return 0 // in-column vertical link
		case j < i:
			return -1
		}
		return 1
	}
	nLower, nUpper := 0, 0
	for i := 0; i < n; i++ {
		for idx := mat.rowPtr[i]; idx < mat.rowPtr[i+1]; idx++ {
			switch side(i, int(mat.colIdx[idx])) {
			case -1:
				nLower++
			case 1:
				nUpper++
			}
		}
	}
	lb = &csrMatrix{n: n, rowPtr: make([]int32, n+1),
		colIdx: make([]int32, 0, nLower), vals: make([]float64, 0, nLower)}
	ub = &csrMatrix{n: n, rowPtr: make([]int32, n+1),
		colIdx: make([]int32, 0, nUpper), vals: make([]float64, 0, nUpper)}
	for i := 0; i < n; i++ {
		end := mat.rowPtr[i+1]
		for idx := mat.rowPtr[i]; idx < end; idx++ {
			j := mat.colIdx[idx]
			switch side(i, int(j)) {
			case -1:
				lb.colIdx = append(lb.colIdx, j)
				lb.vals = append(lb.vals, mat.vals[idx])
			case 1:
				ub.colIdx = append(ub.colIdx, j)
				ub.vals = append(ub.vals, mat.vals[idx])
			}
		}
		lb.rowPtr[i+1] = int32(len(lb.colIdx))
		ub.rowPtr[i+1] = int32(len(ub.colIdx))
	}
	return lb, ub
}

// gatherRow accumulates −Σ a_ij·x_j over row i of one split matrix.
func gatherRow(mat *csrMatrix, i int, x []float64) float64 {
	s := 0.0
	end := mat.rowPtr[i+1]
	for idx := mat.rowPtr[i]; idx < end; idx++ {
		s -= mat.vals[idx] * x[mat.colIdx[idx]]
	}
	return s
}

// sweepColumn solves column c's tridiagonal block exactly against the
// z-major right-hand side and current iterate: gather, then the
// precomputed LDL' substitutions. On the forward sweep from zero only the
// earlier-column couplings (lbz) carry non-zeros; the backward sweep adds
// the later columns (ubz) and the spreader entries (uez, sheet-major x).
func (ls *lineSmoother) sweepColumn(c int, withUpper bool, xz, bz, x []float64) {
	nLayer := ls.nLayer
	zi := c * nLayer
	var y [16]float64
	for l := 0; l < nLayer; l++ {
		s := bz[zi+l]
		for e := ls.lbzPtr[zi+l]; e < ls.lbzPtr[zi+l+1]; e++ {
			s -= ls.lbzVal[e] * xz[ls.lbzIdx[e]]
		}
		if withUpper {
			for e := ls.ubzPtr[zi+l]; e < ls.ubzPtr[zi+l+1]; e++ {
				s -= ls.ubzVal[e] * xz[ls.ubzIdx[e]]
			}
			for e := ls.uezPtr[zi+l]; e < ls.uezPtr[zi+l+1]; e++ {
				s -= ls.uezVal[e] * x[ls.uezIdx[e]]
			}
		}
		y[l] = s
	}
	for l := 1; l < nLayer; l++ {
		y[l] -= ls.mz[zi+l] * y[l-1]
	}
	for l := 0; l < nLayer; l++ {
		y[l] *= ls.dinvz[zi+l]
	}
	xz[zi+nLayer-1] = y[nLayer-1]
	for l := nLayer - 2; l >= 0; l-- {
		y[l] -= ls.mz[zi+l+1] * y[l+1]
		xz[zi+l] = y[l]
	}
}

// forwardZero runs one forward block Gauss–Seidel sweep from a zero
// iterate: package columns in ascending column order (in the z-major
// scratch — no explicit zeroing needed, the gathers only touch columns the
// sweep already wrote), then spreader and sink rows pointwise in ascending
// row order. bz keeps the transposed right-hand side for the matching
// backward sweep of the same cycle.
func (ls *lineSmoother) forwardZero(pointDinv, bz, xz, x, b []float64) {
	ls.packZ(bz, b)
	for c := 0; c < ls.nc; c++ {
		ls.sweepColumn(c, false, xz, bz, nil)
	}
	ls.unpackZ(x, xz)
	n := len(x)
	for i := ls.nPkg; i < n; i++ {
		x[i] = (b[i] + gatherRow(ls.lb, i, x)) * pointDinv[i]
	}
}

// backward runs the adjoint sweep — reversed block order, same exact block
// solves — making the level-0 smoothing pair symmetric. bz must still hold
// forwardZero's transposed right-hand side.
func (ls *lineSmoother) backward(pointDinv, bz, xz, x, b []float64) {
	n := len(x)
	for i := n - 1; i >= ls.nPkg; i-- {
		x[i] = (b[i] + gatherRow(ls.lb, i, x) + gatherRow(ls.ub, i, x)) * pointDinv[i]
	}
	ls.packZ(xz, x)
	for c := ls.nc - 1; c >= 0; c-- {
		ls.sweepColumn(c, true, xz, bz, x)
	}
	ls.unpackZ(x, xz)
}

// blockUpperResidualStriped computes the residual after forwardZero. Each
// block is solved exactly against the earlier blocks' final values, so the
// residual reduces to the later-block couplings alone: r = −ub·x, a plain
// branch-free gather over the prebuilt split. Gather-only over a stripe's
// own rows.
func blockUpperResidualStriped(threads int, ls *lineSmoother, r, x []float64) {
	n := ls.ub.n
	runStriped(threads, numStripes(n), func(st int) {
		lo, hi := stripeBounds(st, n)
		r, x := r, x
		for i := lo; i < hi; i++ {
			r[i] = gatherRow(ls.ub, i, x)
		}
	})
}

// gsForwardZero runs one forward Gauss–Seidel sweep from a zero initial
// guess: ascending rows, x[i] = (b[i] − Σ_{j<i} a_ij·x[j]) / a_ii. Entries
// with j > i multiply a still-zero x[j], and the CSR columns are sorted,
// so the sweep stops at each row's lower-triangle prefix. Serial in fixed
// row order — deterministic at every kernel thread count.
func gsForwardZero(dinv []float64, mat *csrMatrix, x, b []float64) {
	n := mat.n
	rowPtr, colIdx, vals := mat.rowPtr, mat.colIdx, mat.vals
	for i := 0; i < n; i++ {
		s := b[i]
		end := rowPtr[i+1]
		for idx := rowPtr[i]; idx < end; idx++ {
			j := colIdx[idx]
			if int(j) >= i {
				break
			}
			s -= vals[idx] * x[j]
		}
		x[i] = s * dinv[i]
	}
}

// gsBackward runs one backward Gauss–Seidel sweep on the current iterate:
// descending rows, x[i] = (b[i] − Σ_{j≠i} a_ij·x[j]) / a_ii. As the
// adjoint of gsForwardZero it makes the V-cycle symmetric.
func gsBackward(dinv []float64, mat *csrMatrix, x, b []float64) {
	n := mat.n
	rowPtr, colIdx, vals := mat.rowPtr, mat.colIdx, mat.vals
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		end := rowPtr[i+1]
		for idx := rowPtr[i]; idx < end; idx++ {
			s -= vals[idx] * x[colIdx[idx]]
		}
		x[i] = s * dinv[i]
	}
}

// denseChol is the direct solver for the coarsest level: a dense lower
// Cholesky factor, built once at model build (the coarsest system is
// nSheets*mgMinEdge^2 nodes — a few hundred at most).
type denseChol struct {
	n int
	l []float64 // row-major; lower triangle holds L, diagonal included
}

func newDenseChol(diag []float64, mat *csrMatrix) *denseChol {
	n := mat.n
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = diag[i]
		end := mat.rowPtr[i+1]
		for idx := mat.rowPtr[i]; idx < end; idx++ {
			a[i*n+int(mat.colIdx[idx])] = mat.vals[idx]
		}
	}
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		if d <= 0 {
			return nil // not positive definite; caller falls back to IC(0)
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = s * inv
		}
	}
	return &denseChol{n: n, l: a}
}

// solve overwrites x with A~·b by forward and backward substitution. Both
// sweeps are serial in fixed row order, so the coarse solve never threatens
// the determinism contract.
func (c *denseChol) solve(x, b []float64) {
	n, l := c.n, c.l
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i*n+k] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
}

// mgScratch holds one V-cycle's per-level vectors. Level 0's solution and
// right-hand side alias the caller's z and r, so only ax is allocated
// there; index len(levels) is the coarsest grid.
type mgScratch struct {
	ax [][]float64
	b  [][]float64
	x  [][]float64
	// z-major package scratch for the level-0 line smoother (nil when the
	// stack has no line level).
	bz, xz []float64
}

// mgPreconditioner is the assembled hierarchy. It is immutable after
// construction; concurrent solves share it and draw scratch from the pool,
// so a steady-state apply allocates nothing.
type mgPreconditioner struct {
	levels  []mgLevel
	coarse  *denseChol
	scratch sync.Pool // *mgScratch
}

// newMultigrid builds the hierarchy for an nSheets-sheet stack on an
// nx x ny sheet grid. Returns nil when no coarse level can be built — the
// grid too small or odd-edged to halve, or the coarsest Galerkin operator
// not positive definite — in which case the model keeps IC(0).
func newMultigrid(nSheets, nx, ny int, diag []float64, mat *csrMatrix) *mgPreconditioner {
	if nx%2 != 0 || ny%2 != 0 || nx < 2*mgMinEdge || ny < 2*mgMinEdge {
		return nil
	}
	mg := &mgPreconditioner{}
	lv := mgLevel{n: nSheets * nx * ny, diag: diag, mat: mat}
	addLevel := func(t *transferOp, tol float64) {
		lv.down = t
		finishLevel(&lv)
		mg.levels = append(mg.levels, lv)
		cDiag, cMat := galerkinCoarse(lv.diag, lv.mat, t)
		symmetrizeCSR(cMat)
		cMat = truncateCSR(cDiag, cMat, tol)
		lv = mgLevel{n: t.nCoarse, diag: cDiag, mat: cMat}
	}
	// First coarsening: collapse the package vertically in one transfer —
	// the bottom layer block (independent across its weak interfaces) onto
	// its own coarse sheet, the slaved blocks folded into the spreader. The
	// line smoother solves each package column exactly, so what survives
	// level-0 smoothing is exactly the error this coarse space spans.
	nKeep := 0
	if nSheets > 3 {
		nLayer := nSheets - 2
		if nLayer > 16 { // sweepColumn's stack buffer
			return nil
		}
		lv.line = newLineSmoother(nLayer, nx*ny, diag, mat)
		splits := zSplits(nLayer, nx*ny, diag, mat)
		if len(splits) > 0 {
			nKeep = 1
		}
		t := newZAggTransfer(nLayer, nx, ny, splits, mat)
		nSheets = nKeep + 2
		// Fuse the first lateral halving into the same transfer: the line
		// smoother's surviving error is laterally smooth, so the combined
		// coarse space loses nothing, and the fused level replaces an
		// intermediate grid 4x the size of the one it lands on.
		t = composeTransfers(t, newTransferOp(nSheets, nx, ny))
		nx, ny = nx/2, ny/2
		addLevel(t, mgDropTolDeep)
	}
	// Fold the spreader (and, for a single-layer stack, the package sheet)
	// into the sink along the nesting maps. The bottom layer block stays
	// out of the folds: every path from it to the spreader crosses a weak
	// interface, so its laterally-smooth error is independent of the
	// spreader's and a shared coarse variable cannot represent both (the
	// coarsest direct solve couples the sheets exactly instead).
	for nSheets > nKeep+1 {
		addLevel(newFoldTransfer(nKeep, 1, nSheets, nx, ny), mgDropTolDeep)
		nSheets--
	}
	// Then halve the remaining sheets laterally until an edge would drop
	// below mgMinEdge. The smeared weak cross-sheet couplings down here are
	// cut by the coarse truncation threshold.
	for nx%2 == 0 && ny%2 == 0 && nx >= 2*mgMinEdge && ny >= 2*mgMinEdge {
		addLevel(newTransferOp(nSheets, nx, ny), mgDropTolDeep)
		nx, ny = nx/2, ny/2
	}
	mg.coarse = newDenseChol(lv.diag, lv.mat)
	if mg.coarse == nil {
		return nil
	}
	return mg
}

func (mg *mgPreconditioner) getScratch() *mgScratch {
	if v := mg.scratch.Get(); v != nil {
		return v.(*mgScratch)
	}
	L := len(mg.levels)
	sc := &mgScratch{
		ax: make([][]float64, L),
		b:  make([][]float64, L+1),
		x:  make([][]float64, L+1),
	}
	for k := range mg.levels {
		sc.ax[k] = make([]float64, mg.levels[k].n)
		if k > 0 {
			sc.b[k] = make([]float64, mg.levels[k].n)
			sc.x[k] = make([]float64, mg.levels[k].n)
		}
	}
	cn := mg.levels[L-1].down.nCoarse
	sc.b[L] = make([]float64, cn)
	sc.x[L] = make([]float64, cn)
	if ls := mg.levels[0].line; ls != nil {
		sc.bz = make([]float64, ls.nPkg)
		sc.xz = make([]float64, ls.nPkg)
	}
	return sc
}

// vcycle runs one V(1,1) cycle at level k, overwriting x with the cycle's
// approximation to A~·b (x needs no zeroing: the pre-smooth from a zero
// initial guess writes every entry).
func (mg *mgPreconditioner) vcycle(th, k int, sc *mgScratch, x, b []float64) {
	if k == len(mg.levels) {
		mg.coarse.solve(x, b)
		return
	}
	lv := &mg.levels[k]
	r := sc.ax[k]
	if lv.line != nil {
		lv.line.forwardZero(lv.dinv, sc.bz, sc.xz, x, b)
		blockUpperResidualStriped(th, lv.line, r, x)
	} else {
		gsForwardZero(lv.dinv, lv.mat, x, b)
		upperResidualStriped(th, lv.mat, r, x)
	}
	bc, xc := sc.b[k+1], sc.x[k+1]
	restrictStriped(th, lv.down, bc, r)
	mg.vcycle(th, k+1, sc, xc, bc)
	prolongAddStriped(th, lv.down, x, xc)
	if lv.line != nil {
		lv.line.backward(lv.dinv, sc.bz, sc.xz, x, b)
	} else {
		gsBackward(lv.dinv, lv.mat, x, b)
	}
}

// precondApply runs one V-cycle (z = M~·r) and returns the fused r·z inner
// product through the workspace's per-stripe slots, mirroring the IC(0)
// apply contract.
func (mg *mgPreconditioner) precondApply(threads int, ws *workspace, z, r []float64) float64 {
	sc := mg.getScratch()
	mg.vcycle(threads, 0, sc, z, r)
	mg.scratch.Put(sc)
	dotStriped(threads, r, z, ws.parts)
	return reduceParts(ws.parts)
}

// upperResidualStriped computes the residual after a forward Gauss–Seidel
// sweep from zero. That sweep makes every lower-triangle-plus-diagonal row
// sum land exactly on b[i], so the residual collapses to r = −U·x, the
// strict upper triangle alone — half an SpMV instead of a full one, at
// every level of the cycle. Gather-only over a stripe's own rows, like the
// other striped stages.
func upperResidualStriped(threads int, mat *csrMatrix, r, x []float64) {
	n := mat.n
	runStriped(threads, numStripes(n), func(st int) {
		lo, hi := stripeBounds(st, n)
		rowPtr, colIdx, vals := mat.rowPtr, mat.colIdx, mat.vals
		r, x := r, x
		for i := lo; i < hi; i++ {
			s := 0.0
			end := rowPtr[i+1]
			for idx := rowPtr[i]; idx < end; idx++ {
				j := colIdx[idx]
				if int(j) <= i {
					continue
				}
				s -= vals[idx] * x[j]
			}
			r[i] = s
		}
	})
}

// restrictStriped computes the full-weighting restriction rc = P'·r,
// gathering through the transpose arrays so each stripe writes only its
// own coarse rows.
func restrictStriped(threads int, t *transferOp, rc, r []float64) {
	n := t.nCoarse
	runStriped(threads, numStripes(n), func(st int) {
		lo, hi := stripeBounds(st, n)
		tPtr, tIdx, tW := t.tPtr, t.tIdx, t.tW
		rc, r := rc, r
		for j := lo; j < hi; j++ {
			s := 0.0
			end := tPtr[j+1]
			for q := tPtr[j]; q < end; q++ {
				s += tW[q] * r[tIdx[q]]
			}
			rc[j] = s
		}
	})
}

// prolongAddStriped adds the bilinear prolongation of the coarse
// correction, x += P·e — a gather over fine rows.
func prolongAddStriped(threads int, t *transferOp, x, e []float64) {
	n := t.nFine
	runStriped(threads, numStripes(n), func(st int) {
		lo, hi := stripeBounds(st, n)
		rowPtr, colIdx, w := t.rowPtr, t.colIdx, t.w
		x, e := x, e
		for i := lo; i < hi; i++ {
			s := 0.0
			end := rowPtr[i+1]
			for idx := rowPtr[i]; idx < end; idx++ {
				s += w[idx] * e[colIdx[idx]]
			}
			x[i] += s
		}
	})
}
