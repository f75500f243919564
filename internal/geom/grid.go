package geom

import (
	"fmt"
	"math"
)

// Grid is a uniform rectangular discretization of a layer footprint into
// Nx x Ny cells. It is the common coordinate system shared by the floorplan
// rasterizer and the thermal solver.
type Grid struct {
	Nx, Ny int     // number of cells in x and y
	W, H   float64 // footprint size in mm
}

// NewGrid builds a grid over a w x h mm footprint with nx x ny cells.
func NewGrid(nx, ny int, w, h float64) (Grid, error) {
	if nx <= 0 || ny <= 0 {
		return Grid{}, fmt.Errorf("geom: grid dimensions must be positive, got %dx%d", nx, ny)
	}
	if w <= 0 || h <= 0 {
		return Grid{}, fmt.Errorf("geom: grid footprint must be positive, got %.3fx%.3f mm", w, h)
	}
	return Grid{Nx: nx, Ny: ny, W: w, H: h}, nil
}

// CellW returns the cell width in mm.
func (g Grid) CellW() float64 { return g.W / float64(g.Nx) }

// CellH returns the cell height in mm.
func (g Grid) CellH() float64 { return g.H / float64(g.Ny) }

// CellArea returns the area of one cell in mm².
func (g Grid) CellArea() float64 { return g.CellW() * g.CellH() }

// NumCells returns the total number of cells.
func (g Grid) NumCells() int { return g.Nx * g.Ny }

// Index converts cell coordinates (ix, iy) to a flat index. Row-major with
// ix varying fastest.
func (g Grid) Index(ix, iy int) int { return iy*g.Nx + ix }

// Coords converts a flat index back to cell coordinates.
func (g Grid) Coords(idx int) (ix, iy int) { return idx % g.Nx, idx / g.Nx }

// CellRect returns the rectangle occupied by cell (ix, iy).
func (g Grid) CellRect(ix, iy int) Rect {
	cw, ch := g.CellW(), g.CellH()
	return Rect{X: float64(ix) * cw, Y: float64(iy) * ch, W: cw, H: ch}
}

// CellAt returns the coordinates of the cell containing point (x, y),
// clamped to the grid.
func (g Grid) CellAt(x, y float64) (ix, iy int) {
	ix = int(x / g.CellW())
	iy = int(y / g.CellH())
	if ix < 0 {
		ix = 0
	}
	if ix >= g.Nx {
		ix = g.Nx - 1
	}
	if iy < 0 {
		iy = 0
	}
	if iy >= g.Ny {
		iy = g.Ny - 1
	}
	return ix, iy
}

// cellRange returns the half-open ranges of cell indices whose cells
// intersect rectangle r.
func (g Grid) cellRange(r Rect) (ix0, ix1, iy0, iy1 int) {
	cw, ch := g.CellW(), g.CellH()
	ix0 = int((r.X + Eps) / cw)
	iy0 = int((r.Y + Eps) / ch)
	ix1 = int((r.MaxX() - Eps) / cw)
	iy1 = int((r.MaxY() - Eps) / ch)
	if ix0 < 0 {
		ix0 = 0
	}
	if iy0 < 0 {
		iy0 = 0
	}
	if ix1 >= g.Nx {
		ix1 = g.Nx - 1
	}
	if iy1 >= g.Ny {
		iy1 = g.Ny - 1
	}
	return ix0, ix1 + 1, iy0, iy1 + 1
}

// CenterWindow returns half-open index ranges that hold every cell whose
// center can pass r.ContainsPoint, widened by one cell on each side so
// floating-point rounding of the centers can never push a member outside.
// It only bounds a scan: callers still decide membership with
// ContainsPoint, so a window scan visits exactly the cells a full scan
// accepts, in the same row-major order. Bounds are clamped in floating
// point before the integer conversion, so infinite or NaN edges yield the
// whole axis or an empty window, never an overflowed index.
func (g Grid) CenterWindow(r Rect) (ix0, ix1, iy0, iy1 int) {
	cw, ch := g.CellW(), g.CellH()
	// Cell i's center is (i+0.5)·cw; invert that for both edges.
	ix0 = clampIndex(math.Floor((r.X-Eps)/cw-0.5)-1, g.Nx)
	ix1 = clampIndex(math.Floor((r.MaxX()+Eps)/cw-0.5)+2, g.Nx)
	iy0 = clampIndex(math.Floor((r.Y-Eps)/ch-0.5)-1, g.Ny)
	iy1 = clampIndex(math.Floor((r.MaxY()+Eps)/ch-0.5)+2, g.Ny)
	return ix0, ix1, iy0, iy1
}

// clampIndex converts an index bound to an int in [0, n]; NaN maps to 0.
func clampIndex(f float64, n int) int {
	switch {
	case !(f > 0):
		return 0
	case f >= float64(n):
		return n
	}
	return int(f)
}

// RasterizeAdd distributes the scalar `total` (e.g. watts of a power block)
// over the grid cells that rectangle r covers, proportionally to covered
// area, adding into dst (len dst == NumCells). Rectangles reaching outside
// the grid footprint deposit only the inside fraction; the caller is
// responsible for validating floorplans beforehand if that matters.
func (g Grid) RasterizeAdd(dst []float64, r Rect, total float64) {
	if r.Empty() || total == 0 {
		return
	}
	area := r.Area()
	ix0, ix1, iy0, iy1 := g.cellRange(r)
	for iy := iy0; iy < iy1; iy++ {
		for ix := ix0; ix < ix1; ix++ {
			ov := g.CellRect(ix, iy).OverlapArea(r)
			if ov > 0 {
				dst[g.Index(ix, iy)] += total * ov / area
			}
		}
	}
}

// CoverageFraction fills dst with the fraction (0..1) of each cell covered
// by rectangle r, adding into any prior coverage. Used to blend material
// properties of overlapping floorplan fills.
func (g Grid) CoverageFraction(dst []float64, r Rect) {
	if r.Empty() {
		return
	}
	cellArea := g.CellArea()
	ix0, ix1, iy0, iy1 := g.cellRange(r)
	for iy := iy0; iy < iy1; iy++ {
		for ix := ix0; ix < ix1; ix++ {
			ov := g.CellRect(ix, iy).OverlapArea(r)
			if ov > 0 {
				dst[g.Index(ix, iy)] += ov / cellArea
			}
		}
	}
}
