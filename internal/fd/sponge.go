package fd

import (
	"math"

	"swquake/internal/grid"
)

// Sponge implements Cerjan-style absorbing boundaries: inside a boundary
// zone of configurable width, every dynamic field is multiplied each step by
// a smooth damping profile < 1, absorbing outgoing waves. The top (k=0) face
// is never damped — it carries the free surface.
//
// The 3-D damping factor is separable, so the sponge stores only one 1-D
// float64 profile per axis and forms the factor at (i,j,k) as
// float32(cx[i]*cy[j]*cz[k]). Outside the damping shell all three profiles
// are exactly 1, and x*1 returns x unchanged for every float32 arithmetic
// can produce (±0, ±Inf, quiet NaN and subnormals included), so
// ApplyRegion skips those cells exactly.
type Sponge struct {
	D     struct{ Nx, Ny, Nz int }
	Width int
	// cx, cy, cz are the per-axis Cerjan profiles over the block interior,
	// evaluated at global indices (halo points are refreshed by exchanges).
	cx, cy, cz []float64
	// kLo, kHi bound the z-indices where cz != 1: a column whose x and y
	// factors are both 1 is damped only over [kLo,kHi).
	kLo, kHi int
}

// NewSponge builds a Cerjan sponge of the given width for dims (nx,ny,nz)
// with damping strength alpha (classic value 0.015-0.092; we default callers
// to 0.05 for ~60-95% round-trip absorption at typical widths).
func NewSponge(nx, ny, nz, width int, alpha float64) *Sponge {
	return NewSpongeGlobal(nx, ny, nz, width, alpha, 0, 0, nx, ny, nz)
}

// NewSpongeGlobal builds the sponge for a local block of (nx,ny,nz) points
// at offset (i0,j0) inside a global (gnx,gny,gnz) mesh, so that MPI-
// decomposed runs damp exactly the same global boundary zones as a serial
// run (interior ranks get no damping from faces they do not own).
func NewSpongeGlobal(gnx, gny, gnz, width int, alpha float64, i0, j0, nx, ny, nz int) *Sponge {
	s := &Sponge{Width: width}
	s.D.Nx, s.D.Ny, s.D.Nz = nx, ny, nz
	profile := func(off, n, gn int, lowSide bool) []float64 {
		p := make([]float64, n)
		for v := range p {
			p[v] = cerjan(off+v, gn, width, alpha, lowSide, true)
		}
		return p
	}
	s.cx = profile(i0, nx, gnx, true)
	s.cy = profile(j0, ny, gny, true)
	s.cz = profile(0, nz, gnz, false) // no damping at the free surface
	for k, c := range s.cz {
		if c != 1 {
			if s.kHi == 0 {
				s.kLo = k
			}
			s.kHi = k + 1
		}
	}
	return s
}

// cerjan returns the 1D damping factor for index v on an axis of length n.
func cerjan(v, n, width int, alpha float64, lowSide, highSide bool) float64 {
	d := 1.0
	if lowSide && v < width {
		t := float64(width-v) / float64(width)
		d *= math.Exp(-(alpha * t) * (alpha * t) * 100)
	}
	if highSide && v >= n-width {
		t := float64(v-(n-width-1)) / float64(width)
		d *= math.Exp(-(alpha * t) * (alpha * t) * 100)
	}
	return d
}

// Factor returns the damping factor at interior point (i,j,k).
func (s *Sponge) Factor(i, j, k int) float32 {
	return float32(s.cx[i] * s.cy[j] * s.cz[k])
}

// Apply multiplies all nine dynamic fields by the damping profile over the
// z-range [k0,k1). Thin full-x/y wrapper over ApplyRegion.
func (s *Sponge) Apply(wf *Wavefield, k0, k1 int) {
	s.ApplyRegion(wf, grid.Region{I1: s.D.Nx, J1: s.D.Ny, K0: k0, K1: k1})
}
