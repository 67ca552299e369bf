package fd

import (
	"math"
	"testing"

	"swquake/internal/grid"
)

// refSpongeRamp is the sponge as it was before it went separable: one
// interior-sized float32 factor per point, built as d=1; d*=cx; d*=cy;
// d*=cz. The shell-only sponge must reproduce it bit for bit.
func refSpongeRamp(gnx, gny, gnz, width int, alpha float64, i0, j0, nx, ny, nz int) []float32 {
	damp := make([]float32, nx*ny*nz)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				d := 1.0
				d *= cerjan(i0+i, gnx, width, alpha, true, true)
				d *= cerjan(j0+j, gny, width, alpha, true, true)
				d *= cerjan(k, gnz, width, alpha, false, true)
				damp[(i*ny+j)*nz+k] = float32(d)
			}
		}
	}
	return damp
}

// refSpongeApply multiplies every interior cell of all nine fields by the
// 3-D ramp, the full-box pass the shell-only sponge replaces.
func refSpongeApply(wf *Wavefield, damp []float32) {
	d := wf.D
	for _, f := range wf.AllFields() {
		for i := 0; i < d.Nx; i++ {
			for j := 0; j < d.Ny; j++ {
				row := f.Row(i, j)
				for k := range row {
					row[k] *= damp[(i*d.Ny+j)*d.Nz+k]
				}
			}
		}
	}
}

// seedSpecials fills every field (halos included) with a mix of ordinary
// values and the float32 edge cases a multiply by 1 must leave untouched:
// ±0, ±Inf, quiet NaN with and without payload, and subnormals.
func seedSpecials(wf *Wavefield, seed uint32) {
	specials := []float32{
		float32(math.Copysign(0, -1)), 0,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(0x7fc01234), math.Float32frombits(0xffc00001),
		math.Float32frombits(1), -math.Float32frombits(0x007fffff), math.Float32frombits(0x00012345),
		math.MaxFloat32, math.SmallestNonzeroFloat32,
	}
	s := seed | 1
	for _, f := range wf.AllFields() {
		for idx := range f.Data {
			s = s*1664525 + 1013904223
			if s%5 == 0 {
				f.Data[idx] = specials[(s>>8)%uint32(len(specials))]
			} else {
				f.Data[idx] = float32(s%2000)/1000 - 1
			}
		}
	}
}

// bitsIdentical compares every value of every field, halos included, by
// bit pattern, so NaNs and signed zeros count.
func bitsIdentical(t *testing.T, label string, a, b *Wavefield) {
	t.Helper()
	fb := b.AllFields()
	for c, fa := range a.AllFields() {
		for idx := range fa.Data {
			x, y := math.Float32bits(fa.Data[idx]), math.Float32bits(fb[c].Data[idx])
			if x != y {
				t.Fatalf("%s: field %d flat index %d: %#08x vs %#08x", label, c, idx, x, y)
			}
		}
	}
}

// TestSpongeShellMatchesFullRamp pins the shell-only sponge to the old
// full-box multiply by the 3-D ramp: Factor equals the ramp at every point,
// and ApplyRegion — over the whole box and over tilings — leaves the same
// bits as the reference, on serial blocks and on offset blocks of a
// decomposed mesh, with z extents both below and above the factor-buffer
// chunk.
func TestSpongeShellMatchesFullRamp(t *testing.T) {
	type block struct {
		name                 string
		gnx, gny, gnz, width int
		alpha                float64
		i0, j0, nx, ny       int
	}
	blocks := []block{
		{"serial", 23, 19, 17, 5, 0.08, 0, 0, 23, 19},
		{"serial-deep", 12, 11, 2*spongeChunk + 7, 4, 0.2, 0, 0, 12, 11},
		{"serial-overlapping-sides", 9, 10, 8, 6, 0.15, 0, 0, 9, 10},
		{"global-corner", 40, 36, 20, 5, 0.08, 0, 0, 20, 18},
		{"global-offset", 40, 36, 20, 5, 0.08, 20, 18, 20, 18},
		{"global-interior", 60, 60, 20, 5, 0.08, 20, 20, 20, 20},
		{"no-damping", 14, 13, 12, 3, 0, 0, 0, 14, 13},
	}
	for _, b := range blocks {
		var sp *Sponge
		if b.i0 == 0 && b.j0 == 0 && b.nx == b.gnx && b.ny == b.gny {
			sp = NewSponge(b.nx, b.ny, b.gnz, b.width, b.alpha)
		} else {
			sp = NewSpongeGlobal(b.gnx, b.gny, b.gnz, b.width, b.alpha, b.i0, b.j0, b.nx, b.ny, b.gnz)
		}
		d := grid.Dims{Nx: b.nx, Ny: b.ny, Nz: b.gnz}
		ramp := refSpongeRamp(b.gnx, b.gny, b.gnz, b.width, b.alpha, b.i0, b.j0, b.nx, b.ny, b.gnz)
		for i := 0; i < d.Nx; i++ {
			for j := 0; j < d.Ny; j++ {
				for k := 0; k < d.Nz; k++ {
					want := ramp[(i*d.Ny+j)*d.Nz+k]
					if got := sp.Factor(i, j, k); math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("%s: Factor(%d,%d,%d) = %v, ramp %v", b.name, i, j, k, got, want)
					}
				}
			}
		}

		ref := NewWavefield(d)
		seedSpecials(ref, uint32(d.Points()))
		refSpongeApply(ref, ramp)
		tilings := map[string][]grid.Region{
			"box":    {grid.Box(d)},
			"split":  grid.Box(d).Split(3, 2, 1),
			"z-cuts": grid.Box(d).Split(1, 1, 3),
		}
		for name, parts := range tilings {
			got := NewWavefield(d)
			seedSpecials(got, uint32(d.Points()))
			for _, r := range parts {
				sp.ApplyRegion(got, r)
			}
			bitsIdentical(t, b.name+"/"+name, ref, got)
		}
	}
}
