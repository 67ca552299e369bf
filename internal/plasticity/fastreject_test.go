package plasticity

import (
	"math"
	"math/rand"
	"testing"

	"swquake/internal/fd"
	"swquake/internal/grid"
)

// refApplyRegion is ApplyRegion as it was before the sqrt-free fast
// reject: every cell takes the float64 sqrt and compares tau with y. The
// fast reject must reproduce it bit for bit.
func refApplyRegion(wf *fd.Wavefield, p *Params, dt float64, r grid.Region) int {
	xx, yy, zz := wf.XX.Data, wf.YY.Data, wf.ZZ.Data
	xy, xz, yz := wf.XY.Data, wf.XZ.Data, wf.YZ.Data
	cohes, sphi, cphi := p.Cohes.Data, p.SinPhi.Data, p.CosPhi.Data
	pf, sig2, yld := p.FluidPres.Data, p.Sigma2.Data, p.YldFac.Data

	relax := float32(0)
	if p.Tv > 0 {
		relax = float32(math.Exp(-dt / p.Tv))
	}

	yielded := 0
	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			q := wf.XX.Idx(i, j, r.K0)
			for k := r.K0; k < r.K1; k, q = k+1, q+1 {
				txx := xx[q] + sig2[q]
				tyy := yy[q] + sig2[q]
				tzz := zz[q] + sig2[q]
				sm := (txx + tyy + tzz) * (1.0 / 3.0)

				dxx, dyy, dzz := txx-sm, tyy-sm, tzz-sm
				txy, txz, tyz := xy[q], xz[q], yz[q]
				j2 := 0.5*(dxx*dxx+dyy*dyy+dzz*dzz) + txy*txy + txz*txz + tyz*tyz
				tau := float32(math.Sqrt(float64(j2)))

				y := cohes[q]*cphi[q] - (sm+pf[q])*sphi[q]
				if y < 0 {
					y = 0
				}
				if tau <= y || tau == 0 {
					yld[q] = 1
					continue
				}
				r := y / tau
				if relax > 0 {
					r = r + (1-r)*relax
				}
				yld[q] = r
				yielded++

				xx[q] = sm + r*dxx - sig2[q]
				yy[q] = sm + r*dyy - sig2[q]
				zz[q] = sm + r*dzz - sig2[q]
				xy[q] = r * txy
				xz[q] = r * txz
				yz[q] = r * tyz
			}
		}
	}
	return yielded
}

// stepUlps moves v by n float32 ulps (n may be negative).
func stepUlps(v float32, n int) float32 {
	for ; n > 0; n-- {
		v = math.Nextafter32(v, float32(math.Inf(1)))
	}
	for ; n < 0; n++ {
		v = math.Nextafter32(v, float32(math.Inf(-1)))
	}
	return v
}

// TestFastRejectMatchesReference drives ApplyRegion and the pre-fast-reject
// kernel over stress states built to sit on the yield surface: pure and
// mixed shear whose j2 lies within a few ulps of y², j2 = 0 with and
// without cohesion, NaN, and random triaxial states. Stresses, YldFac
// and the yield count must match bit for bit, with and without
// viscoplastic relaxation, and the boundary cases the fast reject turns
// away (j2 > y² in float64 yet tau <= y after rounding) must occur.
func TestFastRejectMatchesReference(t *testing.T) {
	d := grid.Dims{Nx: 9, Ny: 8, Nz: 7}
	for _, tv := range []float64{0, 0.05} {
		rng := rand.New(rand.NewSource(3))
		wf := fd.NewWavefield(d)
		p := NewParams(d)
		p.SetUniform(1e6, math.Pi/6, 0)
		p.Tv = tv
		boundary := 0
		cell := 0
		for i := 0; i < d.Nx; i++ {
			for j := 0; j < d.Ny; j++ {
				for k := 0; k < d.Nz; k++ {
					cell++
					c := float32(rng.Float64() * 2e6)
					p.Cohes.Set(i, j, k, c)
					// no diagonal stress, Sigma2 and Pf zero: sm = 0, so the
					// kernel's yield stress is exactly c*cosφ
					y := c * p.CosPhi.At(i, j, k)
					n := rng.Intn(9) - 4
					switch cell % 6 {
					case 0, 1: // pure shear a few ulps around y
						wf.XY.Set(i, j, k, stepUlps(y, n))
					case 2: // mixed shear: j2 ≈ y² with its own rounding
						wf.XY.Set(i, j, k, stepUlps(y*0.6, n))
						wf.XZ.Set(i, j, k, stepUlps(y*0.8, -n))
					case 3: // j2 = 0, with and without cohesion
						if rng.Intn(2) == 0 {
							p.Cohes.Set(i, j, k, 0)
						}
					case 4: // random triaxial state over a lithostatic offset
						p.Sigma2.Set(i, j, k, float32(-rng.Float64()*3e6))
						p.FluidPres.Set(i, j, k, float32(rng.Float64()*1e6))
						for _, f := range wf.StressFields() {
							f.Set(i, j, k, float32(rng.NormFloat64()*1.5e6))
						}
					case 5:
						if rng.Intn(4) == 0 {
							wf.YZ.Set(i, j, k, float32(math.NaN()))
						} else {
							wf.YZ.Set(i, j, k, stepUlps(y, n))
						}
					}
					xy, xz, yz := wf.XY.At(i, j, k), wf.XZ.At(i, j, k), wf.YZ.At(i, j, k)
					j2 := xy*xy + xz*xz + yz*yz
					tau := float32(math.Sqrt(float64(j2)))
					if cell%6 != 4 && float64(j2) > float64(y)*float64(y) && tau <= y {
						boundary++
					}
				}
			}
		}
		if boundary == 0 {
			t.Fatalf("Tv=%g: no state with j2 > y² but tau <= y; the test misses the boundary", tv)
		}

		ref, refP := wf.Clone(), *p
		refP.YldFac = p.YldFac.Clone()
		box := grid.Box(d)
		wantN := refApplyRegion(ref, &refP, 0.01, box)
		gotN := ApplyRegion(wf, p, 0.01, box)
		if gotN != wantN || gotN == 0 {
			t.Fatalf("Tv=%g: yielded %d, reference %d", tv, gotN, wantN)
		}
		fields := append(wf.StressFields(), p.YldFac)
		refFields := append(ref.StressFields(), refP.YldFac)
		for c, f := range fields {
			for idx := range f.Data {
				a, b := math.Float32bits(f.Data[idx]), math.Float32bits(refFields[c].Data[idx])
				if a != b {
					t.Fatalf("Tv=%g: field %d flat index %d: %#08x vs reference %#08x", tv, c, idx, a, b)
				}
			}
		}
	}
}
