package fd

import "swquake/internal/grid"

// Region-parameterized stage kernels — the 3D generalization of the
// original [k0,k1) z-slab signatures (which remain as thin full-x/y
// wrappers). A Region is the unit of work of the core engine's tile pool
// and of the interior/shell decomposition used for overlapped halo
// exchange.
//
// Every kernel here is per-cell independent with respect to its own
// writes: the velocity kernel writes u,v,w reading only stresses and
// density; the stress kernel writes the six stresses reading only
// velocities and moduli; SLS.After, plasticity, attenuation and the sponge
// read and write only the cell they stand on. Therefore any disjoint
// partition of a region, executed in any order or concurrently, produces
// bit-identical fields — the property the region engine's correctness
// (and its property tests) rest on.

// UpdateVelocityRegion advances the velocity components over the region.
func UpdateVelocityRegion(wf *Wavefield, med *Medium, dtdx float32, r grid.Region) {
	sx, sy := wf.U.StrideX(), wf.U.StrideY()
	u, v, w := wf.U.Data, wf.V.Data, wf.W.Data
	xx, yy, zz := wf.XX.Data, wf.YY.Data, wf.ZZ.Data
	xy, xz, yz := wf.XY.Data, wf.XZ.Data, wf.YZ.Data
	rho := med.Rho.Data

	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			p := wf.U.Idx(i, j, r.K0)
			for k := r.K0; k < r.K1; k, p = k+1, p+1 {
				// u at (i+1/2, j, k): rho averaged along x
				ru := dtdx * 2 / (rho[p] + rho[p+sx])
				du := C1*(xx[p+sx]-xx[p]) + C2*(xx[p+2*sx]-xx[p-sx]) +
					C1*(xy[p]-xy[p-sy]) + C2*(xy[p+sy]-xy[p-2*sy]) +
					C1*(xz[p]-xz[p-1]) + C2*(xz[p+1]-xz[p-2])
				u[p] += ru * du

				// v at (i, j+1/2, k): rho averaged along y
				rv := dtdx * 2 / (rho[p] + rho[p+sy])
				dv := C1*(xy[p]-xy[p-sx]) + C2*(xy[p+sx]-xy[p-2*sx]) +
					C1*(yy[p+sy]-yy[p]) + C2*(yy[p+2*sy]-yy[p-sy]) +
					C1*(yz[p]-yz[p-1]) + C2*(yz[p+1]-yz[p-2])
				v[p] += rv * dv

				// w at (i, j, k+1/2): rho averaged along z
				rw := dtdx * 2 / (rho[p] + rho[p+1])
				dw := C1*(xz[p]-xz[p-sx]) + C2*(xz[p+sx]-xz[p-2*sx]) +
					C1*(yz[p]-yz[p-sy]) + C2*(yz[p+sy]-yz[p-2*sy]) +
					C1*(zz[p+1]-zz[p]) + C2*(zz[p+2]-zz[p-1])
				w[p] += rw * dw
			}
		}
	}
}

// UpdateStressRegion advances the stress components over the region.
func UpdateStressRegion(wf *Wavefield, med *Medium, dtdx float32, r grid.Region) {
	sx, sy := wf.U.StrideX(), wf.U.StrideY()
	u, v, w := wf.U.Data, wf.V.Data, wf.W.Data
	xx, yy, zz := wf.XX.Data, wf.YY.Data, wf.ZZ.Data
	xy, xz, yz := wf.XY.Data, wf.XZ.Data, wf.YZ.Data
	lam, mu := med.Lam.Data, med.Mu.Data

	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			p := wf.U.Idx(i, j, r.K0)
			for k := r.K0; k < r.K1; k, p = k+1, p+1 {
				// velocity gradients at the cell center (i, j, k)
				vxx := C1*(u[p]-u[p-sx]) + C2*(u[p+sx]-u[p-2*sx])
				vyy := C1*(v[p]-v[p-sy]) + C2*(v[p+sy]-v[p-2*sy])
				vzz := C1*(w[p]-w[p-1]) + C2*(w[p+1]-w[p-2])

				l, m := lam[p], mu[p]
				l2m := l + 2*m
				tr := vyy + vzz
				xx[p] += dtdx * (l2m*vxx + l*tr)
				yy[p] += dtdx * (l2m*vyy + l*(vxx+vzz))
				zz[p] += dtdx * (l2m*vzz + l*(vxx+vyy))

				// sxy at (i+1/2, j+1/2, k): harmonic mean of mu over 4 pts
				mxy := harmonic4(mu[p], mu[p+sx], mu[p+sy], mu[p+sx+sy])
				dxy := C1*(u[p+sy]-u[p]) + C2*(u[p+2*sy]-u[p-sy]) +
					C1*(v[p+sx]-v[p]) + C2*(v[p+2*sx]-v[p-sx])
				xy[p] += dtdx * mxy * dxy

				// sxz at (i+1/2, j, k+1/2)
				mxz := harmonic4(mu[p], mu[p+sx], mu[p+1], mu[p+sx+1])
				dxz := C1*(u[p+1]-u[p]) + C2*(u[p+2]-u[p-1]) +
					C1*(w[p+sx]-w[p]) + C2*(w[p+2*sx]-w[p-sx])
				xz[p] += dtdx * mxz * dxz

				// syz at (i, j+1/2, k+1/2)
				myz := harmonic4(mu[p], mu[p+sy], mu[p+1], mu[p+sy+1])
				dyz := C1*(v[p+1]-v[p]) + C2*(v[p+2]-v[p-1]) +
					C1*(w[p+sy]-w[p]) + C2*(w[p+2*sy]-w[p-sy])
				yz[p] += dtdx * myz * dyz
			}
		}
	}
}

// ApplyFreeSurfaceCols enforces the free-surface image condition on the
// columns [i0,i1) x [j0,j1) only. Column bounds may address halo columns
// (the full-grid wrapper images the whole ghost frame); the overlap
// pipeline images owned columns before the halo exchange completes and the
// ghost frame after.
func ApplyFreeSurfaceCols(wf *Wavefield, i0, i1, j0, j1 int) {
	for i := i0; i < i1; i++ {
		for j := j0; j < j1; j++ {
			for g := 1; g <= Halo; g++ {
				// antisymmetric tractions
				wf.ZZ.Set(i, j, -g, -wf.ZZ.At(i, j, g-1))
				wf.XZ.Set(i, j, -g, -wf.XZ.At(i, j, g-1))
				wf.YZ.Set(i, j, -g, -wf.YZ.At(i, j, g-1))
				// symmetric velocities
				wf.U.Set(i, j, -g, wf.U.At(i, j, g-1))
				wf.V.Set(i, j, -g, wf.V.At(i, j, g-1))
				wf.W.Set(i, j, -g, wf.W.At(i, j, g-1))
			}
		}
	}
}

// spongeChunk is the z-extent of the per-row factor buffer ApplyRegion
// keeps on its stack.
const spongeChunk = 64

// ApplyRegion multiplies the nine dynamic fields by the damping profile
// over the region, visiting only cells inside the damping shell: a column
// with cx*cy == 1 is touched only over the z range where cz != 1. Each
// column's factors are formed once, in the product order (cx*cy)*cz, and
// applied to all nine fields.
func (s *Sponge) ApplyRegion(wf *Wavefield, r grid.Region) {
	fields := wf.AllFields()
	var buf [spongeChunk]float32
	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			cxy := s.cx[i] * s.cy[j]
			k0, k1 := r.K0, r.K1
			if cxy == 1 {
				k0, k1 = max(k0, s.kLo), min(k1, s.kHi)
			}
			for c0 := k0; c0 < k1; c0 += spongeChunk {
				c1 := min(c0+spongeChunk, k1)
				d := buf[:c1-c0]
				for k := range d {
					d[k] = float32(cxy * s.cz[c0+k])
				}
				for _, f := range fields {
					row := f.Row(i, j)[c0:c1]
					d := d[:len(row)]
					for k := range row {
						row[k] *= d[k]
					}
				}
			}
		}
	}
}

// ApplyRegion damps the stress components over the region: diagonal
// stresses by the P factor, shear stresses by the S factor.
func (a *Attenuation) ApplyRegion(wf *Wavefield, r grid.Region) {
	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			gp := a.GP.Row(i, j)
			gs := a.GS.Row(i, j)
			xx, yy, zz := wf.XX.Row(i, j), wf.YY.Row(i, j), wf.ZZ.Row(i, j)
			xy, xz, yz := wf.XY.Row(i, j), wf.XZ.Row(i, j), wf.YZ.Row(i, j)
			for k := r.K0; k < r.K1; k++ {
				xx[k] *= gp[k]
				yy[k] *= gp[k]
				zz[k] *= gp[k]
				xy[k] *= gs[k]
				xz[k] *= gs[k]
				yz[k] *= gs[k]
			}
		}
	}
}

// AfterRegion evolves the memory variables and applies the anelastic
// correction over the region; the region counterpart of After.
func (s *SLS) AfterRegion(wf *Wavefield, dt float64, reg grid.Region) {
	ts := s.TauSigma
	a := float32((2*ts - dt) / (2*ts + dt))
	b := float32(2 * dt / (2*ts + dt))
	dtf := float32(dt)

	for c, f := range wf.StressFields() {
		r := s.R[c]
		prev := s.prev[c]
		for i := reg.I0; i < reg.I1; i++ {
			for j := reg.J0; j < reg.J1; j++ {
				row := f.Row(i, j)
				rRow := r.Row(i, j)
				pRow := prev.Row(i, j)
				phiRow := s.Phi.Row(i, j)
				for k := reg.K0; k < reg.K1; k++ {
					dsigma := row[k] - pRow[k] // = M_u * strain-rate * dt
					rOld := rRow[k]
					// semi-implicit trapezoid for
					//   dr/dt = -(r + phi*dsigma/dt)/tau_sigma
					rNew := a*rOld - b*(phiRow[k]*dsigma/dtf)
					rRow[k] = rNew
					row[k] += dtf * 0.5 * (rOld + rNew)
				}
			}
		}
	}
}

// UpdateVelocityFusedRegion advances the fused velocities over the region;
// numerically identical to UpdateVelocityRegion on the scalar layout.
func UpdateVelocityFusedRegion(f *FusedWavefield, med *Medium, dtdx float32, r grid.Region) {
	vel, str := f.Vel.Data, f.Str.Data
	rho := med.Rho.Data

	// strides in ELEMENTS of the fused arrays and in points of rho
	ssx := f.Str.Idx(1, 0, 0, 0) - f.Str.Idx(0, 0, 0, 0)
	ssy := f.Str.Idx(0, 1, 0, 0) - f.Str.Idx(0, 0, 0, 0)
	rsx, rsy := med.Rho.StrideX(), med.Rho.StrideY()

	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			vp := f.Vel.Idx(i, j, r.K0, 0)
			sp := f.Str.Idx(i, j, r.K0, 0)
			rp := med.Rho.Idx(i, j, r.K0)
			for k := r.K0; k < r.K1; k, vp, sp, rp = k+1, vp+3, sp+6, rp+1 {
				// u at (i+1/2, j, k)
				ru := dtdx * 2 / (rho[rp] + rho[rp+rsx])
				du := C1*(str[sp+ssx+cXX]-str[sp+cXX]) + C2*(str[sp+2*ssx+cXX]-str[sp-ssx+cXX]) +
					C1*(str[sp+cXY]-str[sp-ssy+cXY]) + C2*(str[sp+ssy+cXY]-str[sp-2*ssy+cXY]) +
					C1*(str[sp+cXZ]-str[sp-6+cXZ]) + C2*(str[sp+6+cXZ]-str[sp-12+cXZ])
				vel[vp] += ru * du

				// v at (i, j+1/2, k)
				rv := dtdx * 2 / (rho[rp] + rho[rp+rsy])
				dv := C1*(str[sp+cXY]-str[sp-ssx+cXY]) + C2*(str[sp+ssx+cXY]-str[sp-2*ssx+cXY]) +
					C1*(str[sp+ssy+cYY]-str[sp+cYY]) + C2*(str[sp+2*ssy+cYY]-str[sp-ssy+cYY]) +
					C1*(str[sp+cYZ]-str[sp-6+cYZ]) + C2*(str[sp+6+cYZ]-str[sp-12+cYZ])
				vel[vp+1] += rv * dv

				// w at (i, j, k+1/2)
				rw := dtdx * 2 / (rho[rp] + rho[rp+1])
				dw := C1*(str[sp+cXZ]-str[sp-ssx+cXZ]) + C2*(str[sp+ssx+cXZ]-str[sp-2*ssx+cXZ]) +
					C1*(str[sp+cYZ]-str[sp-ssy+cYZ]) + C2*(str[sp+ssy+cYZ]-str[sp-2*ssy+cYZ]) +
					C1*(str[sp+6+cZZ]-str[sp+cZZ]) + C2*(str[sp+12+cZZ]-str[sp-6+cZZ])
				vel[vp+2] += rw * dw
			}
		}
	}
}

// UpdateStressFusedRegion advances the fused stresses over the region;
// numerically identical to UpdateStressRegion on the scalar layout.
func UpdateStressFusedRegion(f *FusedWavefield, med *Medium, dtdx float32, r grid.Region) {
	vel, str := f.Vel.Data, f.Str.Data
	lam, mu := med.Lam.Data, med.Mu.Data

	vsx := f.Vel.Idx(1, 0, 0, 0) - f.Vel.Idx(0, 0, 0, 0)
	vsy := f.Vel.Idx(0, 1, 0, 0) - f.Vel.Idx(0, 0, 0, 0)
	msx, msy := med.Mu.StrideX(), med.Mu.StrideY()

	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			vp := f.Vel.Idx(i, j, r.K0, 0)
			sp := f.Str.Idx(i, j, r.K0, 0)
			mp := med.Mu.Idx(i, j, r.K0)
			for k := r.K0; k < r.K1; k, vp, sp, mp = k+1, vp+3, sp+6, mp+1 {
				vxx := C1*(vel[vp]-vel[vp-vsx]) + C2*(vel[vp+vsx]-vel[vp-2*vsx])
				vyy := C1*(vel[vp+1]-vel[vp-vsy+1]) + C2*(vel[vp+vsy+1]-vel[vp-2*vsy+1])
				vzz := C1*(vel[vp+2]-vel[vp-3+2]) + C2*(vel[vp+3+2]-vel[vp-6+2])

				l, m := lam[mp], mu[mp]
				l2m := l + 2*m
				str[sp+cXX] += dtdx * (l2m*vxx + l*(vyy+vzz))
				str[sp+cYY] += dtdx * (l2m*vyy + l*(vxx+vzz))
				str[sp+cZZ] += dtdx * (l2m*vzz + l*(vxx+vyy))

				mxy := harmonic4(mu[mp], mu[mp+msx], mu[mp+msy], mu[mp+msx+msy])
				dxy := C1*(vel[vp+vsy]-vel[vp]) + C2*(vel[vp+2*vsy]-vel[vp-vsy]) +
					C1*(vel[vp+vsx+1]-vel[vp+1]) + C2*(vel[vp+2*vsx+1]-vel[vp-vsx+1])
				str[sp+cXY] += dtdx * mxy * dxy

				mxz := harmonic4(mu[mp], mu[mp+msx], mu[mp+1], mu[mp+msx+1])
				dxz := C1*(vel[vp+3]-vel[vp]) + C2*(vel[vp+6]-vel[vp-3]) +
					C1*(vel[vp+vsx+2]-vel[vp+2]) + C2*(vel[vp+2*vsx+2]-vel[vp-vsx+2])
				str[sp+cXZ] += dtdx * mxz * dxz

				myz := harmonic4(mu[mp], mu[mp+msy], mu[mp+1], mu[mp+msy+1])
				dyz := C1*(vel[vp+3+1]-vel[vp+1]) + C2*(vel[vp+6+1]-vel[vp-3+1]) +
					C1*(vel[vp+vsy+2]-vel[vp+2]) + C2*(vel[vp+2*vsy+2]-vel[vp-vsy+2])
				str[sp+cYZ] += dtdx * myz * dyz
			}
		}
	}
}
