package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"swquake/internal/core"
	"swquake/internal/decomp"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/mpi"
	"swquake/internal/perfmodel"
	"swquake/internal/scenario"
	"swquake/internal/telemetry"
)

// Step counts of the solver workloads. A run must span the wavefront's
// crossing of the grid: while the front's leading edge is in the box, a few
// percent of the wavefield are subnormal floats and a step costs about three
// times what it costs before the front arrives or after it has left, so a
// shorter run would measure a different program.
const (
	nlSteps   = 240 // 128x124x48 at 250 m: the step cost settles by ~step 200
	haloSteps = 120 // 64x62x24 at 500 m: the step cost settles by ~step 80
)

// nlConfig is the nl-tiled problem: the Tangshan domain at twice the shipped
// resolution, nonlinear, constant-Q, with seeded heterogeneity.
func nlConfig(seed int64, tiles int) (core.Config, error) {
	return scenario.Build("tangshan", scenario.Overrides{
		Nx: 128, Ny: 124, Nz: 48, Dx: 250, Steps: nlSteps,
		Nonlinear: true, Qs: 50, HetAmplitude: 0.05, Seed: seed, Tiles: tiles,
	})
}

// haloConfig is the halo-2x2 problem: the shipped Tangshan grid, linear,
// with seeded heterogeneity, set up for an overlapped CRC-framed 2x2 run.
func haloConfig(seed int64) (core.Config, error) {
	cfg, err := scenario.Build("tangshan", scenario.Overrides{
		Steps: haloSteps, Overlap: true, Tiles: 1, HetAmplitude: 0.05, Seed: seed,
	})
	cfg.HaloCRC = true
	// generous: a 2x2 step takes milliseconds, so this never fires
	cfg.StepDeadline = 60 * time.Second
	return cfg, err
}

// serialTwin is cfg for the serial single-threaded engine.
func serialTwin(cfg core.Config) core.Config {
	cfg.Overlap, cfg.HaloCRC, cfg.StepDeadline, cfg.Tiles = false, false, 0, 1
	return cfg
}

// stepTimer records, on the benchmark's clock, when each step of a run
// completed, sampling the heap at every step boundary.
type stepTimer struct {
	start time.Time
	at    []time.Time
	heap  *heapSampler
	// scanEvery, when > 0, records the subnormal share of sim's wavefield
	// after every scanEvery-th step, in a span under the core.Run span.
	scanEvery int
	subnormal map[int]float64
	sim       *core.Simulator
	rec       *recorder
	trace     string
	parent    int64
}

func (t *stepTimer) observe(ev core.StepEvent) {
	t.at = append(t.at, time.Now())
	if t.heap != nil {
		t.heap.sample()
	}
	if t.scanEvery > 0 && ev.Step%t.scanEvery == 0 {
		t.rec.do(t.trace, t.parent, "bench.subnormal_scan", func(int64) {
			t.subnormal[ev.Step] = subnormalFrac(t.sim.WF)
		})
	}
}

// intervals returns each step's wall time; the first is measured from the
// start of the Run call.
func (t *stepTimer) intervals() []time.Duration {
	out := make([]time.Duration, len(t.at))
	prev := t.start
	for i, at := range t.at {
		out[i] = at.Sub(prev)
		prev = at
	}
	return out
}

// peakSubnormal is the largest sampled subnormal share.
func (t *stepTimer) peakSubnormal() float64 {
	var p float64
	for _, v := range t.subnormal {
		p = max(p, v)
	}
	return p
}

// solverRun is one timed Run/RunParallel call.
type solverRun struct {
	res   *core.Result
	err   error
	wall  time.Duration
	steps []time.Duration
	// buildS and newS are the scenario.Build and core.New times (serial).
	buildS, newS float64
}

func (r solverRun) mcups(points int64) float64 {
	return float64(points) * float64(r.res.Steps) / r.wall.Seconds() / 1e6
}

// runSerial builds a simulator from mk's config and runs it, timing
// scenario.Build, core.New and Run separately; the spans of the run share
// the given trace (rec may be nil).
func runSerial(rec *recorder, trace string, mk func() (core.Config, error), t *stepTimer, tracer *telemetry.Tracer) solverRun {
	var out solverRun
	rec.do(trace, 0, "bench.run", func(root int64) {
		var cfg core.Config
		t0 := time.Now()
		rec.do(trace, root, "scenario.Build", func(int64) { cfg, out.err = mk() })
		out.buildS = time.Since(t0).Seconds()
		if out.err != nil {
			return
		}
		cfg.Observer, cfg.Tracer = t.observe, tracer
		var sim *core.Simulator
		t1 := time.Now()
		rec.do(trace, root, "core.New", func(int64) { sim, out.err = core.New(cfg) })
		out.newS = time.Since(t1).Seconds()
		if out.err != nil {
			return
		}
		t.sim = sim
		rec.do(trace, root, "core.Run", func(id int64) {
			t.rec, t.trace, t.parent = rec, trace, id
			t.start = time.Now()
			out.res, out.err = sim.Run()
			out.wall = time.Since(t.start)
		})
		out.steps = t.intervals()
	})
	return out
}

// runParallel runs cfg on an mx x my simulated-MPI grid, timing the call.
func runParallel(rec *recorder, trace string, cfg core.Config, mx, my int, t *stepTimer, tracer *telemetry.Tracer) solverRun {
	var out solverRun
	cfg.Observer, cfg.Tracer = t.observe, tracer
	rec.do(trace, 0, "bench.run", func(root int64) {
		rec.do(trace, root, "core.RunParallel", func(int64) {
			t.start = time.Now()
			out.res, out.err = core.RunParallel(cfg, mx, my)
			out.wall = time.Since(t.start)
		})
	})
	out.steps = t.intervals()
	return out
}

// subnormalFrac is the share of stored wavefield values that are subnormal
// float32s (zero exponent, non-zero mantissa), over all nine fields
// including their halos.
func subnormalFrac(wf *fd.Wavefield) float64 {
	var sub, total int
	for _, f := range append(wf.VelocityFields(), wf.StressFields()...) {
		for _, x := range f.Data {
			b := math.Float32bits(x)
			if b&0x7f800000 == 0 && b&0x007fffff != 0 {
				sub++
			}
		}
		total += len(f.Data)
	}
	return ratio(float64(sub), float64(total))
}

// fdMicro times the velocity and stress region kernels single-threaded over
// the block's whole interior and returns the median ns per point of each.
func fdMicro(rec *recorder, sim *core.Simulator, budget time.Duration) (velNs, strNs float64) {
	wf, med := sim.WF, sim.Med
	dtdx := float32(sim.Dt() / sim.Cfg.Dx)
	r := grid.Box(wf.D)
	pts := float64(wf.D.Points())
	timeKernel := func(name string, k func()) float64 {
		var per []float64
		deadline := time.Now().Add(budget)
		for len(per) < 5 || (time.Now().Before(deadline) && len(per) < 200) {
			rec.do("fd-micro", 0, name, func(int64) {
				t0 := time.Now()
				k()
				per = append(per, float64(time.Since(t0).Nanoseconds())/pts)
			})
		}
		return median(per)
	}
	velNs = timeKernel("fd.UpdateVelocityRegion", func() { fd.UpdateVelocityRegion(wf, med, dtdx, r) })
	strNs = timeKernel("fd.UpdateStressRegion", func() { fd.UpdateStressRegion(wf, med, dtdx, r) })
	return velNs, strNs
}

// kernelBytes is the computed bytes per point of a perfmodel kernel: every
// float32 array it reads plus every array it writes.
func kernelBytes(name string) float64 {
	for _, k := range perfmodel.Fig7Kernels() {
		if k.Name == name {
			return float64(k.ReadArrays+k.WriteArrays) * 4
		}
	}
	panic("perfmodel has no kernel " + name)
}

// Velocity maps to the paper's delcx kernel and stress to dstrqc.
var (
	velocityBytesPerPt = kernelBytes("delcx")
	stressBytesPerPt   = kernelBytes("dstrqc")
)

// fdLayer fills the fd.* kernel metrics from a microbench on sim.
func fdLayer(m metricSet, rec *recorder, sim *core.Simulator, triad float64) {
	velNs, strNs := fdMicro(rec, sim, 400*time.Millisecond)
	m.set("fd.velocity_ns_per_pt", velNs)
	m.set("fd.stress_ns_per_pt", strNs)
	m.set("fd.velocity_gbps", velocityBytesPerPt/velNs)
	m.set("fd.stress_gbps", stressBytesPerPt/strNs)
	m.set("fd.velocity_ceiling_frac", ratio(velocityBytesPerPt/velNs, triad))
	m.set("fd.stress_ceiling_frac", ratio(stressBytesPerPt/strNs, triad))
}

// triadLayer measures the host memory ceiling with arrays four times the
// last-level cache (at least 64 MiB each).
func triadLayer(m metricSet, st *stamp) float64 {
	size := 4 * st.L3Bytes
	if size < 64<<20 {
		size = 64 << 20
	}
	st.StreamArrayBytes = size
	gbps := streamTriad(size, 4)
	runtime.GC()
	m.set("host.triad_gbps", gbps)
	return gbps
}

// stageLayer fills core.stage.<stage>_s from a stage report.
func stageLayer(m metricSet, rep telemetry.StageReport) {
	for _, s := range rep.Stages {
		m.set("core.stage."+s.Name+"_s", s.Seconds)
	}
}

// stageSeconds is one stage's seconds in a report (0 when absent).
func stageSeconds(rep telemetry.StageReport, name string) float64 {
	for _, s := range rep.Stages {
		if s.Name == name {
			return s.Seconds
		}
	}
	return 0
}

// stepLayer fills the per-step latency metrics.
func stepLayer(m metricSet, steps []time.Duration) {
	ms := seconds(steps)
	for i := range ms {
		ms[i] *= 1e3
	}
	m.set("core.step_ms_p50", median(ms))
	m.set("core.step_ms_p90", quantile(ms, 0.9))
}

// writeStepSeries stores a run's per-step wall time and sampled subnormal
// share as CSV.
func writeStepSeries(path string, steps []time.Duration, sub map[int]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintln(f, "step,wall_ms,subnormal_frac")
	for i, d := range steps {
		s := ""
		if v, ok := sub[i+1]; ok {
			s = fmt.Sprintf("%.6g", v)
		}
		fmt.Fprintf(f, "%d,%.4f,%s\n", i+1, d.Seconds()*1e3, s)
	}
	return f.Close()
}

// crcMicro times SealCRC+OpenCRC on a buffer the size of the largest halo
// face of a 2x2 block of cfg (six stress fields) and returns GB/s of
// payload checksummed (each pass reads the payload once).
func crcMicro(rec *recorder, d grid.Dims, budget time.Duration) (float64, error) {
	pg, err := decomp.NewProcessGrid(d.Nx, d.Ny, d.Nz, 2, 2)
	if err != nil {
		return 0, err
	}
	b := pg.BlockDims()
	h := grid.DefaultHalo
	n := h * (max(b.Nx, b.Ny) + 2*h) * (b.Nz + 2*h) * 6
	buf := make([]float32, n+1)
	for i := range buf[:n] {
		buf[i] = float32(i%977) * 1e-3
	}
	var iters int
	t0 := time.Now()
	for iters < 50 || time.Since(t0) < budget {
		rec.do("crc-micro", 0, "mpi.SealCRC", func(int64) { mpi.SealCRC(buf) })
		var openErr error
		rec.do("crc-micro", 0, "mpi.OpenCRC", func(int64) { _, openErr = mpi.OpenCRC(buf) })
		if openErr != nil {
			return 0, openErr
		}
		iters++
	}
	return float64(2*4*n*iters) / time.Since(t0).Seconds() / 1e9, nil
}
