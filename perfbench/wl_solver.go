package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"swquake/internal/core"
	"swquake/internal/decomp"
	"swquake/internal/grid"
	"swquake/internal/telemetry"
)

// checkSolver verifies one solver result: the configured step count, a
// finite and non-zero PGV map, a full trace per station and, against want
// (when non-empty), the output digest. It returns the digest.
func (e *env) checkSolver(label string, res *core.Result, steps int, want string) string {
	c := e.chk
	c.expect(res.Steps == steps, "%s: ran %d steps, want %d", label, res.Steps, steps)
	var peak float64
	finite := true
	if res.PGV != nil {
		for _, v := range res.PGV.PGV {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
			peak = max(peak, v)
		}
	}
	c.expect(finite && peak > 0, "%s: PGV map not finite and positive (peak %g)", label, peak)
	for _, t := range res.Recorder.Traces {
		c.expect(len(t.U) == steps, "%s: station %s has %d samples, want %d", label, t.Station.Name, len(t.U), steps)
	}
	d := coreDigest(res)
	if want != "" {
		c.expect(d == want, "%s: digest %s differs from %s", label, d, want)
	}
	return d
}

// solverE2E fills the end-to-end metrics of a solver workload. A "job" of a
// solver workload is one time step, so the job metrics are the step rate and
// the step latency; a "campaign member" is one complete heterogeneity
// realization, i.e. one whole run across the grid.
func solverE2E(m metricSet, setups, mcups, stepsPerS, runsPerS []float64, steps []time.Duration, heap *heapSampler) {
	st := seconds(steps)
	m.set("setup_s", median(setups))
	m.set("mcups", median(mcups))
	m.set("heap_peak_mib", heap.peakMiB())
	m.set("jobs_per_s", median(stepsPerS))
	m.set("job_latency_p50_s", median(st))
	m.set("job_latency_p90_s", quantile(st, 0.9))
	m.set("campaign_members_per_s", median(runsPerS))
}

// nlTiled measures whole runs of the nl-tiled problem for the run's
// seconds (at least one). Set-up, scenario.Build plus core.New, is
// measured five times and reported as the median.
func nlTiled(e *env, m metricSet) error {
	mk := func() (core.Config, error) { return nlConfig(e.seed, core.AutoTiles) }
	var setups []float64
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		cfg, err := mk()
		if err != nil {
			return err
		}
		if _, err := core.New(cfg); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	var mcups, stepsPerS, runsPerS []float64
	var steps []time.Duration
	var first string
	for deadline := time.Now().Add(e.secs); len(mcups) == 0 || time.Now().Before(deadline); {
		r := runSerial(nil, "", mk, &stepTimer{heap: e.heap}, nil)
		e.op(r.err == nil)
		if r.err != nil {
			return fmt.Errorf("nl-tiled run: %w", r.err)
		}
		setups = append(setups, r.buildS+r.newS)
		d := e.checkSolver("nl-tiled", r.res, nlSteps, first)
		if first == "" {
			first = d
			e.chk.pin(e.pinned, "nl-tiled/output", d)
		}
		mcups = append(mcups, r.mcups(r.res.Sim.Cfg.Dims.Points()))
		stepsPerS = append(stepsPerS, float64(r.res.Steps)/r.wall.Seconds())
		runsPerS = append(runsPerS, 1/r.wall.Seconds())
		steps = append(steps, r.steps...)
		r = solverRun{}
		runtime.GC()
	}
	solverE2E(m, setups, mcups, stepsPerS, runsPerS, steps, e.heap)
	return nil
}

// nlTiledTraced is the traced pass of nl-tiled: an untraced reference run,
// a traced run with the step profile, a kernel microbench on its simulator,
// and a tiles=1 run that is both the single-threaded baseline and the
// cross-path correctness gate.
func nlTiledTraced(e *env, m metricSet) error {
	triad := triadLayer(m, e.st)
	auto := func() (core.Config, error) { return nlConfig(e.seed, core.AutoTiles) }

	ref := runSerial(nil, "", auto, &stepTimer{}, nil)
	e.op(ref.err == nil)
	if ref.err != nil {
		return fmt.Errorf("nl-tiled reference run: %w", ref.err)
	}
	want := e.checkSolver("nl-tiled tiles=auto", ref.res, nlSteps, "")
	e.chk.pin(e.pinned, "nl-tiled/output", want)
	points := ref.res.Sim.Cfg.Dims.Points()
	refMcups := ref.mcups(points)
	ref = solverRun{}
	runtime.GC()

	tracer, err := e.chromeTracer()
	if err != nil {
		return err
	}
	t := &stepTimer{heap: e.heap, scanEvery: 4, subnormal: map[int]float64{}}
	tr := runSerial(e.rec, "nl-tiled/tiles=auto", auto, t, tracer)
	if err := tracer.Close(); err != nil {
		return err
	}
	e.op(tr.err == nil)
	if tr.err != nil {
		return fmt.Errorf("nl-tiled traced run: %w", tr.err)
	}
	e.checkSolver("nl-tiled traced tiles=auto", tr.res, nlSteps, want)
	m.set("scenario.build_s", tr.buildS)
	m.set("core.new_s", tr.newS)
	m.set("trace.overhead_frac", 1-tr.mcups(points)/refMcups)
	solverLayers(m, tr, t)
	if err := writeStepSeries(e.outPath("steps.csv"), tr.steps, t.subnormal); err != nil {
		return err
	}
	fdLayer(m, e.rec, tr.res.Sim, triad)
	tr, t = solverRun{}, nil
	runtime.GC()

	one := runSerial(nil, "", func() (core.Config, error) { return nlConfig(e.seed, 1) }, &stepTimer{}, nil)
	e.op(one.err == nil)
	if one.err != nil {
		return fmt.Errorf("nl-tiled tiles=1 run: %w", one.err)
	}
	e.checkSolver("nl-tiled tiles=1 vs tiles=auto", one.res, nlSteps, want)
	m.set("core.tile_scaling_eff", refMcups/(float64(runtime.GOMAXPROCS(0))*one.mcups(points)))
	return nil
}

// solverLayers fills the metrics a traced solver run yields directly: step
// latency, stage seconds, plasticity cost and the subnormal peak.
func solverLayers(m metricSet, r solverRun, t *stepTimer) {
	stepLayer(m, r.steps)
	rep := r.res.Stages.Report()
	stageLayer(m, rep)
	if pp := r.res.Perf.PlasticityPoints; pp > 0 {
		m.set("plasticity.ns_per_pt", stageSeconds(rep, "plasticity")*1e9/float64(pp))
		m.set("plasticity.yield_ratio", float64(r.res.YieldedPointSteps)/float64(pp))
		m.set("plasticity.point_steps", float64(pp))
	}
	if t.scanEvery > 0 {
		m.set("fd.subnormal_frac_peak", t.peakSubnormal())
	}
}

// halo2x2 measures back-to-back 2x2 runs for the run's seconds. Set-up of
// each run is the time from the RunParallel call to the first step minus
// one median step; the reported set-up is the median over runs.
func halo2x2(e *env, m metricSet) error {
	cfg, err := haloConfig(e.seed)
	if err != nil {
		return err
	}
	var setups, mcups, stepsPerS, runsPerS []float64
	var steps []time.Duration
	var first string
	for deadline := time.Now().Add(e.secs); len(mcups) == 0 || time.Now().Before(deadline); {
		r := runParallel(nil, "", cfg, 2, 2, &stepTimer{heap: e.heap}, nil)
		e.op(r.err == nil)
		if r.err != nil {
			return fmt.Errorf("halo-2x2 run: %w", r.err)
		}
		d := e.checkSolver("halo-2x2", r.res, haloSteps, first)
		if first == "" {
			first = d
			e.chk.pin(e.pinned, "halo-2x2/output", d)
		}
		st := seconds(r.steps)
		setups = append(setups, st[0]-median(st[1:]))
		mcups = append(mcups, r.mcups(cfg.Dims.Points()))
		stepsPerS = append(stepsPerS, float64(r.res.Steps)/r.wall.Seconds())
		runsPerS = append(runsPerS, 1/r.wall.Seconds())
		steps = append(steps, r.steps...)
	}
	solverE2E(m, setups, mcups, stepsPerS, runsPerS, steps, e.heap)
	return nil
}

// haloTracedRuns is how many 2x2 runs each half of the traced pass makes.
const haloTracedRuns = 5

// halo2x2Traced is the traced pass of halo-2x2: untraced and traced 2x2
// runs (for the trace overhead, stage shares and step profile), the serial
// engine on the same problem as the correctness gate and subnormal probe,
// a kernel microbench on the serial simulator, and the CRC microbench.
func halo2x2Traced(e *env, m metricSet) error {
	triad := triadLayer(m, e.st)
	cfg, err := haloConfig(e.seed)
	if err != nil {
		return err
	}
	points := cfg.Dims.Points()

	serial := &stepTimer{scanEvery: 2, subnormal: map[int]float64{}}
	sr := runSerial(e.rec, "halo-2x2/serial", func() (core.Config, error) {
		c, err := haloConfig(e.seed)
		return serialTwin(c), err
	}, serial, nil)
	e.op(sr.err == nil)
	if sr.err != nil {
		return fmt.Errorf("halo-2x2 serial run: %w", sr.err)
	}
	want := e.checkSolver("halo-2x2 serial engine", sr.res, haloSteps, "")
	m.set("scenario.build_s", sr.buildS)
	m.set("core.new_s", sr.newS)
	e.chk.pin(e.pinned, "halo-2x2/output", want)
	m.set("fd.subnormal_frac_peak", serial.peakSubnormal())
	fdLayer(m, e.rec, sr.res.Sim, triad)

	var ref, traced []float64
	for i := 0; i < haloTracedRuns; i++ {
		r := runParallel(nil, "", cfg, 2, 2, &stepTimer{}, nil)
		e.op(r.err == nil)
		if r.err != nil {
			return fmt.Errorf("halo-2x2 reference run: %w", r.err)
		}
		e.checkSolver("halo-2x2 vs serial engine", r.res, haloSteps, want)
		ref = append(ref, r.mcups(points))
	}
	tracer, err := e.chromeTracer()
	if err != nil {
		return err
	}
	stages := telemetry.NewStageClock()
	var last solverRun
	for i := 0; i < haloTracedRuns; i++ {
		r := runParallel(e.rec, fmt.Sprintf("halo-2x2/run-%d", i), cfg, 2, 2, &stepTimer{heap: e.heap}, tracer)
		e.op(r.err == nil)
		if r.err != nil {
			tracer.Close()
			return fmt.Errorf("halo-2x2 traced run: %w", r.err)
		}
		e.checkSolver("halo-2x2 traced vs serial engine", r.res, haloSteps, want)
		traced = append(traced, r.mcups(points))
		stages.Merge(r.res.Stages)
		last = r
	}
	if err := tracer.Close(); err != nil {
		return err
	}
	m.set("trace.overhead_frac", 1-median(traced)/median(ref))
	stepLayer(m, last.steps)
	rep := stages.Report()
	stageLayer(m, rep)
	if err := writeStepSeries(e.outPath("steps.csv"), last.steps, serial.subnormal); err != nil {
		return err
	}

	m.set("mpi.halo_bytes_per_step", float64(last.res.Perf.HaloBytes)/float64(last.res.Steps))
	pg, err := decomp.NewProcessGrid(cfg.Dims.Nx, cfg.Dims.Ny, cfg.Dims.Nz, 2, 2)
	if err != nil {
		return err
	}
	var sends int
	for r := 0; r < pg.Size(); r++ {
		for _, f := range []grid.Face{grid.FaceXMinus, grid.FaceXPlus, grid.FaceYMinus, grid.FaceYPlus} {
			if _, ok := pg.Neighbor(r, f); ok {
				sends++
			}
		}
	}
	// one message per neighbour face in each of the velocity and stress phases
	m.set("mpi.msgs_per_step", float64(2*sends))
	halo := stageSeconds(rep, "halo_velocity") + stageSeconds(rep, "halo_stress") + stageSeconds(rep, "halo_wait")
	m.set("mpi.halo_share", ratio(halo, rep.TotalSeconds()))
	gbps, err := crcMicro(e.rec, cfg.Dims, 300*time.Millisecond)
	if err != nil {
		return err
	}
	m.set("mpi.crc_gbps", gbps)
	return nil
}
