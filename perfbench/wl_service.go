package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"swquake/internal/admission"
	"swquake/internal/checkpoint"
	"swquake/internal/core"
	"swquake/internal/ensemble"
	"swquake/internal/scenario"
	"swquake/internal/service"
	"swquake/internal/telemetry"
)

// The service-mix catalogue: each fresh interactive job is one of four
// kinds with a step count from the kind's range. Successive fresh jobs
// cycle through the kinds, and each kind walks its step range in a seeded
// antithetic order (s, then max+min-s), so every run submits the same mix
// of job sizes whatever the seed; only the order differs. Once a kind has
// used its whole range it starts another pass with seeded heterogeneity
// (pass p uses het seed p), so a fresh spec is never a repeat.
type jobKind struct {
	name       string
	scenario   string
	over       scenario.Overrides
	mx, my     int
	minSteps   int
	stepsRange int // even
}

var catalogue = []jobKind{
	{name: "quickstart", scenario: "quickstart", minSteps: 16, stepsRange: 64},
	{name: "tangshan-40-linear", scenario: "tangshan", over: scenario.Overrides{Nx: 40, Ny: 40, Nz: 20}, minSteps: 16, stepsRange: 32},
	{name: "tangshan-40-nonlinear", scenario: "tangshan", over: scenario.Overrides{Nx: 40, Ny: 40, Nz: 20, Nonlinear: true}, minSteps: 16, stepsRange: 32},
	{name: "tangshan-48-2x1", scenario: "tangshan", over: scenario.Overrides{Nx: 48, Ny: 48, Nz: 20}, mx: 2, my: 1, minSteps: 16, stepsRange: 32},
}

const (
	// Every repeatEvery-th interactive job resubmits one of the recentSpecs
	// latest fresh specs, which are still in the service's 64-entry result
	// cache, so a third of the interactive jobs are cache hits.
	repeatEvery = 3
	recentSpecs = 8
	// Batch campaigns: seed sweeps of campaignMembers tangshan 40x40x20
	// members of campaignSteps steps each.
	campaignMembers = 6
	campaignSteps   = 30
	// minFresh fresh interactive jobs leave ten latency samples beyond p90.
	minFresh = 100
)

// campaignBase is every campaign member's scenario.
var campaignBase = scenario.Overrides{Nx: 40, Ny: 40, Nz: 20, Steps: campaignSteps}

// jobDraw is one interactive submission of the catalogue.
type jobDraw struct {
	label string
	spec  service.JobSpec
}

// specGen draws the interactive job sequence from the seed.
type specGen struct {
	rng    *rand.Rand
	drawn  int     // interactive jobs drawn
	fresh  int     // fresh specs drawn
	kind0  int     // seeded first kind of the cycle
	used   []int   // per kind: fresh specs drawn
	steps  [][]int // per kind: antithetic order of step offsets
	recent []jobDraw
}

func newSpecGen(seed int64) *specGen {
	g := &specGen{rng: rand.New(rand.NewSource(seed)), used: make([]int, len(catalogue))}
	g.kind0 = g.rng.Intn(len(catalogue))
	for _, k := range catalogue {
		var order []int
		for _, x := range g.rng.Perm(k.stepsRange / 2) {
			order = append(order, x, k.stepsRange-1-x)
		}
		g.steps = append(g.steps, order)
	}
	return g
}

func (g *specGen) next() jobDraw {
	g.drawn++
	if g.drawn%repeatEvery == 0 && len(g.recent) > 0 {
		return g.recent[g.rng.Intn(len(g.recent))]
	}
	ki := (g.kind0 + g.fresh) % len(catalogue)
	g.fresh++
	k := catalogue[ki]
	i := g.used[ki]
	g.used[ki]++
	o := k.over
	o.Steps = k.minSteps + g.steps[ki][i%len(g.steps[ki])]
	label := fmt.Sprintf("%s/steps=%d", k.name, o.Steps)
	if pass := i / len(g.steps[ki]); pass > 0 {
		o.HetAmplitude, o.Seed = 0.05, int64(pass)
		label += fmt.Sprintf("/het=%d", pass)
	}
	d := jobDraw{label: label, spec: service.JobSpec{Scenario: k.scenario, Overrides: o, MX: k.mx, MY: k.my}}
	g.recent = append(g.recent, d)
	if len(g.recent) > recentSpecs {
		g.recent = g.recent[1:]
	}
	return d
}

// campaignSeedBase is the first heterogeneity seed of the c-th campaign.
func campaignSeedBase(seed int64, c int) int64 {
	return seed*100_000 + int64(c*campaignMembers) + 1
}

// memBudget is the sum of the two largest catalogue jobs' estimated costs,
// so jobs can wait for budget but none is rejected.
func memBudget() (int64, error) {
	var costs []int64
	for _, k := range catalogue {
		o := k.over
		o.Steps = k.minSteps + k.stepsRange - 1
		cfg, err := scenario.Build(k.scenario, o)
		if err != nil {
			return 0, err
		}
		costs = append(costs, admission.EstimateCost(cfg, k.mx, k.my).Bytes)
	}
	var a, b int64
	for _, c := range costs {
		switch {
		case c > a:
			a, b = c, a
		case c > b:
			b = c
		}
	}
	return a + b, nil
}

// svcStack is an open job service with its ensemble manager.
type svcStack struct {
	svc *service.Service
	ens *ensemble.Manager
	dir string
}

func openStack(dir string, budget int64, tracer *telemetry.Tracer) (*svcStack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	svc, err := service.Open(service.Options{DataDir: dir, Workers: runtime.NumCPU(), MemBudget: budget, Tracer: tracer})
	if err != nil {
		return nil, err
	}
	ens, err := ensemble.Open(ensemble.Options{Service: svc, DataDir: dir, Tracer: tracer})
	if err != nil {
		svc.Drain(context.Background())
		return nil, err
	}
	return &svcStack{svc: svc, ens: ens, dir: dir}, nil
}

// close drains the stack and removes its directory, syncing the parent so
// that the removal is on disk before the next set-up is timed.
func (s *svcStack) close() error {
	ctx := context.Background()
	err := errors.Join(s.ens.Drain(ctx), s.svc.Drain(ctx), os.RemoveAll(s.dir))
	if d, derr := os.Open(filepath.Dir(s.dir)); derr == nil {
		err = errors.Join(err, d.Sync(), d.Close())
	}
	return err
}

// interactiveJob is the client-side record of one interactive job.
type interactiveJob struct {
	draw              jobDraw
	hit               bool
	latency           time.Duration // Submit call to Result returned
	submit, result    time.Duration // the Submit and Result calls alone
	queueWait, runFor time.Duration // Started-Submitted, Finished-Started
	digest            string
	cells             float64 // grid points x steps (fresh jobs)
}

// mixOutcome is what one service-mix run measured.
type mixOutcome struct {
	jobs            []interactiveJob
	interactiveWall time.Duration
	campaigns       []time.Duration
	aggregates      []time.Duration
	membersFolded   int
	memberCells     float64
	batchWall       time.Duration
	metrics         service.Metrics
	stages          telemetry.StageReport
	firstFresh      []jobDraw // the first fresh specs, in draw order
	digestByLabel   map[string]string
}

// runMix drives the two closed-loop clients against st for e.secs.
func runMix(e *env, st *svcStack, rec *recorder) *mixOutcome {
	out := &mixOutcome{digestByLabel: map[string]string{}}
	var heapMu sync.Mutex
	sampleHeap := func() {
		heapMu.Lock()
		e.heap.sample()
		heapMu.Unlock()
	}
	// The interactive client runs for the run's seconds and on until it has
	// minFresh fresh jobs (or hardStop passes); the batch client runs as
	// long as the interactive one, so the mix stays the same throughout.
	deadline := time.Now().Add(e.secs)
	hardStop := time.Now().Add(max(4*e.secs, time.Minute))
	var interactiveDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer interactiveDone.Store(true)
		t0 := time.Now()
		gen := newSpecGen(e.seed)
		fresh := 0
		for n := 0; time.Now().Before(deadline) || (fresh < minFresh && time.Now().Before(hardStop)); n++ {
			d := gen.next()
			j, ok := interactive(e, st.svc, rec, fmt.Sprintf("job-%d", n), d)
			e.op(ok)
			sampleHeap()
			if !ok {
				continue
			}
			if !j.hit {
				fresh++
				if _, seen := out.digestByLabel[d.label]; !seen && len(out.firstFresh) < 6 {
					out.firstFresh = append(out.firstFresh, d)
				}
				out.digestByLabel[d.label] = j.digest
			} else if want, ok := out.digestByLabel[d.label]; ok {
				e.chk.expect(j.digest == want, "service-mix: cache hit for %s served digest %s, fresh run gave %s", d.label, j.digest, want)
			}
			out.jobs = append(out.jobs, j)
		}
		out.interactiveWall = time.Since(t0)
	}()
	go func() {
		defer wg.Done()
		t0 := time.Now()
		for c := 0; !interactiveDone.Load(); c++ {
			campaign(e, st.ens, rec, c, out)
			sampleHeap()
		}
		out.batchWall = time.Since(t0)
	}()
	wg.Wait()
	out.metrics = st.svc.Metrics()
	out.stages = st.svc.StageReport()
	return out
}

// interactive runs one Submit -> Wait -> Result job and reports whether it
// succeeded.
func interactive(e *env, svc *service.Service, rec *recorder, trace string, d jobDraw) (interactiveJob, bool) {
	j := interactiveJob{draw: d}
	ok := false
	rec.do(trace, 0, "bench.job", func(root int64) {
		var cfg core.Config
		var err error
		rec.do(trace, root, "scenario.Build", func(int64) { cfg, err = scenario.Build(d.spec.Scenario, d.spec.Overrides) })
		if err != nil {
			e.chk.note("service-mix: build %s: %v", d.label, err)
			return
		}
		spec := d.spec
		req := service.Request{Config: cfg, MX: spec.MX, MY: spec.MY, Spec: &spec}
		var id string
		t0 := time.Now()
		rec.do(trace, root, "service.Submit", func(int64) { id, err = svc.Submit(req) })
		j.submit = time.Since(t0)
		if err != nil {
			e.chk.note("service-mix: submit %s: %v", d.label, err)
			return
		}
		var st service.Status
		rec.do(trace, root, "service.Wait", func(int64) { st, err = svc.Wait(context.Background(), id) })
		if err != nil || st.State != service.StateDone {
			e.chk.note("service-mix: job %s (%s) ended %s: %v %s", id, d.label, st.State, err, st.Error)
			return
		}
		var res *service.Result
		t1 := time.Now()
		rec.do(trace, root, "service.Result", func(int64) { res, err = svc.Result(id) })
		j.result = time.Since(t1)
		j.latency = time.Since(t0)
		if err != nil {
			e.chk.note("service-mix: result %s: %v", id, err)
			return
		}
		j.hit = st.CacheHit
		j.queueWait = st.Started.Sub(st.Submitted)
		j.runFor = st.Finished.Sub(st.Started)
		j.digest = serviceDigest(res)
		j.cells = float64(cfg.Dims.Points()) * float64(cfg.Steps)
		ok = true
	})
	return j, ok
}

// campaign runs the c-th seed-sweep campaign: Create -> Wait -> Aggregate.
func campaign(e *env, ens *ensemble.Manager, rec *recorder, c int, out *mixOutcome) {
	trace := fmt.Sprintf("campaign-%d", c)
	spec := ensemble.CampaignSpec{
		Name:     trace,
		Scenario: "tangshan",
		Base:     campaignBase,
		Seeds:    ensemble.SeedAxis{Base: campaignSeedBase(e.seed, c), Count: campaignMembers, HetAmplitude: 0.05},
	}
	ok := false
	rec.do(trace, 0, "bench.campaign", func(root int64) {
		t0 := time.Now()
		var st ensemble.Status
		var err error
		rec.do(trace, root, "ensemble.Create", func(int64) { st, err = ens.Create(spec) })
		if err != nil {
			e.chk.note("service-mix: create %s: %v", trace, err)
			return
		}
		rec.do(trace, root, "ensemble.Wait", func(int64) { st, err = ens.Wait(context.Background(), st.ID) })
		if err != nil || st.State != ensemble.StateDone {
			e.chk.note("service-mix: campaign %s ended %s: %v %s", trace, st.State, err, st.Error)
			return
		}
		out.campaigns = append(out.campaigns, time.Since(t0))
		var agg *ensemble.Aggregate
		t1 := time.Now()
		rec.do(trace, root, "ensemble.Aggregate", func(int64) { agg, err = ens.Aggregate(st.ID) })
		out.aggregates = append(out.aggregates, time.Since(t1))
		if err != nil {
			e.chk.note("service-mix: aggregate %s: %v", trace, err)
			return
		}
		out.membersFolded += agg.Folded
		out.memberCells += float64(agg.Folded*campaignBase.Nx*campaignBase.Ny*campaignBase.Nz) * campaignSteps
		if ok = agg.Folded == campaignMembers && agg.Skipped == 0; !ok {
			e.chk.note("service-mix: campaign %s folded %d of %d members, skipped %d", trace, agg.Folded, campaignMembers, agg.Skipped)
		}
	})
	e.op(ok)
}

// openTimed opens a service stack in a fresh directory and returns it with
// its set-up time, service.Open plus ensemble.Open.
func openTimed(name string, budget int64, tracer *telemetry.Tracer) (*svcStack, float64, error) {
	dir := filepath.Join(tmpDir, fmt.Sprintf("service-mix-%d-%s", os.Getpid(), name))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	st, err := openStack(dir, budget, tracer)
	return st, time.Since(t0).Seconds(), err
}

// timeOpens opens and closes n stacks and returns each set-up time.
func timeOpens(tag string, n int, budget int64) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		st, s, err := openTimed(fmt.Sprintf("%s-%d", tag, i), budget, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if err := st.close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fresh returns the jobs that ran (not cache hits).
func (o *mixOutcome) fresh() []interactiveJob {
	var f []interactiveJob
	for _, j := range o.jobs {
		if !j.hit {
			f = append(f, j)
		}
	}
	return f
}

func (o *mixOutcome) jobsPerS() float64 {
	return float64(len(o.jobs)) / o.interactiveWall.Seconds()
}

// checkMix applies the run-level checks: no failed or rejected job, and the
// default seed's first fresh outputs against the pinned digests.
func (e *env) checkMix(o *mixOutcome) {
	e.chk.expect(o.metrics.Rejected == 0, "service-mix: %d submissions rejected", o.metrics.Rejected)
	e.chk.expect(o.metrics.Failed == 0 && o.metrics.Canceled == 0,
		"service-mix: %d jobs failed, %d canceled", o.metrics.Failed, o.metrics.Canceled)
	e.chk.expect(len(o.fresh()) >= minFresh, "service-mix: only %d fresh interactive jobs, want >= %d for a p90",
		len(o.fresh()), minFresh)
	for _, d := range o.firstFresh {
		e.chk.pin(e.pinned, "service-mix/"+d.label, o.digestByLabel[d.label])
	}
}

// serviceMix measures the two clients against a durable service for the
// run's seconds.
func serviceMix(e *env, m metricSet) error {
	budget, err := memBudget()
	if err != nil {
		return err
	}
	// Set-up is a millisecond of mostly fsync, whose latency drifts with the
	// host's disk load, so it is sampled both before the run and after it,
	// when the host is idle again: 10 opens each, median of all 20.
	setups, err := timeOpens("pre", 9, budget)
	if err != nil {
		return err
	}
	st, setup, err := openTimed("run", budget, nil)
	if err != nil {
		return err
	}
	o := runMix(e, st, nil)
	if err := st.close(); err != nil {
		return err
	}
	post, err := timeOpens("post", 10, budget)
	if err != nil {
		return err
	}
	setups = append(append(setups, setup), post...)
	e.checkMix(o)
	fresh := o.fresh()
	var lat []float64
	var cells float64
	for _, j := range fresh {
		lat = append(lat, j.latency.Seconds())
		cells += j.cells
	}
	wall := max(o.interactiveWall, o.batchWall).Seconds()
	m.set("setup_s", median(setups))
	m.set("mcups", (cells+o.memberCells)/wall/1e6)
	m.set("heap_peak_mib", e.heap.peakMiB())
	m.set("jobs_per_s", o.jobsPerS())
	m.set("job_latency_p50_s", median(lat))
	m.set("job_latency_p90_s", quantile(lat, 0.9))
	m.set("campaign_members_per_s", float64(o.membersFolded)/o.batchWall.Seconds())
	return nil
}

// serviceMixTraced is the traced pass of service-mix: an untraced run for
// the trace overhead, a traced run for the service and ensemble layers,
// every distinct fresh spec of the traced run re-run directly on the engine
// as the correctness gate, and a checkpoint microbench.
func serviceMixTraced(e *env, m metricSet) error {
	budget, err := memBudget()
	if err != nil {
		return err
	}
	st, _, err := openTimed("ref", budget, nil)
	if err != nil {
		return err
	}
	ref := runMix(e, st, nil)
	if err := st.close(); err != nil {
		return err
	}
	e.checkMix(ref)

	tracer, err := e.chromeTracer()
	if err != nil {
		return err
	}
	st, _, err = openTimed("traced", budget, tracer)
	if err != nil {
		tracer.Close()
		return err
	}
	o := runMix(e, st, e.rec)
	closeErr := st.close()
	if err := errors.Join(closeErr, tracer.Close()); err != nil {
		return err
	}
	e.checkMix(o)
	m.set("trace.overhead_frac", 1-o.jobsPerS()/ref.jobsPerS())

	fresh := o.fresh()
	var submit, result, hit, wait, run []float64
	for _, j := range o.jobs {
		if j.hit {
			hit = append(hit, float64(j.latency.Microseconds()))
			continue
		}
		submit = append(submit, float64(j.submit.Nanoseconds())/1e3)
		result = append(result, float64(j.result.Nanoseconds())/1e3)
		wait = append(wait, j.queueWait.Seconds())
		run = append(run, j.runFor.Seconds())
	}
	m.set("service.submit_us_p50", median(submit))
	m.set("service.result_us_p50", median(result))
	m.set("service.hit_us_p50", median(hit))
	m.set("service.queue_wait_s_p50", median(wait))
	m.set("service.queue_wait_s_p90", quantile(wait, 0.9))
	m.set("service.run_s_p50", median(run))
	m.set("service.interactive_jobs", float64(len(o.jobs)))
	m.set("service.cache_hit_ratio", float64(len(o.jobs)-len(fresh))/float64(len(o.jobs)))
	sm := o.metrics
	m.set("service.checkpoints_saved", float64(sm.CheckpointsSaved))
	m.set("service.journal_events", float64(sm.JournalEvents))
	m.set("service.rejected", float64(sm.Rejected))
	m.set("service.retried", float64(sm.Retried))
	m.set("admission.high_water_frac", ratio(float64(sm.MemHighWaterBytes), float64(sm.MemBudgetBytes)))
	var camp, agg []float64
	for i := range o.campaigns {
		camp = append(camp, o.campaigns[i].Seconds())
	}
	for i := range o.aggregates {
		agg = append(agg, o.aggregates[i].Seconds()*1e3)
	}
	m.set("ensemble.campaign_s_p50", median(camp))
	m.set("ensemble.aggregate_ms_p50", median(agg))
	stageLayer(m, o.stages)

	sim, steps, err := directGate(e, o)
	if err != nil {
		return err
	}
	stepLayer(m, steps)
	return checkpointLayer(e, m, sim)
}

// directGate re-runs every distinct fresh spec of o on the serial engine
// with core.Run and compares its output digest with what the service
// returned. It returns a tangshan 40x40x20 simulator after its run (the
// checkpoint microbench's state) and the step latencies of the direct runs.
func directGate(e *env, o *mixOutcome) (*core.Simulator, []time.Duration, error) {
	var sim *core.Simulator
	var steps []time.Duration
	done := map[string]bool{}
	for _, j := range o.jobs {
		if j.hit || done[j.draw.label] {
			continue
		}
		done[j.draw.label] = true
		d := j.draw
		t := &stepTimer{}
		r := runSerial(e.rec, "direct/"+d.label, func() (core.Config, error) {
			return scenario.Build(d.spec.Scenario, d.spec.Overrides)
		}, t, nil)
		e.op(r.err == nil)
		if r.err != nil {
			return nil, nil, fmt.Errorf("service-mix direct run %s: %w", d.label, r.err)
		}
		got := coreDigest(r.res)
		e.chk.expect(got == o.digestByLabel[d.label], "service-mix: %s served digest %s, direct core.Run gave %s",
			d.label, o.digestByLabel[d.label], got)
		steps = append(steps, r.steps...)
		if sim == nil && d.spec.Scenario == "tangshan" && d.spec.MX == 0 {
			sim = r.res.Sim
		}
	}
	if sim == nil {
		return nil, nil, fmt.Errorf("service-mix: no serial tangshan job ran")
	}
	return sim, steps, nil
}

// checkpointLayer times checkpoint.SaveAux and LoadAux on sim's state, with
// its PGV map as the auxiliary payload (the shape of a service job's
// checkpoint), and reports medians of several round trips.
func checkpointLayer(e *env, m metricSet, sim *core.Simulator) error {
	path := filepath.Join(tmpDir, fmt.Sprintf("ckpt-%d.swq", os.Getpid()))
	defer os.Remove(path)
	aux := make([]byte, 0, 8*len(sim.PGV().PGV))
	for _, v := range sim.PGV().PGV {
		aux = binary.LittleEndian.AppendUint64(aux, math.Float64bits(v))
	}
	var save, load []float64
	var info checkpoint.Info
	for i := 0; i < 15; i++ {
		var err error
		t0 := time.Now()
		e.rec.do("checkpoint-micro", 0, "checkpoint.SaveAux", func(int64) {
			info, err = checkpoint.SaveAux(path, sim.StepCount(), sim.Time(), sim.WF, aux)
		})
		save = append(save, time.Since(t0).Seconds()*1e3)
		if err != nil {
			return err
		}
		t1 := time.Now()
		e.rec.do("checkpoint-micro", 0, "checkpoint.LoadAux", func(int64) {
			_, _, _, _, err = checkpoint.LoadAux(path)
		})
		load = append(load, time.Since(t1).Seconds()*1e3)
		if err != nil {
			return err
		}
	}
	m.set("checkpoint.save_ms", median(save))
	m.set("checkpoint.load_ms", median(load))
	m.set("checkpoint.bytes", float64(info.CompressedBytes))
	m.set("checkpoint.lz4_ratio", info.CompressionRatio)
	return nil
}
