// Command perfbench is the repository's layered benchmark. It runs one named
// workload generated from a seed, checks that the program's outputs are
// correct, and prints the end-to-end metrics (untraced pass) or the
// per-layer metrics (traced pass) as the last line of standard output:
//
//	bash perfbench/run.sh --workload nl-tiled --seed 1 --seconds 25 --trace 0
//
// Workloads, metric definitions and the predicted pairings between layer and
// end-to-end metrics are described in WORKLOADS.md. Every layer is measured
// from outside, by timing calls into its public functions and reading the
// counters the program already exposes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"swquake/internal/telemetry"
)

// defaultSeed is the seed whose outputs golden.json pins.
const defaultSeed = 1

// Run artefacts and service data live under the build directory of the
// checkout the benchmark runs from.
const (
	outDir = ".bench_build/out"
	tmpDir = ".bench_build/tmp"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced pass, reported for every
// workload (WORKLOADS.md defines each per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mcups", "Mcell/s"},
	{"heap_peak_mib", "MiB"},
	{"jobs_per_s", "1/s"},
	{"job_latency_p50_s", "s"},
	{"job_latency_p90_s", "s"},
	{"campaign_members_per_s", "1/s"},
}

// perLayer are the metrics of the traced pass; a layer a workload bypasses
// reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"host.triad_gbps", "GB/s"},
		{"scenario.build_s", "s"},
		{"core.new_s", "s"},
		{"fd.velocity_ns_per_pt", "ns/pt"},
		{"fd.stress_ns_per_pt", "ns/pt"},
		{"fd.velocity_gbps", "GB/s"},
		{"fd.stress_gbps", "GB/s"},
		{"fd.velocity_ceiling_frac", "ratio"},
		{"fd.stress_ceiling_frac", "ratio"},
		{"fd.subnormal_frac_peak", "ratio"},
		{"core.step_ms_p50", "ms"},
		{"core.step_ms_p90", "ms"},
	}
	for st := telemetry.Stage(0); st.String() != "unknown"; st++ {
		defs = append(defs, metricDef{"core.stage." + st.String() + "_s", "s"})
	}
	defs = append(defs, []metricDef{
		{"core.tile_scaling_eff", "ratio"},
		{"plasticity.ns_per_pt", "ns/pt"},
		{"plasticity.yield_ratio", "ratio"},
		{"plasticity.point_steps", "count"},
		{"mpi.halo_bytes_per_step", "bytes"},
		{"mpi.msgs_per_step", "count"},
		{"mpi.halo_share", "ratio"},
		{"mpi.crc_gbps", "GB/s"},
		{"checkpoint.save_ms", "ms"},
		{"checkpoint.load_ms", "ms"},
		{"checkpoint.bytes", "bytes"},
		{"checkpoint.lz4_ratio", "ratio"},
		{"service.checkpoints_saved", "count"},
		{"service.submit_us_p50", "us"},
		{"service.queue_wait_s_p50", "s"},
		{"service.queue_wait_s_p90", "s"},
		{"service.run_s_p50", "s"},
		{"service.result_us_p50", "us"},
		{"service.hit_us_p50", "us"},
		{"service.cache_hit_ratio", "ratio"},
		{"service.interactive_jobs", "count"},
		{"service.journal_events", "count"},
		{"service.rejected", "count"},
		{"service.retried", "count"},
		{"admission.high_water_frac", "ratio"},
		{"ensemble.campaign_s_p50", "s"},
		{"ensemble.aggregate_ms_p50", "ms"},
		{"trace.overhead_frac", "ratio"},
	}...)
	for _, l := range spanLayers {
		defs = append(defs, metricDef{"span." + l + ".self_s", "s"})
	}
	return defs
}()

var units = func() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

// metricSet collects one pass's metrics by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("unknown metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

// env is one benchmark invocation: its inputs and the counters every
// workload reports into.
type env struct {
	workload string
	seed     int64
	secs     time.Duration
	trace    bool
	st       *stamp
	// pinned holds golden digests for this GOARCH, for the default seed only.
	pinned map[string]string
	chk    *checker
	heap   *heapSampler
	rec    *recorder // nil in the untraced pass
	// ops counts attempted operations (runs, jobs, campaigns) and opsFailed
	// those that failed.
	ops, opsFailed atomic.Int64
}

// op counts one attempted operation.
func (e *env) op(ok bool) {
	e.ops.Add(1)
	if !ok {
		e.opsFailed.Add(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]struct{ untraced, traced func(*env, metricSet) error }{
	"nl-tiled":    {nlTiled, nlTiledTraced},
	"halo-2x2":    {halo2x2, halo2x2Traced},
	"service-mix": {serviceMix, serviceMixTraced},
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload: nl-tiled, halo-2x2 or service-mix")
		seed     = flag.Int64("seed", defaultSeed, "input seed")
		secs     = flag.Int("seconds", 25, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	for _, d := range []string{outDir, tmpDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	st := newStamp(*workload, *seed, *trace == 1, *secs, ".")
	e := &env{
		workload: *workload, seed: *seed, secs: time.Duration(*secs) * time.Second,
		trace: *trace == 1, st: &st, chk: newChecker(), heap: newHeapSampler(),
	}
	if e.seed == defaultSeed {
		p, err := golden()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		e.pinned = p
	}
	m := metricSet{}
	defs := endToEnd
	var runErr error
	if e.trace {
		e.rec = newRecorder()
		defs = perLayer
		runErr = w.traced(e, m)
		for l, s := range e.rec.selfSeconds() {
			m.set("span."+l+".self_s", s)
		}
		if err := e.rec.write(e.outPath("spans.jsonl")); err != nil && runErr == nil {
			runErr = err
		}
	} else {
		runErr = w.untraced(e, m)
	}
	if runErr != nil {
		e.op(false)
		e.chk.note("%v", runErr)
	}

	res := result{
		Attempted: e.ops.Load() + e.chk.checks,
		Failed:    e.opsFailed.Load() + e.chk.failures,
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			v = metric{Value: 0, Unit: d.unit}
		}
		res.Metrics[d.name] = v
	}
	report := map[string]any{
		"stamp": st, "fail_ratio": ratio(float64(res.Failed), float64(res.Attempted)),
		"attempted": res.Attempted, "failed": res.Failed, "failures": e.chk.messages,
		"digests": e.chk.computed, "metrics": res.Metrics,
	}
	if b, err := json.MarshalIndent(report, "", "  "); err == nil {
		os.WriteFile(e.outPath("report.json"), b, 0o644)
	}
	for _, msg := range e.chk.messages {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
	}
	stampLine, _ := json.Marshal(map[string]any{"stamp": st,
		"fail_ratio": report["fail_ratio"], "attempted": res.Attempted, "failed": res.Failed})
	fmt.Println(string(stampLine))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// outPath names a run artefact in the output directory.
func (e *env) outPath(suffix string) string {
	trace := 0
	if e.trace {
		trace = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d-%s", e.workload, e.seed, trace, suffix))
}

// chromeTracer opens the program's own Chrome trace-event tracer for the
// traced pass.
func (e *env) chromeTracer() (*telemetry.Tracer, error) {
	return telemetry.OpenTrace(e.outPath("chrome-trace.json"))
}
