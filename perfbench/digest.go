package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"swquake/internal/core"
	"swquake/internal/service"
)

// stationTrace is one station's three velocity components, the unit the
// output digest is taken over.
type stationTrace struct {
	name    string
	u, v, w []float32
}

// outputDigest is the SHA-256 of the station traces (in station-name order,
// so rank layout does not matter) followed by the surface PGV map.
func outputDigest(traces []stationTrace, pgv []float64) string {
	sort.Slice(traces, func(i, j int) bool { return traces[i].name < traces[j].name })
	h := sha256.New()
	var b [8]byte
	for _, t := range traces {
		h.Write([]byte(t.name))
		for _, comp := range [][]float32{t.u, t.v, t.w} {
			binary.LittleEndian.PutUint64(b[:], uint64(len(comp)))
			h.Write(b[:])
			for _, x := range comp {
				binary.LittleEndian.PutUint32(b[:4], math.Float32bits(x))
				h.Write(b[:4])
			}
		}
	}
	binary.LittleEndian.PutUint64(b[:], uint64(len(pgv)))
	h.Write(b[:])
	for _, x := range pgv {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// coreDigest digests a solver result.
func coreDigest(res *core.Result) string {
	var ts []stationTrace
	for _, t := range res.Recorder.Traces {
		ts = append(ts, stationTrace{t.Station.Name, t.U, t.V, t.W})
	}
	var pgv []float64
	if res.PGV != nil {
		pgv = res.PGV.PGV
	}
	return outputDigest(ts, pgv)
}

// serviceDigest digests a job result served by the job service.
func serviceDigest(res *service.Result) string {
	var ts []stationTrace
	for _, t := range res.Traces {
		ts = append(ts, stationTrace{t.Name, t.U, t.V, t.W})
	}
	var pgv []float64
	if res.PGV != nil {
		pgv = res.PGV.Values
	}
	return outputDigest(ts, pgv)
}

// goldenJSON pins output digests for the default seed, keyed by GOARCH and
// then by "<workload>/<output>". It catches a change that shifts every
// engine path equally, which the cross-path comparisons cannot see.
//
//go:embed golden.json
var goldenJSON []byte

// golden returns the pinned digests for this GOARCH (nil when none).
func golden() (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return all[runtime.GOARCH], nil
}

// checker counts the correctness checks of a run and keeps the first few
// failures for the report. It is safe for concurrent use.
type checker struct {
	mu               sync.Mutex
	checks, failures int64
	messages         []string
	// computed collects the digests of this run's outputs under the keys
	// golden.json uses; the run report lists them, so a default-seed run's
	// report is what golden.json is regenerated from.
	computed map[string]string
}

func newChecker() *checker { return &checker{computed: map[string]string{}} }

// expect counts one check and records its message when it fails.
func (c *checker) expect(ok bool, format string, args ...any) {
	c.mu.Lock()
	c.checks++
	if !ok {
		c.failures++
	}
	c.mu.Unlock()
	if !ok {
		c.note(format, args...)
	}
}

// note records a failure message that an operation count already carries.
func (c *checker) note(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.messages) < 20 {
		c.messages = append(c.messages, fmt.Sprintf(format, args...))
	}
}

// pin records a default-seed output digest and compares it with the pinned
// value, when golden.json has one for this GOARCH.
func (c *checker) pin(pinned map[string]string, key, digest string) {
	c.mu.Lock()
	c.computed[key] = digest
	c.mu.Unlock()
	if want, ok := pinned[key]; ok {
		c.expect(want == digest, "%s: digest %s, pinned %s", key, digest, want)
	}
}
