package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stamp identifies the build, host and inputs of one result.
type stamp struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Trace       bool   `json:"trace"`
	Seconds     int    `json:"seconds"`
	VCSRevision string `json:"vcs.revision"`
	VCSModified string `json:"vcs.modified"`
	// SourceSHA256 hashes the module sources the binary was built from, so
	// a result stays attributable when the tree carries no VCS metadata.
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	GOARCH       string `json:"goarch"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"num_cpu"`
	CPUModel     string `json:"cpu_model"`
	L2Bytes      int64  `json:"l2_bytes"`
	L3Bytes      int64  `json:"l3_bytes"`
	// StreamArrayBytes is the size of each of the three triad arrays (traced
	// pass only; 0 otherwise).
	StreamArrayBytes int64 `json:"stream_array_bytes"`
}

func newStamp(workload string, seed int64, trace bool, secs int, srcRoot string) stamp {
	st := stamp{
		Workload: workload, Seed: seed, Trace: trace, Seconds: secs,
		VCSRevision: "unknown", VCSModified: "unknown",
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(),
		L2Bytes:  cacheBytes(2), L3Bytes: cacheBytes(3),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.VCSRevision = s.Value
			case "vcs.modified":
				st.VCSModified = s.Value
			}
		}
	}
	st.SourceSHA256 = sourceDigest(srcRoot)
	return st
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheBytes reads the size of cpu0's unified cache at the given level from
// sysfs, or returns 0 when it is not exposed.
func cacheBytes(level int) int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, _ := os.ReadFile(filepath.Join(d, "level"))
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			return 0
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0
		}
		return n * mult
	}
	return 0
}

// sourceDigest hashes every .go file and go.mod under root (skipping hidden
// directories such as the build directory) in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// heapSampler tracks the highest in-use heap (live and not yet swept
// objects) seen at the sample points the workload chooses.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

// sample reads the heap now; not safe for concurrent use.
func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if h.s[0].Value.Kind() == metrics.KindUint64 {
		if v := h.s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
}

func (h *heapSampler) peakMiB() float64 { return float64(h.peak) / (1 << 20) }

// streamTriad runs the STREAM triad a = b + s*c single-threaded over three
// float64 arrays of arrayBytes each and returns the best of reps passes in
// GB/s, counting 24 bytes per element as STREAM does.
func streamTriad(arrayBytes int64, reps int) float64 {
	n := int(arrayBytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	if a[n-1] != 7 {
		panic("stream triad produced a wrong value")
	}
	return float64(24*int64(n)) / best.Seconds() / 1e9
}
