package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/plasticity"
)

// Intra-rank tile parallelism (the paper's level below the MPI
// decomposition: a block is computed by many workers, not one). The engine
// splits each stage Region into Config.Tiles sub-boxes and fans them across
// a bounded pool of worker goroutines, joining before the next stage so
// stage ordering — and per-stage wall-time attribution — is untouched.
// Every stage kernel is per-cell independent (see internal/fd/region.go),
// so the fan is bit-exact at any tile count.

// tilePool is a bounded pool of worker goroutines shared by all fanned
// stages of one simulator. It lives only while a run is stepping
// (Simulator.startTiling), so idle simulators hold no goroutines. All
// methods are nil-safe; a nil pool executes inline, which is how a bare
// Step() outside Run stays single-threaded.
type tilePool struct {
	workers int
	tasks   chan func()
}

func newTilePool(workers int) *tilePool {
	p := &tilePool{workers: workers, tasks: make(chan func())}
	for w := 0; w < workers; w++ {
		go func() {
			for t := range p.tasks {
				t()
			}
		}()
	}
	return p
}

// Close stops the workers. The pool must be idle (no fan in flight).
func (p *tilePool) Close() {
	if p != nil {
		close(p.tasks)
	}
}

// fan splits reg into one tile per worker and runs f on each concurrently,
// returning when all tiles are done. Tiles are disjoint and cover reg
// exactly, so f must be safe under the per-cell-independence contract of
// the region kernels.
func (p *tilePool) fan(reg grid.Region, f func(grid.Region)) {
	if reg.Empty() {
		return
	}
	if p == nil {
		f(reg)
		return
	}
	regs := reg.SplitN(p.workers)
	if len(regs) == 1 {
		f(regs[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(regs))
	for _, sub := range regs {
		sub := sub
		p.tasks <- func() {
			defer wg.Done()
			f(sub)
		}
	}
	wg.Wait()
}

// TiledBackend fans the velocity/stress kernels of an inner Backend across
// the simulator's tile pool. With no pool attached (outside Run, or
// Tiles <= 1) it is a transparent passthrough.
type TiledBackend struct {
	Inner Backend
	pool  *tilePool
}

func (b *TiledBackend) Velocity(wf *fd.Wavefield, med *fd.Medium, dtdx float32, reg grid.Region) {
	b.pool.fan(reg, func(r grid.Region) { b.Inner.Velocity(wf, med, dtdx, r) })
}

func (b *TiledBackend) Stress(wf *fd.Wavefield, med *fd.Medium, dtdx float32, reg grid.Region) {
	b.pool.fan(reg, func(r grid.Region) { b.Inner.Stress(wf, med, dtdx, r) })
}

// effectiveTiles resolves Config.Tiles for a run spread over `ranks`
// simulated MPI ranks: AutoTiles becomes GOMAXPROCS/ranks (at least 1),
// explicit counts pass through, and anything below 1 means single-threaded.
func effectiveTiles(cfgTiles, ranks int) int {
	t := cfgTiles
	if t == AutoTiles {
		t = runtime.GOMAXPROCS(0) / ranks
	}
	if t < 1 {
		t = 1
	}
	return t
}

// startTiling attaches a live worker pool to the simulator for the duration
// of a run; the returned stop function drains it. With tiles <= 1, or under
// the cgexec backend (which needs full-block calls), it is a no-op.
func (s *Simulator) startTiling() func() {
	if s.tiles <= 1 || s.cgx != nil {
		return func() {}
	}
	pool := newTilePool(s.tiles)
	s.pool = pool
	tb, _ := s.backend.(*TiledBackend)
	if tb != nil {
		tb.pool = pool
	}
	return func() {
		pool.Close()
		s.pool = nil
		if tb != nil {
			tb.pool = nil
		}
	}
}

// fanPlasticity runs the plasticity return map over reg's tiles and sums
// the yielded counts; integer addition is associative, so the sum is
// deterministic no matter how the tiles interleave.
func (s *Simulator) fanPlasticity(reg grid.Region) int64 {
	var n atomic.Int64
	s.pool.fan(reg, func(r grid.Region) {
		n.Add(int64(plasticity.ApplyRegion(s.WF, s.Plas, s.Cfg.Dt, r)))
	})
	return n.Load()
}

// maxAbsVelocity is the per-step divergence scan shared by serial RunCtx
// and every RunParallel rank: the largest |u|, |v|, |w| over the block
// interior, fanned over the tile pool and reduced from the per-tile bit
// patterns. A NaN anywhere in the block comes back as NaN.
func (s *Simulator) maxAbsVelocity() float64 {
	var m atomic.Uint32
	s.pool.fan(grid.Box(s.WF.D), func(r grid.Region) {
		b := max(s.WF.U.MaxAbsBits(r), s.WF.V.MaxAbsBits(r), s.WF.W.MaxAbsBits(r))
		for {
			old := m.Load()
			if b <= old || m.CompareAndSwap(old, b) {
				return
			}
		}
	})
	return float64(math.Float32frombits(m.Load()))
}
