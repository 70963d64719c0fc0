package exp

import (
	"runtime"
	"sync"

	"svmsim"
)

// Cell is one (configuration, workload) simulation unit — the atom of every
// table and figure. Experiments enumerate their cells up front and hand them
// to a Runner, then assemble rows from the memoized results in their own
// deterministic order.
type Cell struct {
	Cfg svmsim.Config
	W   svmsim.Workload
}

// Key is the cell's content-address: the string that keys the in-memory
// memo, the persistent disk cache (as a sha256 digest) and the daemon's
// result store. Two cells with equal keys are the same simulation.
func (c Cell) Key() string { return c.W.Name + "|" + cfgKey(c.Cfg) }

// Runner executes a batch of cells on a bounded worker pool, deduplicating
// cells that share a key (within the batch, and — through the suite's
// singleflight cache — across concurrently running batches).
type Runner struct {
	// Suite provides the memo cache the results land in and bounds the
	// worker pool (Suite.Parallelism).
	Suite *Suite
}

// Runner returns a runner bound to the suite's configured parallelism.
func (s *Suite) Runner() *Runner { return &Runner{Suite: s} }

// workers resolves the effective worker-pool size.
func (r *Runner) workers() int {
	n := r.Suite.Parallelism
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return n
}

// Run executes every cell, spreading unique cells over the worker pool and
// blocking until all are done. The result of each run lands in the suite's
// cache, so callers re-read them in any order they like afterwards. When
// several cells fail, the error reported is the earliest failing cell's in
// enumeration order, independent of completion order.
func (r *Runner) Run(cells []Cell) error {
	seen := make(map[string]bool, len(cells))
	unique := make([]Cell, 0, len(cells))
	for _, c := range cells {
		k := c.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		unique = append(unique, c)
	}

	n := r.workers()
	if n > len(unique) {
		n = len(unique)
	}
	if n <= 1 {
		// Same degraded-sweep semantics as the parallel path: every cell
		// runs (failures become cached error rows), and the error reported
		// is the first failing cell's in enumeration order.
		var first error
		for _, c := range unique {
			if _, err := r.Suite.run(c.Cfg, c.W); err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	errs := make([]error, len(unique))
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			for idx := range work {
				_, errs[idx] = r.Suite.run(unique[idx].Cfg, unique[idx].W)
			}
		}()
	}
	for idx := range unique {
		work <- idx
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// uniCell is the uniprocessor-baseline cell for a workload (uniTime's unit).
func (s *Suite) uniCell(w svmsim.Workload) Cell {
	return Cell{Cfg: svmsim.Uniprocessor(s.Base()), W: w}
}

// prefetch runs a batch of cells through the suite's runner, populating the
// cache so the caller's serial table assembly is pure cache hits.
func (s *Suite) prefetch(cells []Cell) error {
	return s.Runner().Run(cells)
}
