package main

import (
	"fmt"
	"runtime"
	"time"

	"svmsim"
	"svmsim/internal/engine"
	"svmsim/internal/exp"
	"svmsim/internal/memsys"
	"svmsim/internal/network"
)

// fftSimCycles is BenchmarkSingleRun's simulated execution time: the
// achievable-configuration FFT cell every performance change must keep
// bit-identical.
const fftSimCycles = 3_641_567

// probe times fn reps times under a span named name and returns the median
// of the per-operation costs fn reports.
func (b *bench) probe(name string, reps int, fn func() (float64, error)) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		sp := b.tr.open(name, 0, fmt.Sprintf("rep%d", i))
		v, err := fn()
		b.tr.close(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		xs = append(xs, v)
	}
	return median(xs), nil
}

// probeLayers runs the microprobes that time each simulator layer through
// its public functions, from outside.
func (b *bench) probeLayers() error {
	sc := b.opts.scale
	n := sc.probeOps
	type layerProbe struct {
		metric, unit string
		fn           func() (float64, error)
	}
	probes := []layerProbe{
		{"engine.handoff_ns", "ns", func() (float64, error) { return engineHandoff(n) }},
		{"engine.delay_ns", "ns", func() (float64, error) { return engineDelay(n) }},
		{"engine.spawn_ns", "ns", func() (float64, error) { return engineSpawn(n / 10) }},
		{"memsys.lookup_ns", "ns", func() (float64, error) { return memsysLookup(5 * n), nil }},
		{"memsys.invalidate_page_ns", "ns", func() (float64, error) { return memsysInvalidatePage(n / 10), nil }},
		{"network.post_deliver_ns", "ns", func() (float64, error) { return postDeliver(n/10, 4096) }},
		{"network.post_deliver_small_ns", "ns", func() (float64, error) { return postDeliver(n/10, 64) }},
		{"proto.fetch_us", "us", func() (float64, error) { return protoFetch(max(1, n/20000)) }},
		{"proto.lock_us", "us", func() (float64, error) { return protoLock(max(1, n/2000)) }},
	}
	for _, p := range probes {
		runtime.GC()
		v, err := b.probe(p.metric, sc.probeReps, p.fn)
		if err != nil {
			return err
		}
		b.set(p.metric, p.unit, v)
	}

	var ms, cycles []float64
	for i := 0; i < max(3, sc.probeReps); i++ {
		runtime.GC()
		sp := b.tr.open("svmsim.Run", 0, "FFT achievable")
		t0 := time.Now()
		res, err := svmsim.Run(svmsim.Achievable(), svmsim.FFT(svmsim.FFTSmall()))
		d := since(t0)
		b.tr.close(sp)
		if err != nil {
			b.fail("FFT achievable cell: %v", err)
			continue
		}
		b.check(res.Run.Cycles == fftSimCycles, "FFT achievable cell took %d simulated cycles, want %d", res.Run.Cycles, fftSimCycles)
		ms = append(ms, d*1e3)
		cycles = append(cycles, float64(res.Run.Cycles))
	}
	b.set("machine.fft_achievable_ms", "ms", median(ms))
	b.set("machine.fft_achievable_simcycles", "cycles", median(cycles))
	return nil
}

// engineHandoff is the host cost of one simulated context switch: two
// threads ping-pong with Park/Unpark.
func engineHandoff(n int) (float64, error) {
	s := engine.New()
	var ping, pong *engine.Thread
	pong = s.Spawn("pong", func(t *engine.Thread) {
		for i := 0; i < n; i++ {
			t.Park()
			ping.Unpark()
		}
	})
	ping = s.Spawn("ping", func(t *engine.Thread) {
		for i := 0; i < n; i++ {
			pong.Unpark()
			t.Park()
		}
	})
	t0 := time.Now()
	err := s.Run()
	return since(t0) * 1e9 / float64(2*n), err
}

// engineDelay is the host cost of one Delay: schedule, dispatch, resume.
func engineDelay(n int) (float64, error) {
	s := engine.New()
	s.Spawn("delayer", func(t *engine.Thread) {
		for i := 0; i < n; i++ {
			t.Delay(1)
		}
	})
	t0 := time.Now()
	err := s.Run()
	return since(t0) * 1e9 / float64(n), err
}

// engineSpawn is the host cost of creating, starting and retiring a thread
// (the protocol spawns one per interrupt).
func engineSpawn(n int) (float64, error) {
	s := engine.New()
	t0 := time.Now()
	s.Spawn("spawner", func(t *engine.Thread) {
		for i := 0; i < n; i++ {
			s.Spawn("child", func(c *engine.Thread) { c.Delay(1) })
			t.Delay(1)
		}
	})
	err := s.Run()
	return since(t0) * 1e9 / float64(n), err
}

// xorshift is the probes' fixed address stream, identical on every run so
// the layer numbers compare across runs and commits.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// memsysLookup is the host cost of one access through a node's L1/L2
// hierarchy: Lookup at each level, Insert on a miss, over a working set four
// times the L2.
func memsysLookup(n int) float64 {
	prm := svmsim.Achievable().Node
	l1 := memsys.NewCache(prm.L1Bytes, prm.L1Assoc, prm.LineBytes)
	l2 := memsys.NewCache(prm.L2Bytes, prm.L2Assoc, prm.LineBytes)
	mask := uint64(4*prm.L2Bytes - 1)
	addrs := make([]uint64, 1<<16)
	x := xorshift(0x9e3779b97f4a7c15)
	for i := range addrs {
		addrs[i] = x.next() & mask &^ 7
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a := addrs[i&(len(addrs)-1)]
		if !l1.Lookup(a) {
			if !l2.Lookup(a) {
				l2.Insert(a)
			}
			l1.Insert(a)
		}
	}
	return since(t0) * 1e9 / float64(n)
}

// memsysInvalidatePage is the host cost of invalidating one page's lines in
// a full L2 (what the protocol does on every write notice).
func memsysInvalidatePage(n int) float64 {
	prm := svmsim.Achievable().Node
	page := svmsim.Achievable().Proto.PageBytes
	l2 := memsys.NewCache(prm.L2Bytes, prm.L2Assoc, prm.LineBytes)
	pages := prm.L2Bytes / page
	var spent time.Duration
	done := 0
	for done < n {
		for a := 0; a < prm.L2Bytes; a += prm.LineBytes {
			l2.Insert(uint64(a))
		}
		t0 := time.Now()
		for p := 0; p < pages && done < n; p++ {
			l2.InvalidateRange(uint64(p*page), page)
			done++
		}
		spent += time.Since(t0)
	}
	return float64(spent.Nanoseconds()) / float64(n)
}

// postDeliver is the host cost of moving one message between two NIs, from
// Post to the receiver's deliver callback, under the achievable network
// parameters.
func postDeliver(n, size int) (float64, error) {
	s := engine.New()
	prm := svmsim.Achievable().Net
	node := svmsim.Achievable().Node
	delivered := 0
	mk := func(id int) *network.NI {
		io := engine.NewResource(s, fmt.Sprintf("node%d-iobus", id))
		bus := memsys.NewBus(s, fmt.Sprintf("node%d-bus", id), node.BusWidthBytes, node.BusRatio, node.BusArbCycles, node.BusAddrCycles, node.DRAMCycles)
		return network.NewNI(s, id, &prm, io, bus, func(*engine.Thread, *network.Message) { delivered++ })
	}
	a, c := mk(0), mk(1)
	peers := []*network.NI{a, c}
	a.SetPeers(peers)
	c.SetPeers(peers)
	s.Spawn("sender", func(t *engine.Thread) {
		for i := 0; i < n; i++ {
			a.Post(t, &network.Message{Kind: network.PageReply, Src: 0, Dst: 1, Size: size})
		}
	})
	t0 := time.Now()
	err := s.Run()
	d := since(t0)
	if err == nil && delivered != n {
		err = fmt.Errorf("%d of %d messages delivered", delivered, n)
	}
	return d * 1e9 / float64(n), err
}

// protoFetch runs a probe application whose every processor reads pages
// written by a processor on another node, one round per barrier, and
// returns host time per remote page fetch the run counted.
func protoFetch(rounds int) (float64, error) {
	const pagesPerProc = 16
	type state struct{ base uint64 }
	app := svmsim.App{
		Name: "probe-fetch",
		Setup: func(w *svmsim.World) any {
			size := uint64(w.Procs() * pagesPerProc * w.PageBytes())
			return &state{base: w.AllocPages(size)}
		},
		Body: func(c *svmsim.Proc, st any) {
			s := st.(*state)
			page := uint64(c.W.PageBytes())
			mine := s.base + uint64(c.ID*pagesPerProc)*page
			ppn := c.N / c.W.Nodes()
			peer := s.base + uint64(((c.ID+ppn)%c.N)*pagesPerProc)*page
			for r := 0; r < 4*rounds; r++ {
				for p := uint64(0); p < pagesPerProc; p++ {
					c.WriteU64(mine+p*page, uint64(r))
				}
				c.Barrier()
				for p := uint64(0); p < pagesPerProc; p++ {
					if v := c.ReadU64(peer + p*page); v != uint64(r) {
						panic(fmt.Sprintf("probe-fetch: read %d, want %d", v, r))
					}
				}
				c.Barrier()
			}
		},
		Check: func(*svmsim.World, any) error { return nil },
	}
	return perEvent(app, func(p *svmsim.RunStats) uint64 {
		var n uint64
		for i := range p.Procs {
			n += p.Procs[i].PageFetches
		}
		return n
	})
}

// protoLock runs a probe application whose processors increment shared
// counters under a few locks, and returns host time per remote lock
// acquire the run counted.
func protoLock(rounds int) (float64, error) {
	const locks = 4
	type state struct {
		counters uint64
		ids      []int
	}
	app := svmsim.App{
		Name: "probe-lock",
		Setup: func(w *svmsim.World) any {
			return &state{counters: w.AllocPages(uint64(locks * w.PageBytes())), ids: w.NewLocks(locks)}
		},
		Body: func(c *svmsim.Proc, st any) {
			s := st.(*state)
			page := uint64(c.W.PageBytes())
			for r := 0; r < rounds; r++ {
				l := (c.ID + r) % locks
				c.Lock(s.ids[l])
				a := s.counters + uint64(l)*page
				c.WriteU64(a, c.ReadU64(a)+1)
				c.Unlock(s.ids[l])
				c.Compute(200)
			}
			c.Barrier()
		},
		Check: func(w *svmsim.World, st any) error {
			s := st.(*state)
			var total uint64
			for l := 0; l < locks; l++ {
				a := s.counters + uint64(l)*uint64(w.PageBytes())
				total += w.Sys.Nodes[w.Sys.Home(w.Sys.PageOf(a))].ReadWord(a)
			}
			if want := uint64(w.Procs() * rounds); total != want {
				return fmt.Errorf("probe-lock: counters sum to %d, want %d", total, want)
			}
			return nil
		},
	}
	return perEvent(app, func(p *svmsim.RunStats) uint64 {
		var n uint64
		for i := range p.Procs {
			n += p.Procs[i].RemoteLocks
		}
		return n
	})
}

// perEvent runs app on the achievable configuration and divides the host
// time by the count the run itself reports.
func perEvent(app svmsim.App, count func(*svmsim.RunStats) uint64) (float64, error) {
	t0 := time.Now()
	res, err := svmsim.Run(svmsim.Achievable(), app)
	d := since(t0)
	if err != nil {
		return 0, err
	}
	n := count(res.Run)
	if n == 0 {
		return 0, fmt.Errorf("%s counted no events", app.Name)
	}
	return d * 1e6 / float64(n), nil
}

// reportNodeSetup times node set-up — node memory images, caches, NIs and
// protocol state — on each distinct cluster configuration among cells, and
// reports the cell-weighted mean time and allocation. It goes through
// svmsim.Run itself, so it covers exactly what a cell builds: the probe
// application's Setup, which Run calls right after building the system,
// stops the clock, and its Body returns at once.
func (b *bench) reportNodeSetup(cells []exp.Cell) error {
	type cost struct{ ms, mb float64 }
	costs := map[string]cost{}
	var msSum, mbSum float64
	for _, c := range cells {
		cfg := c.Cfg
		key := fmt.Sprintf("%d/%d/%d/%d/%d", cfg.Procs, cfg.ProcsPerNode, cfg.HeapBytes, cfg.Proto.PageBytes, cfg.NIsPerNode)
		k, ok := costs[key]
		if !ok {
			var ms, mb []float64
			for i := 0; i < 3; i++ {
				sp := b.tr.open("node.setup", 0, key)
				d, alloc, err := nodeSetup(cfg)
				b.tr.close(sp)
				if err != nil {
					return fmt.Errorf("node setup %s: %w", key, err)
				}
				ms = append(ms, d*1e3)
				mb = append(mb, float64(alloc)/(1<<20))
			}
			k = cost{median(ms), median(mb)}
			costs[key] = k
		}
		msSum += k.ms
		mbSum += k.mb
	}
	if len(cells) == 0 {
		return fmt.Errorf("node setup: no cells")
	}
	b.set("node.setup_ms", "ms", msSum/float64(len(cells)))
	b.set("node.setup_mb", "MB", mbSum/float64(len(cells)))
	b.note("node setup: %d distinct cluster configurations", len(costs))
	return nil
}

// nodeSetup runs an empty application on cfg and returns the seconds and
// heap bytes from the svmsim.Run call until the application's Setup.
func nodeSetup(cfg svmsim.Config) (float64, uint64, error) {
	var (
		d     float64
		alloc uint64
	)
	runtime.GC()
	before := snapRuntime()
	t0 := time.Now()
	_, err := svmsim.Run(cfg, svmsim.App{
		Name: "probe-setup",
		Setup: func(*svmsim.World) any {
			d = since(t0)
			alloc = snapRuntime().allocBytes - before.allocBytes
			return nil
		},
		Body: func(*svmsim.Proc, any) {},
	})
	return d, alloc, err
}
