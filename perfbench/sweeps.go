package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"strings"
	"sync"
	"time"

	"svmsim"
	"svmsim/internal/exp"
)

// Golden tables. The HLRC ones are the Figure 10 and Figure 14 blocks of
// EXPERIMENTS.md byte for byte (the self-test holds them to it); the AURC
// one was recorded from this benchmark's own rendering of the same sweep.
var (
	//go:embed golden/fig10_hlrc.txt
	goldenFig10HLRC string
	//go:embed golden/fig10_aurc.txt
	goldenFig10AURC string
	//go:embed golden/fig14_hlrc.txt
	goldenFig14HLRC string
)

// sweepDef is one sweep workload: the cells it simulates and the tables it
// renders from them.
type sweepDef struct {
	name string
	// specs lists one application's cells, uniprocessor baseline first.
	specs func(sc scale, app string) []exp.CellSpec
	// tables renders the sweep's tables once every cell is in the suite's
	// memo, paired with the golden text each must reproduce.
	tables func(s *exp.Suite, sc scale, apps []string) ([]renderedTable, error)
}

type renderedTable struct {
	tbl    *exp.Table
	golden string
}

var interruptSweep = sweepDef{
	name: "sweep-interrupt",
	specs: func(sc scale, app string) []exp.CellSpec {
		specs := []exp.CellSpec{{Workload: app, Uniprocessor: true}}
		for _, mode := range []string{"", "aurc"} {
			for _, v := range sc.intrPoints {
				v := v
				specs = append(specs, exp.CellSpec{Workload: app, Mode: mode, IntrHalfCostCycles: &v})
			}
		}
		return specs
	},
	tables: func(s *exp.Suite, sc scale, apps []string) ([]renderedTable, error) {
		labels := make([]string, len(sc.intrPoints))
		hlrc := make([]func(string) exp.CellSpec, len(sc.intrPoints))
		aurc := make([]func(string) exp.CellSpec, len(sc.intrPoints))
		for i, v := range sc.intrPoints {
			v := v
			labels[i] = cyclesLabel(v)
			hlrc[i] = func(app string) exp.CellSpec { return exp.CellSpec{Workload: app, IntrHalfCostCycles: &v} }
			aurc[i] = func(app string) exp.CellSpec {
				return exp.CellSpec{Workload: app, Mode: "aurc", IntrHalfCostCycles: &v}
			}
		}
		var h *exp.Table
		var err error
		if sc.sweepApps == nil {
			h, err = s.Figure10()
		} else {
			h, err = renderSpeedups(s, "Figure 10", "Speedup vs interrupt cost (cycles per half)", labels, apps, hlrc)
		}
		if err != nil {
			return nil, err
		}
		a, err := renderSpeedups(s, "Figure 10 (AURC)", "Speedup vs interrupt cost (cycles per half), AURC", labels, apps, aurc)
		if err != nil {
			return nil, err
		}
		return []renderedTable{{h, goldenFig10HLRC}, {a, goldenFig10AURC}}, nil
	},
}

var clusteringSweep = sweepDef{
	name: "sweep-clustering",
	specs: func(sc scale, app string) []exp.CellSpec {
		specs := []exp.CellSpec{{Workload: app, Uniprocessor: true}}
		for _, ppn := range sc.ppnPoints {
			specs = append(specs, exp.CellSpec{Workload: app, PPN: ppn})
		}
		return specs
	},
	tables: func(s *exp.Suite, sc scale, apps []string) ([]renderedTable, error) {
		labels := make([]string, len(sc.ppnPoints))
		mk := make([]func(string) exp.CellSpec, len(sc.ppnPoints))
		for i, ppn := range sc.ppnPoints {
			ppn := ppn
			labels[i] = fmt.Sprint(ppn)
			mk[i] = func(app string) exp.CellSpec { return exp.CellSpec{Workload: app, PPN: ppn} }
		}
		var t *exp.Table
		var err error
		if sc.sweepApps == nil {
			t, err = s.Figure14()
		} else {
			t, err = renderSpeedups(s, "Figure 14", "Speedup vs degree of clustering (procs/node)", labels, apps, mk)
		}
		if err != nil {
			return nil, err
		}
		return []renderedTable{{t, goldenFig14HLRC}}, nil
	},
}

// renderSpeedups builds a speedup table the way exp's figures do: each value
// is the uniprocessor baseline's cycles over the cell's cycles, both served
// from the suite's memo.
func renderSpeedups(s *exp.Suite, id, title string, labels, apps []string, cells []func(string) exp.CellSpec) (*exp.Table, error) {
	t := &exp.Table{ID: id, Title: title, Cols: labels}
	for _, app := range apps {
		uni, err := runSpec(s, exp.CellSpec{Workload: app, Uniprocessor: true})
		if err != nil {
			return nil, err
		}
		row := exp.Row{Name: app}
		for _, mk := range cells {
			run, err := runSpec(s, mk(app))
			if err != nil {
				return nil, err
			}
			row.Values = append(row.Values, float64(uni.Cycles)/float64(run.Cycles))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runSpec(s *exp.Suite, spec exp.CellSpec) (*svmsim.RunStats, error) {
	c, err := s.ResolveCell(spec)
	if err != nil {
		return nil, err
	}
	return s.RunCell(c)
}

// cyclesLabel matches exp's column labels (1000 → "1k").
func cyclesLabel(v uint64) string {
	if v >= 1000 && v%1000 == 0 {
		return fmt.Sprintf("%dk", v/1000)
	}
	return fmt.Sprint(v)
}

// sweepApps returns the sweep's applications in presentation order, the
// order exp enumerates and issues cells in. The sweeps' inputs are the
// paper's fixed parameter grids: the seed does not change them.
func sweepApps(sc scale) []string {
	if sc.sweepApps != nil {
		return sc.sweepApps
	}
	var apps []string
	for _, w := range svmsim.Workloads() {
		apps = append(apps, w.Name)
	}
	return apps
}

// cellLog collects the suite's fresh-simulation events: each is one
// svmsim.Run call, timed by the suite.
type cellLog struct {
	mu      sync.Mutex
	seconds []float64
	errs    []string
}

func (l *cellLog) observe(tr *tracer, parent int) func(exp.CellEvent) {
	return func(ev exp.CellEvent) {
		if ev.Source != exp.SourceSim {
			return
		}
		end := time.Now()
		tr.record("svmsim.Run", parent, ev.Key, end.Add(-time.Duration(ev.Seconds*float64(time.Second))), end)
		l.mu.Lock()
		defer l.mu.Unlock()
		l.seconds = append(l.seconds, ev.Seconds)
		if ev.Err != nil {
			l.errs = append(l.errs, ev.Err.Error())
		}
	}
}

// sweepPass is one cold pass over a sweep: a fresh suite, every cell
// simulated, every table rendered and checked.
type sweepPass struct {
	setupS float64
	sweepS float64
	log    *cellLog
	suite  *exp.Suite
	cells  []exp.Cell
	before runtimeSnap
	after  runtimeSnap
}

// setupSweep builds a fresh suite and resolves every cell of the workload:
// everything up to the moment the first cell can be issued.
func (b *bench) setupSweep(def sweepDef, apps []string, log *cellLog, parent int) (*exp.Suite, []exp.Cell, error) {
	s := exp.NewSuite(exp.Small)
	s.Parallelism = b.nproc
	s.Observe = log.observe(b.tr, parent)
	var cells []exp.Cell
	for _, app := range apps {
		for _, spec := range def.specs(b.opts.scale, app) {
			c, err := s.ResolveCell(spec)
			if err != nil {
				return nil, nil, err
			}
			cells = append(cells, c)
		}
	}
	return s, cells, nil
}

func (b *bench) sweepOnce(def sweepDef, apps []string, ref string) (*sweepPass, error) {
	root := b.tr.open(def.name+".pass", 0, ref)
	defer b.tr.close(root)
	p := &sweepPass{log: &cellLog{}}
	t0 := time.Now()
	sp := b.tr.open("exp.setup", root, ref)
	s, cells, err := b.setupSweep(def, apps, p.log, root)
	b.tr.close(sp)
	if err != nil {
		return nil, err
	}
	p.setupS = since(t0)
	p.suite, p.cells = s, cells

	p.before = snapRuntime()
	t1 := time.Now()
	sp = b.tr.open("exp.Runner.Run", root, ref)
	runErr := s.Runner().Run(cells)
	b.tr.close(sp)
	b.check(runErr == nil, "%s: sweep: %v", def.name, runErr)
	sp = b.tr.open("exp.render", root, ref)
	tables, err := def.tables(s, b.opts.scale, apps)
	b.tr.close(sp)
	if err != nil {
		b.fail("%s: rendering tables: %v", def.name, err)
	} else {
		for _, rt := range tables {
			b.checkTable(rt, b.opts.scale.sweepApps == nil)
		}
	}
	p.sweepS = since(t1)
	p.after = snapRuntime()
	b.rep.Attempted += len(p.log.seconds) - len(p.log.errs)
	for _, e := range p.log.errs {
		b.fail("%s: cell: %s", def.name, e)
	}
	return p, nil
}

// checkTable compares a rendered table with its golden text: byte for byte
// for the full sweep, value by value for a reduced one.
func (b *bench) checkTable(rt renderedTable, full bool) {
	got := rt.tbl.String()
	if full {
		b.check(got == rt.golden, "%s differs from the recorded table:\n%s\nwant:\n%s", rt.tbl.ID, got, rt.golden)
		return
	}
	want := parseTable(rt.golden)
	for key, v := range parseTable(got) {
		b.check(want[key] == v, "%s %s = %s, recorded %q", rt.tbl.ID, key, v, want[key])
	}
}

// parseTable maps "row/column" to the printed value of a rendered table.
func parseTable(text string) map[string]string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	out := map[string]string{}
	if len(lines) < 2 {
		return out
	}
	cols := strings.Fields(lines[1])[1:]
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		for i, v := range f[1:] {
			if i < len(cols) {
				out[f[0]+"/"+cols[i]] = v
			}
		}
	}
	return out
}

// sweepPass is one child's share of a sweep workload: repeated set-ups
// for a steady set-up time, then one cold pass. A traced pass also reports
// the per-layer metrics it can read from its own suite.
func (b *bench) sweepPass(def sweepDef) error {
	sc := b.opts.scale
	apps := sweepApps(sc)
	for i := 0; i < sc.setupReps; i++ {
		t0 := time.Now()
		if _, _, err := b.setupSweep(def, apps, &cellLog{}, 0); err != nil {
			return err
		}
		b.rep.Setups = append(b.rep.Setups, since(t0))
	}
	p, err := b.sweepOnce(def, apps, "pass")
	if err != nil {
		return err
	}
	b.rep.Setups = append(b.rep.Setups, p.setupS)
	b.rep.Wall = p.sweepS
	b.rep.Answered = len(p.log.seconds)
	for _, s := range p.log.seconds {
		b.rep.CellMs = append(b.rep.CellMs, s*1e3)
	}
	if b.tr == nil {
		return nil
	}

	b.reportRuntime(p.before, p.after, len(p.log.seconds))
	b.set("exp.parallel_speedup", "ratio", sum(p.log.seconds)/p.sweepS)
	// Everything below reads the memo the pass filled: no simulation.
	seen := map[string]bool{}
	var keys []string
	var docs [][]byte
	for _, c := range p.cells {
		if seen[c.Key()] {
			continue
		}
		seen[c.Key()] = true
		run, err := p.suite.RunCell(c)
		if err != nil {
			continue // already counted as a failed cell
		}
		doc, err := exp.EncodeCellResult(exp.NewCellResult(c.Key(), run, nil))
		if err != nil {
			b.fail("encoding %s: %v", c.Key(), err)
			continue
		}
		keys = append(keys, c.Key())
		docs = append(docs, doc)
	}
	b.reportSimCounts(b.reportCodec(keys, docs))
	return nil
}

// sweepProbes times node setup on the sweep's cluster configurations, runs
// the layer probes and, since the sweeps bypass every serving layer, plays
// a short serving round so the server and fleet metrics have values too.
func (b *bench) sweepProbes(def sweepDef) error {
	_, cells, err := b.setupSweep(def, sweepApps(b.opts.scale), &cellLog{}, 0)
	if err != nil {
		return err
	}
	if err := b.reportNodeSetup(cells); err != nil {
		return err
	}
	if err := b.probeLayers(); err != nil {
		return err
	}
	return b.probeServing()
}

// reportSimCounts sums the simulated-machine counters over fresh cells.
// They move no host metric: any change means the model changed.
func (b *bench) reportSimCounts(runs []*svmsim.RunStats) {
	var cycles, fetches, rlocks, msgs, sent, intr, misses uint64
	for _, r := range runs {
		cycles += r.Cycles
		for i := range r.Procs {
			p := &r.Procs[i]
			fetches += p.PageFetches
			rlocks += p.RemoteLocks
			msgs += p.MsgsSent
			sent += p.BytesSent
			intr += p.Interrupts
			misses += p.Misses
		}
	}
	b.set("sim.cycles", "cycles", float64(cycles))
	b.set("sim.page_fetches", "count", float64(fetches))
	b.set("sim.remote_locks", "count", float64(rlocks))
	b.set("sim.msgs", "count", float64(msgs))
	b.set("sim.bytes", "bytes", float64(sent))
	b.set("sim.interrupts", "count", float64(intr))
	b.set("sim.misses", "count", float64(misses))
}

// reportCodec times exp's wire codec on each canonical result document:
// DecodeCellResult, then EncodeCellResult, which must reproduce the
// document byte for byte. It returns the decoded runs.
func (b *bench) reportCodec(keys []string, docs [][]byte) []*svmsim.RunStats {
	var us []float64
	var runs []*svmsim.RunStats
	for i, doc := range docs {
		t0 := time.Now()
		res, err := exp.DecodeCellResult(doc)
		var again []byte
		if err == nil {
			again, err = exp.EncodeCellResult(res)
		}
		d := since(t0)
		b.tr.record("exp.codec", 0, keys[i], t0, t0.Add(time.Duration(d*float64(time.Second))))
		b.check(err == nil && bytes.Equal(again, doc), "codec round trip of %s: %v", keys[i], err)
		us = append(us, d*1e6)
		if res.Run != nil {
			runs = append(runs, res.Run)
		}
	}
	b.set("exp.codec_us", "us", median(us))
	return runs
}
