package exp

import (
	"fmt"

	"svmsim"
	"svmsim/internal/stats"
)

// Figure1 reproduces the ideal vs achievable speedup comparison that
// motivates the study.
func (s *Suite) Figure1() (*Table, error) {
	t := &Table{ID: "Figure 1", Title: "Ideal and achievable speedups (16 procs, 4/node, achievable parameters)",
		Cols: []string{"Ideal", "Achievable"}}
	var cells []Cell
	for _, w := range apps() {
		cells = append(cells, s.uniCell(w), Cell{Cfg: s.Base(), W: w})
	}
	if err := s.prefetch(cells); err != nil {
		return nil, err
	}
	for _, w := range apps() {
		uni, err := s.uniTime(w)
		if err != nil {
			return nil, err
		}
		run, err := s.run(s.Base(), w)
		if err != nil {
			return nil, err
		}
		sp := stats.ComputeSpeedups(uni, run)
		t.Rows = append(t.Rows, Row{Name: w.Name, Values: []float64{sp.Ideal, sp.Achievable}})
	}
	return t, nil
}

// Table2 reproduces the protocol-event characterization: page faults,
// fetches, local and remote lock acquires, and barriers per processor per
// million compute cycles, for 1, 4 and 8 processors per node.
func (s *Suite) Table2() (*Table, error) {
	t := &Table{ID: "Table 2", Title: "Protocol events per processor per 1M compute cycles (ppn=1/4/8)",
		Cols: []string{
			"flt(1)", "flt(4)", "flt(8)",
			"fetch(1)", "fetch(4)", "fetch(8)",
			"lockL(1)", "lockL(4)", "lockL(8)",
			"lockR(1)", "lockR(4)", "lockR(8)",
			"barr(1)", "barr(4)", "barr(8)",
		}}
	ppns := []int{1, 4, 8}
	var cells []Cell
	for _, w := range apps() {
		for _, ppn := range ppns {
			cfg := s.Base()
			cfg.ProcsPerNode = ppn
			cells = append(cells, Cell{Cfg: cfg, W: w})
		}
	}
	if err := s.prefetch(cells); err != nil {
		return nil, err
	}
	for _, w := range apps() {
		vals := make([]float64, 0, 15)
		grids := make([]*svmsim.RunStats, len(ppns))
		for i, ppn := range ppns {
			cfg := s.Base()
			cfg.ProcsPerNode = ppn
			run, err := s.run(cfg, w)
			if err != nil {
				return nil, err
			}
			grids[i] = run
		}
		for _, f := range []func(*stats.Proc) uint64{
			func(p *stats.Proc) uint64 { return p.PageFaults },
			func(p *stats.Proc) uint64 { return p.PageFetches },
			func(p *stats.Proc) uint64 { return p.LocalLocks },
			func(p *stats.Proc) uint64 { return p.RemoteLocks },
			func(p *stats.Proc) uint64 { return p.Barriers },
		} {
			for _, run := range grids {
				vals = append(vals, run.PerMComputeCycles(run.Sum(f))/float64(len(run.Procs)))
			}
		}
		t.Rows = append(t.Rows, Row{Name: w.Name, Values: vals})
	}
	return t, nil
}

// commSweep renders a per-ppn communication metric (Figures 3 and 4).
func (s *Suite) commSweep(id, title string, metric func(*stats.Proc) uint64, scale float64) (*Table, error) {
	t := &Table{ID: id, Title: title, Cols: []string{"ppn=1", "ppn=4", "ppn=8"}}
	var cells []Cell
	for _, w := range apps() {
		for _, ppn := range []int{1, 4, 8} {
			cfg := s.Base()
			cfg.ProcsPerNode = ppn
			cells = append(cells, Cell{Cfg: cfg, W: w})
		}
	}
	if err := s.prefetch(cells); err != nil {
		return nil, err
	}
	for _, w := range apps() {
		var vals []float64
		for _, ppn := range []int{1, 4, 8} {
			cfg := s.Base()
			cfg.ProcsPerNode = ppn
			run, err := s.run(cfg, w)
			if err != nil {
				return nil, err
			}
			v := run.PerMComputeCycles(run.Sum(metric)) / float64(len(run.Procs))
			vals = append(vals, v*scale)
		}
		t.Rows = append(t.Rows, Row{Name: w.Name, Values: vals})
	}
	return t, nil
}

// Figure3 reproduces messages sent per processor per 1M compute cycles.
func (s *Suite) Figure3() (*Table, error) {
	return s.commSweep("Figure 3", "Messages sent per processor per 1M compute cycles",
		func(p *stats.Proc) uint64 { return p.MsgsSent }, 1)
}

// Figure4 reproduces MBytes sent per processor per 1M compute cycles.
func (s *Suite) Figure4() (*Table, error) {
	return s.commSweep("Figure 4", "MBytes sent per processor per 1M compute cycles",
		func(p *stats.Proc) uint64 { return p.BytesSent }, 1.0/(1<<20))
}

// paramSweep runs a speedup sweep of one axis over its studied points,
// every other parameter at the suite baseline, under AURC when aurc is set.
func (s *Suite) paramSweep(id, title string, ax *Axis, labels []string, aurc bool, wls []svmsim.Workload) (*Table, error) {
	t := &Table{ID: id, Title: title, Cols: labels}
	cfgs := make([]svmsim.Config, len(ax.Points))
	for i, v := range ax.Points {
		cfgs[i] = ax.Set(s.Base(), v)
		if aurc {
			cfgs[i].Proto.Mode = svmsim.AURC
		}
	}
	var cells []Cell
	for _, w := range wls {
		cells = append(cells, s.uniCell(w))
		for _, cfg := range cfgs {
			cells = append(cells, Cell{Cfg: cfg, W: w})
		}
	}
	if err := s.prefetch(cells); err != nil {
		return nil, err
	}
	for _, w := range wls {
		var vals []float64
		for _, cfg := range cfgs {
			sp, err := s.speedup(cfg, w)
			if err != nil {
				return nil, err
			}
			vals = append(vals, sp)
		}
		t.Rows = append(t.Rows, Row{Name: w.Name, Values: vals})
	}
	return t, nil
}

// Figure5 reproduces the host-overhead sweep.
func (s *Suite) Figure5() (*Table, error) {
	ax := &Axes[axOverhead]
	return s.paramSweep("Figure 5", "Speedup vs host overhead (cycles/message)", ax, ax.Labels, false, apps())
}

// Figure7 reproduces the NI-occupancy sweep under HLRC.
func (s *Suite) Figure7() (*Table, error) {
	ax := &Axes[axOccupancy]
	return s.paramSweep("Figure 7", "Speedup vs NI occupancy (cycles/packet), HLRC", ax, ax.Labels, false, apps())
}

// Figure8 reproduces the I/O-bus bandwidth sweep.
func (s *Suite) Figure8() (*Table, error) {
	// The recorded figure prints one decimal; the axis labels (and so
	// SweepParam("iobw")) print "1" and "2".
	labels := []string{"0.2", "0.5", "1.0", "2.0"}
	return s.paramSweep("Figure 8", "Speedup vs I/O bus bandwidth (MB/s per MHz)", &Axes[axIOBw], labels, false, apps())
}

// Figure10 reproduces the interrupt-cost sweep.
func (s *Suite) Figure10() (*Table, error) {
	ax := &Axes[axInterrupt]
	return s.paramSweep("Figure 10", "Speedup vs interrupt cost (cycles per half)", ax, ax.Labels, false, apps())
}

// Figure12 reproduces the NI-occupancy sweep under AURC, where occupancy
// matters much more (fine-grain update packets).
func (s *Suite) Figure12() (*Table, error) {
	ax := &Axes[axOccupancy]
	// The paper shows a representative regular + irregular subset.
	subset := pick("FFT", "LU", "Ocean", "Water-sp", "Barnes-reb")
	return s.paramSweep("Figure 12", "Speedup vs NI occupancy (cycles/packet), AURC", ax, ax.Labels, true, subset)
}

// Figure13 reproduces the page-size sweep.
func (s *Suite) Figure13() (*Table, error) {
	ax := &Axes[axPageSize]
	return s.paramSweep("Figure 13", "Speedup vs page size", ax, ax.Labels, false, apps())
}

// Figure14 reproduces the clustering sweep (processors per node; total
// fixed).
func (s *Suite) Figure14() (*Table, error) {
	ax := &Axes[axClustering]
	return s.paramSweep("Figure 14", "Speedup vs degree of clustering (procs/node)", ax, ax.Labels, false, apps())
}

// pick selects workloads by name.
func pick(names ...string) []svmsim.Workload {
	var out []svmsim.Workload
	for _, w := range apps() {
		for _, n := range names {
			if w.Name == n {
				out = append(out, w)
			}
		}
	}
	return out
}

func cyclesLabel(v uint64) string {
	switch {
	case v >= 1000 && v%1000 == 0:
		return itoa(int(v/1000)) + "k"
	default:
		return itoa(int(v))
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// SweepParam runs a named single-parameter sweep over the given workloads,
// optionally under AURC (the cmd/sweep entry point).
func (s *Suite) SweepParam(param string, wls []svmsim.Workload, aurc bool) (*Table, error) {
	i, ok := AxisIndex(param)
	if !ok {
		return nil, fmt.Errorf("exp: unknown parameter %q", param)
	}
	title := "Speedup vs " + param
	if aurc {
		title += " (AURC)"
	}
	return s.paramSweep("Sweep", title, &Axes[i], Axes[i].Labels, aurc, wls)
}
