package exp_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"svmsim"
	"svmsim/internal/exp"
	"svmsim/internal/twin"
)

// fakeSuite answers every cell from a closed-form stand-in instead of the
// simulator, recording the content keys it was asked for. The stand-in's
// cycle count moves with every axis coordinate, so each end of each range
// yields a distinct time.
func fakeSuite() (*exp.Suite, func() []string) {
	s := exp.NewSuite(exp.Small)
	var mu sync.Mutex
	seen := map[string]bool{}
	s.Predict = func(c exp.Cell) (*svmsim.RunStats, bool) {
		cycles := uint64(1_000_000)
		for i := range exp.Axes {
			cycles += uint64(exp.Axes[i].Get(c.Cfg) * float64(10*(i+1)))
		}
		mu.Lock()
		seen[c.Key()] = true
		mu.Unlock()
		return &svmsim.RunStats{Cycles: cycles}, true
	}
	return s, func() []string {
		mu.Lock()
		defer mu.Unlock()
		keys := make([]string, 0, len(seen))
		for k := range seen {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
}

// TestAxisTable checks every entry of the axis table against its
// consumers: Get inverts Set on every studied point, ResolveSweep accepts
// exactly the table's names, each named sweep simulates the same cells as
// the paper figure it mirrors, the twin's axis enum follows the table's
// order, and Table 3 and the twin's sensitivities measure from the same
// best end.
func TestAxisTable(t *testing.T) {
	type figure struct {
		run  func(*exp.Suite) (*exp.Table, error)
		aurc bool
	}
	figures := map[string][]figure{
		"overhead":   {{(*exp.Suite).Figure5, false}},
		"occupancy":  {{(*exp.Suite).Figure7, false}, {(*exp.Suite).Figure12, true}},
		"iobw":       {{(*exp.Suite).Figure8, false}},
		"interrupt":  {{(*exp.Suite).Figure10, false}},
		"pagesize":   {{(*exp.Suite).Figure13, false}},
		"clustering": {{(*exp.Suite).Figure14, false}},
	}
	twinAxes := map[string]twin.Axis{
		"overhead": twin.AxisHostOverhead, "occupancy": twin.AxisOccupancy,
		"iobw": twin.AxisIOBw, "interrupt": twin.AxisInterrupt,
		"pagesize": twin.AxisPageSize, "clustering": twin.AxisClustering,
	}
	if len(exp.Axes) != len(figures) || int(twin.NumAxes) != len(exp.Axes) {
		t.Fatalf("%d axes, %d figure sweeps, %d twin axes", len(exp.Axes), len(figures), twin.NumAxes)
	}
	base := exp.NewSuite(exp.Small).Base()
	for i := range exp.Axes {
		ax := &exp.Axes[i]
		t.Run(ax.Name, func(t *testing.T) {
			if len(ax.Labels) != len(ax.Points) {
				t.Fatalf("%d labels for %d points", len(ax.Labels), len(ax.Points))
			}
			for _, p := range ax.Points {
				if got := ax.Get(ax.Set(base, p)); got != p {
					t.Errorf("Get(Set(cfg, %g)) = %g", p, got)
				}
			}
			if a, ok := twinAxes[ax.Name]; !ok || int(a) != i || a.Param() != ax.Name {
				t.Errorf("twin axis for %q is %d, want %d", ax.Name, a, i)
			}
			if _, _, err := exp.NewSuite(exp.Small).ResolveSweep(exp.SweepSpec{Param: ax.Name}); err != nil {
				t.Errorf("ResolveSweep rejects %q: %v", ax.Name, err)
			}

			for _, fig := range figures[ax.Name] {
				fs, figKeys := fakeSuite()
				tbl, err := fig.run(fs)
				if err != nil {
					t.Fatal(err)
				}
				// The sweep runs over the figure's own rows (Figure 12 shows
				// a five-application subset).
				var names []string
				for _, r := range tbl.Rows {
					names = append(names, r.Name)
				}
				wls, err := exp.SelectWorkloads(names)
				if err != nil {
					t.Fatal(err)
				}
				ss, sweepKeys := fakeSuite()
				if _, err := ss.SweepParam(ax.Name, wls, fig.aurc); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(figKeys(), sweepKeys()) {
					t.Errorf("%s and SweepParam(%q, aurc=%v) enumerate different cells:\n%v\n%v",
						tbl.ID, ax.Name, fig.aurc, figKeys(), sweepKeys())
				}
			}
		})
	}
	for _, name := range []string{"", "Overhead", "intr", "page", "ppn", "IOBw"} {
		if _, _, err := exp.NewSuite(exp.Small).ResolveSweep(exp.SweepSpec{Param: name}); err == nil {
			t.Errorf("ResolveSweep accepts %q, which is not an axis name", name)
		}
	}

	// Table 3 against the twin's sensitivities on the same stand-in times:
	// equal values mean both measure from the same best end of every axis.
	s, _ := fakeSuite()
	t3, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	for i := range exp.Axes {
		if t3.Cols[i] != exp.Axes[i].Short {
			t.Errorf("Table 3 column %d is %q, want %q", i, t3.Cols[i], exp.Axes[i].Short)
		}
	}
	w, err := exp.WorkloadByName("FFT")
	if err != nil {
		t.Fatal(err)
	}
	m, err := twin.New().Calibrate(s, w, false)
	if err != nil {
		t.Fatal(err)
	}
	sens := m.Sensitivities()
	if len(sens) != len(exp.Axes) {
		t.Fatalf("%d sensitivities, want %d", len(sens), len(exp.Axes))
	}
	for _, sn := range sens {
		i, ok := exp.AxisIndex(sn.Param)
		if !ok {
			t.Fatalf("sensitivity for unknown axis %q", sn.Param)
		}
		if want := t3.Get("FFT", i); sn.SlowdownPct != want || want == 0 {
			t.Errorf("%s: twin slowdown %g, Table 3 %g", sn.Param, sn.SlowdownPct, want)
		}
	}
}
