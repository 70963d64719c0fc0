package exp

import (
	"fmt"

	"svmsim"
)

// Axis is one of the paper's six studied parameters: the four
// communication costs of Table 1 (host overhead, NI occupancy, I/O
// bandwidth, interrupt cost) plus page size and degree of clustering. Axes
// is the one place each is declared; the figures, Table 3, named sweeps,
// the analytical twin and cmd/loadgen all read it.
type Axis struct {
	// Name is the parameter's sweep name (cmd/sweep -param,
	// SweepSpec.Param).
	Name string
	// Short is the parameter's Table 3 column name.
	Short string
	// Points are the studied values in ascending order: the typed *Points
	// var widened to the axis coordinate space.
	Points []float64
	// Labels name Points as table columns.
	Labels []string
	// HighIsBest marks the axis whose best end is its highest point (I/O
	// bandwidth: more is faster). Every other axis counts its lowest point
	// as the best end, page size and clustering by the paper's convention.
	HighIsBest bool
	// Get reads the axis coordinate from a configuration; Set returns the
	// configuration with the coordinate replaced.
	Get func(svmsim.Config) float64
	Set func(svmsim.Config, float64) svmsim.Config
	// Spec writes a point into a wire cell spec.
	Spec func(*CellSpec, float64)
}

// Indices into Axes.
const (
	axOverhead = iota
	axOccupancy
	axIOBw
	axInterrupt
	axPageSize
	axClustering
)

// Axes lists the studied parameters in Table 3's column order (which is
// also the analytical twin's axis order).
var Axes = [...]Axis{
	axOverhead: {
		Name: "overhead", Short: "HostOvh",
		Points: widen(HostOverheadPoints), Labels: mapLabels(HostOverheadPoints, cyclesLabel),
		Get:  func(c svmsim.Config) float64 { return float64(c.Net.HostOverheadCycles) },
		Set:  func(c svmsim.Config, v float64) svmsim.Config { c.Net.HostOverheadCycles = uint64(v); return c },
		Spec: func(s *CellSpec, v float64) { u := uint64(v); s.HostOverheadCycles = &u },
	},
	axOccupancy: {
		Name: "occupancy", Short: "NIOcc",
		Points: widen(OccupancyPoints), Labels: mapLabels(OccupancyPoints, cyclesLabel),
		Get:  func(c svmsim.Config) float64 { return float64(c.Net.NIOccupancyCycles) },
		Set:  func(c svmsim.Config, v float64) svmsim.Config { c.Net.NIOccupancyCycles = uint64(v); return c },
		Spec: func(s *CellSpec, v float64) { u := uint64(v); s.NIOccupancyCycles = &u },
	},
	axIOBw: {
		Name: "iobw", Short: "IOBw", HighIsBest: true,
		Points: widen(IOBandwidthPoints),
		Labels: mapLabels(IOBandwidthPoints, func(v float64) string { return fmt.Sprintf("%.2g", v) }),
		Get:    func(c svmsim.Config) float64 { return c.Net.IOBytesPerCycle },
		Set:    func(c svmsim.Config, v float64) svmsim.Config { c.Net.IOBytesPerCycle = v; return c },
		Spec:   func(s *CellSpec, v float64) { s.IOBytesPerCycle = &v },
	},
	axInterrupt: {
		Name: "interrupt", Short: "Intr",
		Points: widen(InterruptPoints), Labels: mapLabels(InterruptPoints, cyclesLabel),
		Get:  func(c svmsim.Config) float64 { return float64(c.IntrHalfCostCycles) },
		Set:  func(c svmsim.Config, v float64) svmsim.Config { c.IntrHalfCostCycles = uint64(v); return c },
		Spec: func(s *CellSpec, v float64) { u := uint64(v); s.IntrHalfCostCycles = &u },
	},
	axPageSize: {
		Name: "pagesize", Short: "PageSz",
		Points: widen(PageSizePoints),
		Labels: mapLabels(PageSizePoints, func(v int) string { return itoa(v/1024) + "K" }),
		Get:    func(c svmsim.Config) float64 { return float64(c.Proto.PageBytes) },
		Set:    func(c svmsim.Config, v float64) svmsim.Config { c.Proto.PageBytes = int(v); return c },
		Spec:   func(s *CellSpec, v float64) { s.PageBytes = int(v) },
	},
	axClustering: {
		Name: "clustering", Short: "PPN",
		Points: widen(ClusteringPoints), Labels: mapLabels(ClusteringPoints, itoa),
		Get:  func(c svmsim.Config) float64 { return float64(c.ProcsPerNode) },
		Set:  func(c svmsim.Config, v float64) svmsim.Config { c.ProcsPerNode = int(v); return c },
		Spec: func(s *CellSpec, v float64) { s.PPN = int(v) },
	},
}

// AxisIndex returns the position in Axes of the axis with the given sweep
// name.
func AxisIndex(name string) (int, bool) {
	for i := range Axes {
		if Axes[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

// Best is the end of the studied range Table 3's slowdown runs from.
func (a *Axis) Best() float64 {
	if a.HighIsBest {
		return a.Points[len(a.Points)-1]
	}
	return a.Points[0]
}

// Worst is the end of the studied range Table 3's slowdown runs to.
func (a *Axis) Worst() float64 {
	if a.HighIsBest {
		return a.Points[0]
	}
	return a.Points[len(a.Points)-1]
}

func widen[T uint64 | int | float64](points []T) []float64 {
	out := make([]float64, len(points))
	for i, v := range points {
		out[i] = float64(v)
	}
	return out
}

func mapLabels[T any](points []T, label func(T) string) []string {
	out := make([]string, len(points))
	for i, v := range points {
		out[i] = label(v)
	}
	return out
}
