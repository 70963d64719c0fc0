// Command experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md for the experiment index) and prints
// them in order. With -out, it also writes the rendered tables to a file
// (the source for EXPERIMENTS.md).
//
// Usage:
//
//	experiments                  # all experiments, small problem sizes
//	experiments -size default    # benchmark-sized problems (slower)
//	experiments -only fig10,table3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"svmsim/internal/exp"
	"svmsim/internal/walltime"
)

func main() {
	var (
		size     = flag.String("size", "small", "problem size: small or default")
		only     = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		out      = flag.String("out", "", "also write rendered tables to this file")
		procs    = flag.Int("procs", 16, "total processors")
		ppn      = flag.Int("ppn", 4, "processors per node (baseline)")
		parallel = flag.Int("parallel", 0, "concurrent simulation runs (0 = GOMAXPROCS, 1 = serial)")
		cacheDir = flag.String("cache-dir", "", "persist finished cells to this directory and reuse them across runs")
		verbose  = flag.Bool("v", false, "progress output")
	)
	flag.Parse()

	sizes := exp.Small
	if strings.EqualFold(*size, "default") {
		sizes = exp.Default
	}
	s := exp.NewSuite(sizes)
	s.Procs = *procs
	s.PPN = *ppn
	s.Parallelism = *parallel
	s.CacheDir = *cacheDir
	if *verbose {
		s.Verbose = os.Stderr
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	failed := 0
	for _, e := range s.Experiments() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		sw := walltime.Start()
		tbl, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Fprintf(w, "%s\n(elapsed %.1fs)\n\n", tbl.String(), sw.Seconds())
	}
	if failed > 0 {
		os.Exit(1)
	}
}
