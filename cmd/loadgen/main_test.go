package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"svmsim/internal/exp"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestBuildTraceGolden pins the synthetic trace of every axis under both
// protocols, byte for byte: a replayed capture must keep meaning the same
// cells. -update rewrites testdata/traces.golden.
func TestBuildTraceGolden(t *testing.T) {
	var got bytes.Buffer
	for i := range exp.Axes {
		for _, mode := range []string{"hlrc", "aurc"} {
			param := exp.Axes[i].Name
			trace, err := buildTrace("", param, "", mode)
			if err != nil {
				t.Fatalf("-param %s -mode %s: %v", param, mode, err)
			}
			fmt.Fprintf(&got, "# -param %s -mode %s\n", param, mode)
			for _, line := range trace {
				got.Write(line)
				got.WriteByte('\n')
			}
		}
	}
	path := filepath.Join("testdata", "traces.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("synthetic traces drifted from %s (run with -update only for an intended change)", path)
	}
}

// TestBuildTraceRejectsUnknownParam: a parameter outside the axis table is
// an error, not an empty trace.
func TestBuildTraceRejectsUnknownParam(t *testing.T) {
	if _, err := buildTrace("", "intr", "", "hlrc"); err == nil {
		t.Fatal("buildTrace accepted -param intr")
	}
}
