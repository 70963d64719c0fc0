package proto

import (
	"runtime"
	"testing"

	"svmsim/internal/engine"
	"svmsim/internal/interrupts"
	"svmsim/internal/network"
	"svmsim/internal/node"
)

// TestNewSystemAllocatesNoNodeImages pins lazy node memory: building a
// 16-node cluster over a 16 MB shared heap must not pay for 16 dense copies
// of the heap (256 MB). Frames appear only when a node first touches a page.
func TestNewSystemAllocatesNoNodeImages(t *testing.T) {
	const limit = 2 << 20
	sim := engine.New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sy := NewSystem(sim, SystemConfig{
		Nodes:             16,
		ProcsPerNode:      1,
		HeapBytes:         16 << 20,
		NodePrm:           node.DefaultParams(),
		NetPrm:            network.Params{IOBytesPerCycle: 1, LinkBytesPerCycle: 2, MaxPacketBytes: 2048},
		ProtoPrm:          DefaultParams(),
		IntrIssueCycles:   100,
		IntrDeliverCycles: 100,
		IntrPolicy:        interrupts.Static,
	})
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got >= limit {
		t.Fatalf("NewSystem allocated %d bytes for %d nodes, want < %d", got, len(sy.Nodes), limit)
	}
	t.Logf("NewSystem allocated %d bytes for %d nodes", got, len(sy.Nodes))
}
