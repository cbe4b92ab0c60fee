package campaign

import (
	"runtime"
	"testing"
)

// maxLiveHeapPerNode bounds what TestLiveHeapPerNode measures: 1,152 B
// a node on linux/amd64, at 4,096 nodes as at 10,000, with room for the
// allocator's rounding and little else.
const maxLiveHeapPerNode = 1300

// TestLiveHeapPerNode bounds the live heap a booted campaign holds per
// node: the growth of HeapAlloc across NewRunner, each side read after a
// full collection, for the scale10k mix at 4,096 nodes. A handful of jobs
// keeps per-job state out of the figure. Growth in per-node state fails
// here before the 10k- and 100k-node specs pay for it many times over.
func TestLiveHeapPerNode(t *testing.T) {
	spec, err := Load("testdata/scale10k.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Nodes, spec.Arrival.Jobs = 4096, 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perNode := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(spec.Nodes)
	t.Logf("live heap %.0f B/node at %d nodes", perNode, spec.Nodes)
	if perNode > maxLiveHeapPerNode {
		t.Errorf("live heap %.0f B/node after NewRunner at %d nodes, bound %d B/node: per-node state grew",
			perNode, spec.Nodes, maxLiveHeapPerNode)
	}
}
