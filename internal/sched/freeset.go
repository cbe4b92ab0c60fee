package sched

import (
	"container/heap"
	"sort"
)

// freeIndex presents the idle node set to the scheduling passes. Both
// implementations report idle nodes in partition order, which keeps
// allocation deterministic.
type freeIndex interface {
	// Count returns the number of idle nodes.
	Count() int
	// Idle returns the idle partition indexes, ascending. The slice may
	// be the index's own storage: it is valid until the next Add or
	// Remove, and callers (the policies' PickHosts) must not modify it —
	// the scheduler copies the chosen allocation before removing it.
	Idle() []int
	// Add records that the node at partition index idx became idle.
	Add(idx int)
	// Remove records that the node at partition index idx left the idle set.
	Remove(idx int)
}

// indexedFree keeps the idle nodes as a sorted slice of partition indexes,
// maintained incrementally: Count is O(1) and Idle hands out the slice
// itself, so a scheduling pass never rescans or copies the partition.
type indexedFree struct {
	idx []int // idle partition indexes, ascending
}

func (f *indexedFree) Count() int { return len(f.idx) }

func (f *indexedFree) Idle() []int { return f.idx }

func (f *indexedFree) Add(n int) {
	i := sort.SearchInts(f.idx, n)
	if i < len(f.idx) && f.idx[i] == n {
		return
	}
	f.idx = append(f.idx, 0)
	copy(f.idx[i+1:], f.idx[i:])
	f.idx[i] = n
}

func (f *indexedFree) Remove(n int) {
	i := sort.SearchInts(f.idx, n)
	if i < len(f.idx) && f.idx[i] == n {
		f.idx = append(f.idx[:i], f.idx[i+1:]...)
	}
}

// linearFree reproduces the seed scheduler's O(nodes) full-partition
// rescan on every query. It exists purely as the ablation baseline for
// the throughput benchmarks (see WithLinearScan).
type linearFree struct{ s *Scheduler }

func (f *linearFree) Count() int { return len(f.Idle()) }

func (f *linearFree) Idle() []int {
	var idle []int
	for i, ni := range f.s.nodes {
		if ni.state == NodeIdle {
			idle = append(idle, i)
		}
	}
	return idle
}

func (f *linearFree) Add(int) {}

func (f *linearFree) Remove(int) {}

// releaseEntry is one running job's future node release (start time plus
// wall limit).
type releaseEntry struct {
	at    float64
	nodes int
	jobID int
	pos   int // heap position, -1 once removed
}

// releaseHeap is a min-heap on (at, jobID), pushed on job start and pruned
// on job end, so reservation() reads releases without rebuilding them from
// a partition scan.
type releaseHeap []*releaseEntry

func (h releaseHeap) Len() int { return len(h) }

func (h releaseHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].jobID < h[j].jobID
}

func (h releaseHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}

func (h *releaseHeap) Push(x any) {
	e := x.(*releaseEntry)
	e.pos = len(*h)
	*h = append(*h, e)
}

func (h *releaseHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	e.pos = -1
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func (h *releaseHeap) push(e *releaseEntry) { heap.Push(h, e) }

func (h *releaseHeap) remove(e *releaseEntry) {
	if e.pos >= 0 && e.pos < h.Len() && (*h)[e.pos] == e {
		heap.Remove(h, e.pos)
	}
}

// scratchInto fills dst (reusing its capacity) with a value-copy min-heap
// of the pending releases that can be consumed in (at, jobID) order
// without disturbing the live entries' heap positions. A copy of a heap
// slice is already heap-ordered, so no re-heapify is needed.
func (h releaseHeap) scratchInto(dst scratchHeap) scratchHeap {
	dst = dst[:0]
	for _, e := range h {
		dst = append(dst, *e)
	}
	return dst
}

// scratchHeap is a value-based min-heap over releaseEntry with the same
// ordering as releaseHeap but without position tracking.
type scratchHeap []releaseEntry

func (h scratchHeap) Len() int { return len(h) }

func (h scratchHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].jobID < h[j].jobID
}

func (h scratchHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *scratchHeap) Push(x any) { *h = append(*h, x.(releaseEntry)) }

func (h *scratchHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
