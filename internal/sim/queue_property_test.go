package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the reference model for eventQueue: the standard library's
// container/heap over the same (time, sequence) order. The hand-rolled heap
// must be observationally equivalent to it under any interleaving of
// pushes, pops and removals — that equivalence is what the property test
// below checks.
type refItem struct {
	at  float64
	seq uint64
	id  int
}

type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// checkHeapInvariants verifies the structural contract Remove and
// Event.cancel rely on: every queued event's index field names its slot,
// and every parent orders at-or-before its children.
func checkHeapInvariants(t *testing.T, q *eventQueue) {
	t.Helper()
	for i, ev := range q.items {
		if ev.index != i {
			t.Fatalf("event %d has index %d", i, ev.index)
		}
		if i > 0 && q.less(i, (i-1)/2) {
			t.Fatalf("heap order violated at %d: (%v,%d) above (%v,%d)",
				i, q.items[(i-1)/2].at, q.items[(i-1)/2].seq, ev.at, ev.seq)
		}
	}
}

// TestQueueMatchesContainerHeap drives the hand-rolled heap and the
// container/heap reference model through the same long randomized sequence
// of pushes, pops and cancels (Remove at an arbitrary heap position), with
// popped and removed Event structs recycled through a free list exactly as
// the engine recycles them. Time collisions are forced (few distinct
// timestamps, many events) so the (time, seq) tiebreak is exercised, and
// both heaps must agree on every pop.
func TestQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	q := &eventQueue{}
	ref := &refHeap{}
	live := map[int]*Event{} // id -> queued event, for targeted removal
	var free []*Event        // recycled structs, reused like the engine pool
	var seq uint64
	nextID := 0

	push := func() {
		// A handful of distinct timestamps guarantees heavy ties.
		at := float64(rng.Intn(16))
		var ev *Event
		if n := len(free); n > 0 && rng.Intn(2) == 0 {
			ev, free = free[n-1], free[:n-1]
		} else {
			ev = &Event{}
		}
		ev.at, ev.seq = at, seq
		q.Push(ev)
		live[nextID] = ev
		heap.Push(ref, &refItem{at: at, seq: seq, id: nextID})
		seq++
		nextID++
	}

	pop := func() {
		got := q.Pop()
		want := heap.Pop(ref).(*refItem)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop mismatch: got (%v, seq %d), reference (%v, seq %d)",
				got.at, got.seq, want.at, want.seq)
		}
		if got != live[want.id] {
			t.Fatalf("pop returned a different struct than was pushed for id %d", want.id)
		}
		if got.index != -1 {
			t.Fatalf("popped event still claims queue membership (index %d)", got.index)
		}
		delete(live, want.id)
		free = append(free, got)
	}

	remove := func() {
		// Cancel a uniformly random live event, the way Event.cancel removes
		// tombstones eagerly from an arbitrary heap position.
		ids := make([]int, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		id := ids[rng.Intn(len(ids))]
		ev := live[id]
		q.Remove(ev.index)
		if ev.index != -1 {
			t.Fatalf("removed event still claims queue membership (index %d)", ev.index)
		}
		for i, it := range *ref {
			if it.id == id {
				heap.Remove(ref, i)
				break
			}
		}
		delete(live, id)
		free = append(free, ev)
	}

	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(10); {
		case r < 5 || q.Len() == 0:
			push()
		case r < 8:
			pop()
		default:
			remove()
		}
		if q.Len() != ref.Len() {
			t.Fatalf("length diverged after op %d: queue %d, reference %d", op, q.Len(), ref.Len())
		}
		checkHeapInvariants(t, q)
	}
	// Drain: the full remaining pop order must match.
	for q.Len() > 0 {
		pop()
	}
}
