package sim

// eventQueue is a binary min-heap of events ordered by (time, sequence).
// It is hand-rolled rather than using container/heap to avoid interface
// boxing on the hot path; the engine executes millions of telemetry events
// per simulated experiment.
type eventQueue struct {
	items []*Event
}

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return len(q.items) }

// Peek returns the earliest event without removing it. It panics on an
// empty queue; callers check Len first.
func (q *eventQueue) Peek() *Event { return q.items[0] }

// Push inserts an event into the heap.
func (q *eventQueue) Push(ev *Event) {
	q.items = append(q.items, ev)
	ev.index = len(q.items) - 1
	q.up(ev.index)
}

// Pop removes and returns the earliest event.
func (q *eventQueue) Pop() *Event {
	n := len(q.items)
	top := q.items[0]
	q.items[0] = q.items[n-1]
	q.items[0].index = 0
	q.items[n-1] = nil
	q.items = q.items[:n-1]
	if len(q.items) > 0 {
		q.down(0)
	}
	top.index = -1
	q.shrink()
	return top
}

// Remove deletes the event at heap index i (used by Event.cancel to drop
// cancelled events eagerly instead of letting them age to the front).
func (q *eventQueue) Remove(i int) {
	n := len(q.items)
	if i < 0 || i >= n {
		return
	}
	ev := q.items[i]
	last := n - 1
	if i != last {
		q.swap(i, last)
	}
	q.items[last] = nil
	q.items = q.items[:last]
	if i != last {
		// The swapped-in element may need to move either way.
		q.down(i)
		q.up(i)
	}
	ev.index = -1
	q.shrink()
}

// minShrinkCap is the backing-array capacity below which the heap never
// shrinks, so small queues don't thrash the allocator.
const minShrinkCap = 64

// shrink releases backing capacity once occupancy drops below a quarter:
// a burst (campaign submission wave, fault storm) would otherwise pin its
// peak heap array for the rest of the run. The copy preserves slot order,
// so heap indices stay valid; the new capacity keeps 2x headroom to avoid
// realloc ping-pong around the threshold.
func (q *eventQueue) shrink() {
	n := len(q.items)
	if cap(q.items) <= minShrinkCap || n >= cap(q.items)/4 {
		return
	}
	c := 2 * n
	if c < minShrinkCap {
		c = minShrinkCap
	}
	items := make([]*Event, n, c)
	copy(items, q.items)
	q.items = items
}

func (q *eventQueue) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].index = i
	q.items[j].index = j
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *eventQueue) down(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}
