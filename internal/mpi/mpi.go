// Package mpi implements a message-passing layer in the style of the
// OpenMPI deployment the paper uses (one MPI task per physical core), with
// virtual-time accounting over the netsim fabric models.
//
// Each rank runs as a goroutine with a private virtual clock. Sending
// advances the sender's clock by the message's serialisation time; the
// message carries its arrival time (sender departure + link latency), and a
// receive completes at max(receiver clock, arrival). Because every clock is
// derived only from that rank's own deterministic program order and the
// fabric's deterministic transfer law, simulated timings are reproducible
// regardless of host goroutine scheduling.
//
// Messages may carry real payloads (used by the numerically verified
// distributed solvers at small problem sizes) or only a byte count (used by
// the performance-model runs at the paper's N=40704 scale).
//
// MPI collectives resolve entirely inside a workload's execution: the
// layer schedules no engine events of its own, and its timing law depends
// only on rank program order and the fabric model, never on node physics.
// Its effect reaches the engine only through the workload events (phase
// transitions, job ends) that consume its timings.
package mpi

import (
	"fmt"
	"sync"

	"montecimone/internal/netsim"
)

// sendOverheadSec is the per-message software overhead of the MPI stack.
const sendOverheadSec = 2e-6

// Message is a received message.
type Message struct {
	// Src and Tag identify the envelope.
	Src, Tag int
	// Data is the payload; nil for bytes-only (modelled) messages.
	Data []float64
	// Bytes is the payload size used for timing.
	Bytes float64

	arrival float64
}

// World owns the ranks of one parallel job.
type World struct {
	fabric    *netsim.Fabric
	placement []int // rank -> node
	sharing   []int // rank -> ranks on the same node (NIC contention)
	procs     []*Proc
}

// NewWorld creates a world with the given rank->node placement over a
// fabric. Sharing factors are derived from co-location.
func NewWorld(fabric *netsim.Fabric, placement []int) (*World, error) {
	if fabric == nil {
		return nil, fmt.Errorf("mpi: nil fabric")
	}
	if len(placement) == 0 {
		return nil, fmt.Errorf("mpi: empty placement")
	}
	perNode := make(map[int]int)
	for rank, node := range placement {
		if node < 0 || node >= fabric.Nodes() {
			return nil, fmt.Errorf("mpi: rank %d placed on node %d outside fabric of %d nodes", rank, node, fabric.Nodes())
		}
		perNode[node]++
	}
	w := &World{
		fabric:    fabric,
		placement: append([]int(nil), placement...),
		sharing:   make([]int, len(placement)),
		procs:     make([]*Proc, len(placement)),
	}
	for rank, node := range placement {
		w.sharing[rank] = perNode[node]
	}
	for rank := range placement {
		w.procs[rank] = &Proc{
			rank:  rank,
			world: w,
			box:   newMailbox(),
		}
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.procs) }

// NodeOf returns the node index hosting a rank.
func (w *World) NodeOf(rank int) int { return w.placement[rank] }

// Run executes fn once per rank, concurrently, and waits for all ranks.
// The first error (by rank order) is returned.
func (w *World) Run(fn func(*Proc) error) error {
	errs := make([]error, len(w.procs))
	var wg sync.WaitGroup
	for _, p := range w.procs {
		p.clock = 0
		p.computeTime = 0
		p.commTime = 0
		p.intervals = nil
		p.collSeq = 0
	}
	for i, p := range w.procs {
		wg.Add(1)
		go func(i int, p *Proc) {
			defer wg.Done()
			errs[i] = fn(p)
		}(i, p)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("mpi: rank %d: %w", rank, err)
		}
	}
	return nil
}

// MaxClock returns the largest rank clock after a Run: the job's makespan.
func (w *World) MaxClock() float64 {
	maxT := 0.0
	for _, p := range w.procs {
		if p.clock > maxT {
			maxT = p.clock
		}
	}
	return maxT
}

// Proc exposes per-rank statistics gathered during Run.
func (w *World) Proc(rank int) *Proc { return w.procs[rank] }

// IntervalKind classifies a rank-activity interval.
type IntervalKind int

// Interval kinds: compute keeps the FPU busy (high instruction rate in the
// ExaMon heatmap); comm idles the core on the in-order U74.
const (
	IntervalCompute IntervalKind = iota + 1
	IntervalComm
)

// Interval is a span of rank activity in virtual time.
type Interval struct {
	Start, End float64
	Kind       IntervalKind
}

// Proc is one MPI rank. Methods must only be called from the goroutine
// running the rank's function during World.Run.
type Proc struct {
	rank  int
	world *World
	box   *mailbox

	clock       float64
	computeTime float64
	commTime    float64
	intervals   []Interval
	collSeq     int
}

// Rank returns this rank's index.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return len(p.world.procs) }

// Node returns the node hosting this rank.
func (p *Proc) Node() int { return p.world.placement[p.rank] }

// Now returns the rank's virtual clock in seconds.
func (p *Proc) Now() float64 { return p.clock }

// ComputeTime and CommTime return accumulated busy times.
func (p *Proc) ComputeTime() float64 { return p.computeTime }

// CommTime returns the accumulated communication (and wait) time.
func (p *Proc) CommTime() float64 { return p.commTime }

// Intervals returns the recorded activity timeline.
func (p *Proc) Intervals() []Interval {
	out := make([]Interval, len(p.intervals))
	copy(out, p.intervals)
	return out
}

// Compute advances the rank's clock by a modelled computation of the given
// duration.
func (p *Proc) Compute(seconds float64) {
	if seconds <= 0 {
		return
	}
	p.addInterval(IntervalCompute, p.clock, p.clock+seconds)
	p.clock += seconds
	p.computeTime += seconds
}

func (p *Proc) addInterval(kind IntervalKind, start, end float64) {
	if end <= start {
		return
	}
	// Merge adjacent intervals of the same kind to bound memory.
	if n := len(p.intervals); n > 0 && p.intervals[n-1].Kind == kind && p.intervals[n-1].End >= start-1e-12 {
		p.intervals[n-1].End = end
		return
	}
	p.intervals = append(p.intervals, Interval{Start: start, End: end, Kind: kind})
}

// Send transmits data to dst with a tag. bytes < 0 derives the size from
// the payload (8 bytes per element). The sender's clock advances by the
// software overhead plus the serialisation time; the message arrives at
// the receiver one link latency later.
func (p *Proc) Send(dst, tag int, data []float64, bytes float64) error {
	if dst == p.rank {
		return fmt.Errorf("mpi: rank %d sending to itself", p.rank)
	}
	if dst < 0 || dst >= p.Size() {
		return fmt.Errorf("mpi: rank %d sending to invalid rank %d", p.rank, dst)
	}
	if bytes < 0 {
		bytes = 8 * float64(len(data))
	}
	w := p.world
	total, err := w.fabric.TransferTime(w.placement[p.rank], w.placement[dst], bytes, w.sharing[p.rank])
	if err != nil {
		return fmt.Errorf("mpi: rank %d send: %w", p.rank, err)
	}
	start := p.clock
	arrival := start + sendOverheadSec + total
	// The sender is busy for the overhead plus serialisation; the trailing
	// wire latency overlaps with its next operation. Local (shared-memory)
	// copies complete synchronously.
	lat := 0.0
	if w.placement[p.rank] != w.placement[dst] {
		lat = w.fabric.LatencySec()
	}
	p.clock = arrival - lat
	p.commTime += p.clock - start
	p.addInterval(IntervalComm, start, p.clock)

	w.procs[dst].box.deliver(Message{Src: p.rank, Tag: tag, Data: data, Bytes: bytes, arrival: arrival})
	return nil
}

// Recv blocks until a message with the given source and tag arrives, then
// advances the clock to the later of the current time and the arrival.
func (p *Proc) Recv(src, tag int) (Message, error) {
	if src < 0 || src >= p.Size() || src == p.rank {
		return Message{}, fmt.Errorf("mpi: rank %d receiving from invalid rank %d", p.rank, src)
	}
	msg := p.box.take(src, tag)
	start := p.clock
	if msg.arrival > p.clock {
		p.clock = msg.arrival
	}
	p.commTime += p.clock - start
	p.addInterval(IntervalComm, start, p.clock)
	return msg, nil
}

// mailbox is a matching queue of in-flight messages.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []Message
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) deliver(m Message) {
	b.mu.Lock()
	b.msgs = append(b.msgs, m)
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *mailbox) take(src, tag int) Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i, m := range b.msgs {
			if m.Src == src && m.Tag == tag {
				b.msgs = append(b.msgs[:i], b.msgs[i+1:]...)
				return m
			}
		}
		b.cond.Wait()
	}
}
