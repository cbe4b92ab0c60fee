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
// Messages carry only a byte count, which sets their transfer time.
//
// A World resolves entirely inside a workload's execution: the layer
// schedules no engine events of its own, and its timing law depends only on
// rank program order and the fabric model, never on node physics. Its
// effect reaches the engine only through the workload (mpi.pingpong's
// runtime estimate) that consumes its timings.
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

// Run executes fn once per rank, concurrently, and waits for all ranks.
// The first error (by rank order) is returned.
func (w *World) Run(fn func(*Proc) error) error {
	errs := make([]error, len(w.procs))
	var wg sync.WaitGroup
	for _, p := range w.procs {
		p.clock = 0
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

// Proc returns a rank, whose Now reads its final clock after Run.
func (w *World) Proc(rank int) *Proc { return w.procs[rank] }

// Proc is one MPI rank. Methods must only be called from the goroutine
// running the rank's function during World.Run.
type Proc struct {
	rank  int
	world *World
	box   *mailbox

	clock float64
}

// Rank returns this rank's index.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return len(p.world.procs) }

// Now returns the rank's virtual clock in seconds.
func (p *Proc) Now() float64 { return p.clock }

// Send transmits a message of the given size to dst with a tag. The
// sender's clock advances by the software overhead plus the serialisation
// time; the message arrives at the receiver one link latency later.
func (p *Proc) Send(dst, tag int, bytes float64) error {
	if dst == p.rank {
		return fmt.Errorf("mpi: rank %d sending to itself", p.rank)
	}
	if dst < 0 || dst >= p.Size() {
		return fmt.Errorf("mpi: rank %d sending to invalid rank %d", p.rank, dst)
	}
	w := p.world
	total, err := w.fabric.TransferTime(w.placement[p.rank], w.placement[dst], bytes, w.sharing[p.rank])
	if err != nil {
		return fmt.Errorf("mpi: rank %d send: %w", p.rank, err)
	}
	arrival := p.clock + sendOverheadSec + total
	// The sender is busy for the overhead plus serialisation; the trailing
	// wire latency overlaps with its next operation. Local (shared-memory)
	// copies complete synchronously.
	lat := 0.0
	if w.placement[p.rank] != w.placement[dst] {
		lat = w.fabric.LatencySec()
	}
	p.clock = arrival - lat

	w.procs[dst].box.deliver(Message{Src: p.rank, Tag: tag, Bytes: bytes, arrival: arrival})
	return nil
}

// Recv blocks until a message with the given source and tag arrives, then
// advances the clock to the later of the current time and the arrival.
func (p *Proc) Recv(src, tag int) (Message, error) {
	if src < 0 || src >= p.Size() || src == p.rank {
		return Message{}, fmt.Errorf("mpi: rank %d receiving from invalid rank %d", p.rank, src)
	}
	msg := p.box.take(src, tag)
	if msg.arrival > p.clock {
		p.clock = msg.arrival
	}
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
