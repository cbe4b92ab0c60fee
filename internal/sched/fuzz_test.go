package sched

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"montecimone/internal/sim"
)

// Operations of a FuzzSchedulerMatchesLinearScan input, one byte each,
// followed by their arguments.
const (
	fuzzSubmit  = iota // node count byte, time limit, duration (see fuzzInput.time)
	fuzzCancel         // job id byte
	fuzzDown           // node byte
	fuzzUp             // node byte
	fuzzAdvance        // seconds byte
	fuzzOps
)

// fuzzInput decodes a fuzzer's bytes; past the end it reads zeros.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// time reads a job time: a tag byte below 0xF0 is that many seconds
// (small whole numbers, so limits and release instants tie), and any other
// tag is followed by eight bytes of raw float64 bits (NaN, infinities,
// subnormals, negatives, values near the float64 limit).
func (in *fuzzInput) time() float64 {
	if tag := in.next(); tag < 0xF0 {
		return float64(tag)
	}
	var raw [8]byte
	for i := range raw {
		raw[i] = in.next()
	}
	return math.Float64frombits(binary.BigEndian.Uint64(raw[:]))
}

// fuzzTime encodes v as fuzzInput.time reads it back.
func fuzzTime(v float64) []byte {
	return binary.BigEndian.AppendUint64([]byte{0xFF}, math.Float64bits(v))
}

// FuzzSchedulerMatchesLinearScan runs one operation sequence on the
// default scheduler and on the WithLinearScan reference: the first byte
// picks the policy (powercap runs on a fakeAdvisor whose gate bites and
// whose temperatures tie), the second a partition of 1–130 nodes, and the
// rest submissions, cancels, node failures, recoveries and clock
// advances. After every operation both must agree on what Submit and
// Cancel accepted, allocate no node twice, keep the free set's count
// equal to the idle nodes sinfo lists, and keep squeue's pending rows in
// stable-sorted priority order; at the end their sacct rows must be
// equal. Advances are at most 255 s, so the clock stays far below where a
// start plus a finite wall limit could overflow (see JobSpec.TimeLimit).
func FuzzSchedulerMatchesLinearScan(f *testing.F) {
	submit := func(nodes byte, limit, duration float64) []byte {
		op := append([]byte{fuzzSubmit, nodes}, fuzzTime(limit)...)
		return append(op, fuzzTime(duration)...)
	}
	// Wide blockers, backfill candidates with tied limits (whole-second
	// tags), a failure under running jobs and its recovery, and a cancel.
	// Per policy: wide blockers, backfill candidates with tied limits
	// (whole-second tags), a failure under running jobs, a cancel and the
	// node's recovery.
	for policy := range PolicyNames() {
		seed := append([]byte{byte(policy), 15}, submit(6, 60, 50)...)
		seed = append(seed, submit(16, 90, 80)...)
		seed = append(seed, fuzzSubmit, 3, 30, 20, fuzzSubmit, 2, 30, 30, fuzzSubmit, 5, 30, 40,
			fuzzAdvance, 10, fuzzDown, 1, fuzzAdvance, 5,
			fuzzSubmit, 1, 20, 10, fuzzCancel, 2, fuzzUp, 1, fuzzAdvance, 100)
		f.Add(seed)
	}
	// Non-finite and extreme times, which Submit must reject or carry.
	extreme := []byte{2, 7}
	for _, times := range [][2]float64{{math.NaN(), 1}, {math.Inf(1), 1}, {1, math.Inf(1)},
		{math.MaxFloat64, math.MaxFloat64}, {5e-324, 0}, {10, 1}} {
		extreme = append(extreme, submit(3, times[0], times[1])...)
	}
	f.Add(append(extreme, fuzzAdvance, 3, fuzzDown, 0, fuzzAdvance, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		name := PolicyNames()[int(in.next())%len(PolicyNames())]
		n := 1 + int(in.next())%130
		type side struct {
			e *sim.Engine
			s *Scheduler
		}
		build := func(opts ...Option) side {
			policy, err := PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			adv := &fakeAdvisor{perNodeW: 1, headroomW: float64(n / 2), temps: map[int]float64{}}
			for i := 0; i < n; i++ {
				adv.temps[i] = 40 + float64((i*7)%5)
			}
			e := sim.NewEngine()
			s, err := New(e, hosts(n), append(opts, WithPolicy(policy), WithPowerAdvisor(adv))...)
			if err != nil {
				t.Fatal(err)
			}
			return side{e, s}
		}
		indexed, linear := build(), build(WithLinearScan(true))
		both := func(op func(side) error) {
			errIndexed, errLinear := op(indexed), op(linear)
			if (errIndexed == nil) != (errLinear == nil) {
				t.Fatalf("indexed error %v, linear error %v", errIndexed, errLinear)
			}
		}
		for len(in) > 0 {
			switch op := in.next() % fuzzOps; op {
			case fuzzSubmit:
				spec := JobSpec{Name: "f", Nodes: int(in.next()) % (n + 2), TimeLimit: in.time(), Duration: in.time()}
				both(func(x side) error { _, err := x.s.Submit(spec); return err })
			case fuzzCancel:
				id := int(in.next())
				both(func(x side) error { return x.s.Cancel(id) })
			case fuzzDown, fuzzUp:
				i := int(in.next()) % n
				both(func(x side) error {
					if op == fuzzDown {
						x.s.NodeDown(i)
					} else {
						x.s.NodeUp(i)
					}
					return nil
				})
			case fuzzAdvance:
				dt := float64(in.next())
				both(func(x side) error { return x.e.RunUntil(x.e.Now() + dt) })
			}
			for _, x := range []side{indexed, linear} {
				checkAllocations(t, x.s)
				checkQueueOrder(t, x.s)
			}
		}
		if a, b := indexed.s.Sacct(), linear.s.Sacct(); !reflect.DeepEqual(a, b) {
			t.Fatalf("sacct differs:\nindexed %+v\nlinear  %+v", a, b)
		}
	})
}

// checkAllocations fails if a node is in two running jobs' allocations,
// or if the free set's count differs from the idle nodes sinfo lists.
func checkAllocations(t *testing.T, s *Scheduler) {
	t.Helper()
	owner := make(map[int]int)
	for _, j := range s.jobs {
		if j.state != StateRunning {
			continue
		}
		for _, i := range j.nodes {
			if other, taken := owner[i]; taken {
				t.Fatalf("node %d allocated to jobs %d and %d", i, other, j.ID)
			}
			owner[i] = j.ID
		}
	}
	idle := 0
	for _, row := range s.Sinfo() {
		if row.State == NodeIdle {
			idle++
		}
	}
	if s.free.Len() != idle {
		t.Fatalf("free set holds %d nodes, sinfo lists %d idle", s.free.Len(), idle)
	}
}
