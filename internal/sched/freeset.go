package sched

import "math/bits"

// IdleSet is a read-only view of the scheduler's idle nodes in ascending
// partition order, handed to Policy.PickHosts. The view is live: a node
// that a policy's own reads take down (a power-aware policy's temperature
// read may fire a halt) leaves it at once.
type IdleSet interface {
	// Len returns the number of idle nodes.
	Len() int
	// Has reports whether the node at partition index i is idle.
	Has(i int) bool
	// First returns the min(k, Len()) lowest idle partition indexes,
	// ascending, in a new slice the caller owns.
	First(k int) []int
	// Last returns the min(k, Len()) highest idle partition indexes,
	// ascending, in a new slice the caller owns.
	Last(k int) []int
	// AppendAll appends every idle partition index, ascending, to dst and
	// returns the extended slice.
	AppendAll(dst []int) []int
}

// freeSet is the scheduler's idle node set: the view the policies read
// plus the updates the node life cycle makes.
type freeSet interface {
	IdleSet
	// Add records that the node at partition index i became idle. Adding
	// an idle node does nothing.
	Add(i int)
	// Remove records that the node at partition index i left the idle
	// set. Removing a node that is not idle does nothing.
	Remove(i int)
}

// bitsetFree keeps one bit per partition index, set while the node is
// idle, plus the number of set bits, as SLURM keeps its node bitmaps.
// Len, Has, Add and Remove are O(1); First and Last walk the words from
// either end and pay one bit scan per index they return.
type bitsetFree struct {
	words []uint64
	n     int // set bits
}

// newBitsetFree returns the set holding every index of an n-node
// partition.
func newBitsetFree(n int) *bitsetFree {
	f := &bitsetFree{words: make([]uint64, (n+63)/64), n: n}
	for w := range f.words {
		f.words[w] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		f.words[len(f.words)-1] = 1<<r - 1
	}
	return f
}

func (f *bitsetFree) Len() int { return f.n }

func (f *bitsetFree) Has(i int) bool { return f.words[i>>6]&(1<<(i&63)) != 0 }

func (f *bitsetFree) Add(i int) {
	if w, b := &f.words[i>>6], uint64(1)<<(i&63); *w&b == 0 {
		*w |= b
		f.n++
	}
}

func (f *bitsetFree) Remove(i int) {
	if w, b := &f.words[i>>6], uint64(1)<<(i&63); *w&b != 0 {
		*w &^= b
		f.n--
	}
}

func (f *bitsetFree) First(k int) []int {
	out := make([]int, 0, min(k, f.n))
	for w, word := range f.words {
		for ; word != 0 && len(out) < cap(out); word &= word - 1 {
			out = append(out, w*64+bits.TrailingZeros64(word))
		}
		if len(out) == cap(out) {
			break
		}
	}
	return out
}

func (f *bitsetFree) Last(k int) []int {
	out := make([]int, min(k, f.n))
	j := len(out)
	for w := len(f.words) - 1; w >= 0 && j > 0; w-- {
		for word := f.words[w]; word != 0 && j > 0; {
			b := 63 - bits.LeadingZeros64(word)
			word &^= 1 << b
			j--
			out[j] = w*64 + b
		}
	}
	return out
}

func (f *bitsetFree) AppendAll(dst []int) []int {
	for w, word := range f.words {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w*64+bits.TrailingZeros64(word))
		}
	}
	return dst
}

// linearFree reproduces the seed scheduler's O(nodes) full-partition
// rescan on every query. It is the reference the bitset is tested
// against and the ablation baseline for the throughput benchmarks (see
// WithLinearScan).
type linearFree struct{ s *Scheduler }

func (f *linearFree) Len() int { return len(f.AppendAll(nil)) }

func (f *linearFree) Has(i int) bool { return f.s.nodes[i].state == NodeIdle }

func (f *linearFree) First(k int) []int {
	idle := f.AppendAll(nil)
	return idle[:min(k, len(idle))]
}

func (f *linearFree) Last(k int) []int {
	idle := f.AppendAll(nil)
	return idle[len(idle)-min(k, len(idle)):]
}

func (f *linearFree) AppendAll(dst []int) []int {
	for i, ni := range f.s.nodes {
		if ni.state == NodeIdle {
			dst = append(dst, i)
		}
	}
	return dst
}

func (f *linearFree) Add(int) {}

func (f *linearFree) Remove(int) {}
