package examon

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Encoded chunks: a series stores its points as a chain of sealed chunks
// of exactly chunkCap points each plus one open chunk that takes appends,
// all encoded Gorilla-style (Pelkonen et al., VLDB 2015) as the points
// arrive. The encoding is lossless for every float64 bit pattern — NaN
// payloads, ±Inf, −0, subnormals, and timestamps that go backwards:
//
//   - The chunk header records the first and last timestamp. The first
//     point's time is the header's; every later time costs one 0 bit when
//     it equals, bit for bit, the previous time plus the previous delta
//     (both computed in float64, exactly as the decoder will), and a 1 bit
//     plus the 64 raw bits otherwise.
//   - The first value is stored raw. Every later value is XORed with its
//     predecessor: a zero XOR costs one 0 bit; otherwise a 1 bit, then a
//     0 bit and the XOR's meaningful bits when they fit the previous
//     leading/trailing-zero window, or a 1 bit, 5 bits of leading zeros,
//     6 bits of meaningful-bit count minus one, and the meaningful bits.
//
// Bits are written and read a 64-bit word at a time, most significant
// bit first. The open chunk keeps its whole words in a heap buffer that
// appends only extend and its pending bits in the encoder; a seal copies
// the chunk into the store's byte slab at its exact length.

// chunkCap is the number of points in every sealed chunk.
const chunkCap = 128

// sealedChunk is one encoded chunk of chunkCap points. Nothing in it
// changes once it is linked into its series, except next on the series'
// last chunk, which the seal of the following chunk sets; a view never
// reads next past its own last chunk.
type sealedChunk struct {
	firstT, lastT float64
	data          []byte // carved from the store's byte slab
	next          *sealedChunk
}

// bitWriter appends bits to b, a 64-bit word at a time.
type bitWriter struct {
	b   []byte
	acc uint64 // pending bits, right-aligned
	n   uint   // pending bit count, < 64
}

// write appends the low k bits of v (1 <= k <= 64; v < 2^k).
func (w *bitWriter) write(v uint64, k uint) {
	if w.n+k < 64 {
		w.acc = w.acc<<k | v
		w.n += k
		return
	}
	rest := k - (64 - w.n) // bits of v that spill into the next word
	w.b = binary.BigEndian.AppendUint64(w.b, w.acc<<(64-w.n)|v>>rest)
	w.acc = v & (1<<rest - 1)
	w.n = rest
}

// flush appends the pending bits, zero-padded to a whole byte, and
// returns the encoded bytes.
func (w *bitWriter) flush() []byte {
	word := w.acc << (64 - w.n)
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.b = append(w.b, byte(word>>56))
		word <<= 8
	}
	return w.b
}

// bitReader reads what bitWriter wrote, a 64-bit word at a time: a
// sealed chunk's bytes, or an open chunk's whole words followed by its
// pending bits, which a view copied out of the encoder.
type bitReader struct {
	b     []byte // bytes not yet loaded
	buf   uint64 // loaded bits, right-aligned
	valid uint   // unread bits in buf
	last  uint64 // an open chunk's pending bits, right-aligned, read after b
	nlast uint   // count of those bits
}

// load replaces the (fully read) buffer with the next word, or with what
// follows the last word: a sealed chunk's last bytes or an open chunk's
// pending bits. An open chunk's words are whole, so only one of the two
// is ever there, and nothing is read after it.
func (r *bitReader) load() {
	if len(r.b) >= 8 {
		r.buf = binary.BigEndian.Uint64(r.b)
		r.b = r.b[8:]
		r.valid = 64
		return
	}
	r.buf, r.valid = r.last, r.nlast
	for _, c := range r.b {
		r.buf = r.buf<<8 | uint64(c)
		r.valid += 8
	}
	r.b = nil
}

// bit reads one bit.
func (r *bitReader) bit() bool {
	if r.valid == 0 {
		r.load()
	}
	r.valid--
	return r.buf>>r.valid&1 == 1
}

// read reads k bits (1 <= k <= 64).
func (r *bitReader) read(k uint) uint64 {
	if k <= r.valid {
		r.valid -= k
		return r.buf >> r.valid &^ (^uint64(0) << k)
	}
	return r.readAcross(k)
}

// readAcross reads k bits that run past the loaded word.
func (r *bitReader) readAcross(k uint) uint64 {
	hi := r.buf & (1<<r.valid - 1)
	need := k - r.valid
	r.load()
	r.valid -= need
	return hi<<need | r.buf>>r.valid&(1<<need-1)
}

// chunkEncoder encodes one chunk a point at a time: w holds the bits
// written so far, the other fields the state the next point is encoded
// against. It is the only encoder: a series' open chunk is one, and a
// seal flushes it.
type chunkEncoder struct {
	w             bitWriter
	firstT, t, dt float64
	v             uint64 // the last value's bits
	lead, trail   uint   // the XOR window; lead 64 (no window yet) never fits
	n             int    // points encoded
}

// add encodes one point: the first value raw (the first time goes to the
// chunk header), every later point against its predecessor.
func (e *chunkEncoder) add(t, v float64) {
	vb := math.Float64bits(v)
	if e.n++; e.n == 1 {
		e.firstT, e.t, e.dt, e.v = t, t, 0, vb
		e.lead, e.trail = 64, 0
		e.w.write(vb, 64)
		return
	}
	if math.Float64bits(e.t+e.dt) == math.Float64bits(t) {
		e.w.write(0, 1)
	} else {
		e.w.write(1, 1)
		e.w.write(math.Float64bits(t), 64)
	}
	e.dt, e.t = t-e.t, t

	x := vb ^ e.v
	e.v = vb
	if x == 0 {
		e.w.write(0, 1)
		return
	}
	l := min(uint(bits.LeadingZeros64(x)), 31)
	tr := uint(bits.TrailingZeros64(x))
	if l >= e.lead && tr >= e.trail {
		e.w.write(0b10, 2)
		e.w.write(x>>e.trail, 64-e.lead-e.trail)
		return
	}
	e.lead, e.trail = l, tr
	sig := 64 - l - tr
	e.w.write(0b11, 2)
	e.w.write(uint64(l), 5)
	e.w.write(uint64(sig-1), 6)
	e.w.write(x>>tr, sig)
}

// chunkDecoder yields an encoded chunk's points in order. The caller
// counts the points: it never asks for more than were encoded.
type chunkDecoder struct {
	r           bitReader
	t, dt       float64
	v           uint64
	lead, trail uint
}

// reset starts decoding the chunk r reads, whose first point has time
// firstT, and returns that first point.
func (d *chunkDecoder) reset(r bitReader, firstT float64) Point {
	*d = chunkDecoder{r: r, t: firstT}
	d.v = d.r.read(64)
	return Point{T: firstT, V: math.Float64frombits(d.v)}
}

// next decodes the point after the last one returned.
func (d *chunkDecoder) next() Point {
	t := d.t + d.dt
	if d.r.bit() {
		t = math.Float64frombits(d.r.read(64))
	}
	d.dt, d.t = t-d.t, t
	if d.r.bit() {
		if d.r.bit() {
			d.lead = uint(d.r.read(5))
			d.trail = 64 - d.lead - uint(d.r.read(6)) - 1
		}
		d.v ^= d.r.read(64-d.lead-d.trail) << d.trail
	}
	return Point{T: t, V: math.Float64frombits(d.v)}
}

// slab hands out pieces of large shared blocks, so that many small,
// never-freed allocations cost one allocation per block. A piece is
// never handed out twice, so whoever holds one may keep reading it while
// later pieces are carved and written. Block lengths double from minLen
// to maxLen, which keeps small stores small.
type slab[T any] struct {
	free           []T
	next           int // length of the next block
	minLen, maxLen int
}

// room returns the unused rest of the current block, starting a new
// block first when fewer than n elements remain.
func (s *slab[T]) room(n int) []T {
	if len(s.free) < n {
		s.next = min(max(s.next, s.minLen), s.maxLen)
		s.free = make([]T, max(s.next, n))
		s.next *= 2
	}
	return s.free
}

// carve hands out the next n elements, with capacity n.
func (s *slab[T]) carve(n int) []T {
	r := s.room(n)
	s.free = r[n:]
	return r[:n:n]
}

// chunkArena holds the store-wide slabs that sealed chunks and their
// headers are carved from. Guarded by the store's write lock.
type chunkArena struct {
	bytes   slab[byte]
	headers slab[sealedChunk]
}

func newChunkArena() chunkArena {
	return chunkArena{
		bytes:   slab[byte]{minLen: 16 << 10, maxLen: 1 << 20},
		headers: slab[sealedChunk]{minLen: 64, maxLen: 16 << 10},
	}
}

// seal flushes an open chunk's encoder into the byte slab, at the
// encoding's exact length, and returns its header, carved from the header
// slab. The encoder's own buffer is not written: views may hold it.
func (a *chunkArena) seal(e *chunkEncoder) *sealedChunk {
	room := a.bytes.room(len(e.w.b) + 8)
	w := e.w
	w.b = append(room[:0], e.w.b...)
	data := w.flush()
	a.bytes.free = room[len(data):]
	h := &a.headers.carve(1)[0]
	*h = sealedChunk{firstT: e.firstT, lastT: e.t, data: data[:len(data):len(data)]}
	return h
}
