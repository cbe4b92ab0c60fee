package examon

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Encoded chunks: a series stores its points as a chain of sealed chunks
// of exactly chunkCap points each, encoded Gorilla-style (Pelkonen et
// al., VLDB 2015), plus one raw open chunk that takes appends. Both
// encodings are lossless for every float64 bit pattern — NaN payloads,
// ±Inf, −0, subnormals, and timestamps that go backwards:
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
// bit first.

// chunkCap is the number of points in every sealed chunk.
const chunkCap = 128

// maxChunkBytes bounds one encoded chunk: a raw first value, then per
// point a raw timestamp (1+64 bits) and a new-window value (2+5+6+64).
const maxChunkBytes = (64 + (chunkCap-1)*(1+64+2+5+6+64) + 7) / 8

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

// bitReader reads what bitWriter wrote, a 64-bit word at a time.
type bitReader struct {
	b     []byte // bytes not yet loaded
	buf   uint64 // loaded bits, right-aligned
	valid uint   // unread bits in buf
}

// load replaces the (fully read) buffer with the next word, or with the
// last bytes of the stream.
func (r *bitReader) load() {
	if len(r.b) >= 8 {
		r.buf = binary.BigEndian.Uint64(r.b)
		r.b = r.b[8:]
		r.valid = 64
		return
	}
	r.buf, r.valid = 0, 0
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

// encodeChunk appends the encoding of pts (at least one point) to dst;
// the first timestamp is not written, the chunk header carries it.
func encodeChunk(dst []byte, pts []Point) []byte {
	w := bitWriter{b: dst}
	t, dt := pts[0].T, 0.0
	v := math.Float64bits(pts[0].V)
	w.write(v, 64)
	lead, trail := uint(64), uint(0) // no window yet: lead > 31 never fits
	for _, p := range pts[1:] {
		if math.Float64bits(t+dt) == math.Float64bits(p.T) {
			w.write(0, 1)
		} else {
			w.write(1, 1)
			w.write(math.Float64bits(p.T), 64)
		}
		dt, t = p.T-t, p.T

		x := math.Float64bits(p.V) ^ v
		v ^= x
		if x == 0 {
			w.write(0, 1)
			continue
		}
		l := min(uint(bits.LeadingZeros64(x)), 31)
		tr := uint(bits.TrailingZeros64(x))
		if l >= lead && tr >= trail {
			w.write(0b10, 2)
			w.write(x>>trail, 64-lead-trail)
			continue
		}
		lead, trail = l, tr
		sig := 64 - l - tr
		w.write(0b11, 2)
		w.write(uint64(l), 5)
		w.write(uint64(sig-1), 6)
		w.write(x>>tr, sig)
	}
	return w.flush()
}

// chunkDecoder yields an encoded chunk's points in order. The caller
// counts the points: it never asks for more than were encoded.
type chunkDecoder struct {
	r           bitReader
	t, dt       float64
	v           uint64
	lead, trail uint
}

// reset starts decoding data, whose first point has time firstT, and
// returns that first point.
func (d *chunkDecoder) reset(data []byte, firstT float64) Point {
	*d = chunkDecoder{r: bitReader{b: data}, t: firstT}
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

// chunkArena holds the store-wide slabs that sealed chunks, their headers
// and re-issued open chunks are carved from. Guarded by the store's write
// lock.
type chunkArena struct {
	bytes   slab[byte]
	headers slab[sealedChunk]
	points  slab[Point]
}

func newChunkArena() chunkArena {
	return chunkArena{
		bytes:   slab[byte]{minLen: 16 << 10, maxLen: 1 << 20},
		headers: slab[sealedChunk]{minLen: 64, maxLen: 16 << 10},
		points:  slab[Point]{minLen: 4 * chunkCap, maxLen: 256 * chunkCap},
	}
}

// seal encodes a full open chunk into the byte slab and returns its
// header, carved from the header slab.
func (a *chunkArena) seal(pts []Point) *sealedChunk {
	room := a.bytes.room(maxChunkBytes)
	data := encodeChunk(room[:0], pts)
	a.bytes.free = room[len(data):]
	h := &a.headers.carve(1)[0]
	*h = sealedChunk{firstT: pts[0].T, lastT: pts[len(pts)-1].T, data: data[:len(data):len(data)]}
	return h
}
