package examon

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// awkwardValues are the float64 bit patterns a lossless codec must keep:
// NaNs with payloads and either sign, ±Inf, ±0, subnormals and the
// extremes.
var awkwardValues = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff8_0000_dead_beef), // quiet NaN, payload
	math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
	math.Float64frombits(0xfff8_0000_0000_0042), // negative NaN
	math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff), // largest subnormal
	math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0.1, 1e-300, 1e300,
}

// randomPoints draws n points whose timestamps mostly step by a constant
// delta but also repeat, go backwards, change delta, or are NaN or
// infinite, and whose values mix awkward patterns, repeats, small steps
// and random bits.
func randomPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	t, dt := rng.Float64()*100, []float64{0.5, 0.1, 1, 2.5}[rng.Intn(4)]
	v := rng.NormFloat64()
	for i := range pts {
		pts[i].T = t
		switch r := rng.Intn(20); {
		case r == 0:
			t -= rng.Float64() * 10 // backwards
			pts[i].T = t
		case r == 1:
			dt = rng.Float64() // new delta
			t += dt
			pts[i].T = t
		case r == 2:
			pts[i].T = awkwardValues[rng.Intn(len(awkwardValues))]
		case r == 3:
			// repeat the previous timestamp
		default:
			t += dt
			pts[i].T = t
		}
		switch r := rng.Intn(10); {
		case r == 0:
			v = awkwardValues[rng.Intn(len(awkwardValues))]
		case r == 1:
			v = math.Float64frombits(rng.Uint64())
		case r < 5:
			// repeat
		default:
			v += float64(rng.Intn(100))
		}
		pts[i].V = v
	}
	return pts
}

// roundTrip encodes pts as one chunk and decodes them back.
func roundTrip(pts []Point) []Point {
	data := encodeChunk(nil, pts)
	var d chunkDecoder
	out := []Point{d.reset(data, pts[0].T)}
	for len(out) < len(pts) {
		out = append(out, d.next())
	}
	return out
}

// TestChunkRoundTripEveryLength: every chunk length from 1 to chunkCap
// decodes to its input bit for bit, over random awkward series.
func TestChunkRoundTripEveryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= chunkCap; n++ {
		for trial := 0; trial < 8; trial++ {
			pts := randomPoints(rng, n)
			if got := roundTrip(pts); !samePoints(got, pts) {
				t.Fatalf("n=%d trial %d: decoded %v, want %v", n, trial, got, pts)
			}
			if b := len(encodeChunk(nil, pts)); b > maxChunkBytes {
				t.Fatalf("n=%d: %d bytes, over the %d-byte bound", n, b, maxChunkBytes)
			}
		}
	}
	// Every awkward pair, both as times and as values.
	var pts []Point
	for _, a := range awkwardValues {
		for _, b := range awkwardValues {
			pts = append(pts, Point{T: a, V: b}, Point{T: b, V: a})
		}
	}
	for lo := 0; lo < len(pts); lo += chunkCap {
		chunk := pts[lo:min(lo+chunkCap, len(pts))]
		if got := roundTrip(chunk); !samePoints(got, chunk) {
			t.Fatalf("awkward pairs from %d: decoded %v, want %v", lo, got, chunk)
		}
	}
}

// TestChunkWorstCaseFitsBound: random timestamp bits miss the delta
// prediction every time, and value XORs alternating between two windows
// neither of which fits the other force a new window every time; the
// encoding still fits maxChunkBytes, which the byte slab reserves per
// seal.
func TestChunkWorstCaseFitsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]Point, chunkCap)
	var v uint64
	for i := range pts {
		v ^= []uint64{0x4000_0000_0000_0001, 0x8000_0000_0000_0002}[i%2]
		pts[i] = Point{T: math.Float64frombits(rng.Uint64()), V: math.Float64frombits(v)}
	}
	data := encodeChunk(nil, pts)
	if len(data) > maxChunkBytes || len(data) < maxChunkBytes-32 {
		t.Fatalf("%d bytes, want at most and near the %d-byte bound", len(data), maxChunkBytes)
	}
	if got := roundTrip(pts); !samePoints(got, pts) {
		t.Fatalf("decoded %v, want %v", got, pts)
	}
}

// TestChunkBoundaries: series of chunkCap-1, chunkCap, chunkCap+1 and
// 3*chunkCap points read back bit for bit, with the expected number of
// sealed chunks, and every cursor bound agrees with the linear filter.
func TestChunkBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{chunkCap - 1, chunkCap, chunkCap + 1, 3 * chunkCap} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			times := make([]float64, n)
			for i := range times {
				times[i] = 0.5 * float64(i)
			}
			st := NewMemStore()
			v := storeView(st, "m", times)
			want := pointsOf(times)
			if v.Len() != n || v.nsealed != (n-1)/chunkCap || !v.sorted {
				t.Fatalf("len %d sealed %d sorted %v, want %d, %d, true", v.Len(), v.nsealed, v.sorted, n, (n-1)/chunkCap)
			}
			if got := drain(v.all()); !samePoints(got, want) {
				t.Fatalf("stored %v, want %v", got, want)
			}
			for k := 0; k < 200; k++ {
				from := times[rng.Intn(n)] + []float64{0, 0.25, -0.25}[rng.Intn(3)]
				to := from + float64(rng.Intn(2*chunkCap))*0.25
				if got, w := drain(v.Cursor(from, to)), linearFilter(want, from, to); !samePoints(got, w) {
					t.Fatalf("[%v,%v): cursor %v, want %v", from, to, got, w)
				}
			}
		})
	}
}

// TestChunkStoreRandomized: random awkward series stored through several
// seals read back bit for bit, and the order flag is set exactly when the
// timestamps never decrease and hold no NaN.
func TestChunkStoreRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		pts := randomPoints(rng, 1+rng.Intn(5*chunkCap))
		if trial%2 == 0 { // half the series in time order
			for i := range pts {
				pts[i].T = float64(i) * 0.1
			}
		}
		st := NewMemStore()
		sorted := true
		for i, p := range pts {
			st.Insert(confTags(1, -1, "m"), p.T, p.V)
			if math.IsNaN(p.T) || (i > 0 && p.T < pts[i-1].T) {
				sorted = false
			}
		}
		v := st.snapshot(Filter{Metric: "m"}, false)[0].pts
		if v.sorted != sorted {
			t.Fatalf("trial %d: sorted = %v, want %v", trial, v.sorted, sorted)
		}
		if got := drain(v.all()); !samePoints(got, pts) {
			t.Fatalf("trial %d: stored %v, want %v", trial, got, pts)
		}
	}
}

// TestOutOfOrderInsertAcrossSeal: the first point after a seal is
// checked against the sealed chunk's last time, so a decrease there
// clears the order flag, and an in-order one keeps it.
func TestOutOfOrderInsertAcrossSeal(t *testing.T) {
	for _, c := range []struct {
		next   float64
		sorted bool
	}{{chunkCap, true}, {chunkCap - 1, true}, {chunkCap - 1.5, false}, {math.NaN(), false}} {
		st := NewMemStore()
		for i := 0; i < chunkCap; i++ {
			st.Insert(confTags(1, -1, "m"), float64(i), 0)
		}
		st.Insert(confTags(1, -1, "m"), c.next, 0) // seals the full open chunk first
		v := st.snapshot(Filter{Metric: "m"}, false)[0].pts
		if v.nsealed != 1 || len(v.open) != 1 || v.sorted != c.sorted {
			t.Errorf("next t=%v: sealed %d open %d sorted %v, want 1, 1, %v", c.next, v.nsealed, len(v.open), v.sorted, c.sorted)
		}
	}
}

// TestSealReusesUnviewedOpenChunk: a seal keeps the open chunk's buffer
// when no view holds it and carves a fresh one when a view does.
func TestSealReusesUnviewedOpenChunk(t *testing.T) {
	st := NewMemStore()
	fill := func(from int) {
		for i := from; i < from+chunkCap; i++ {
			st.Insert(confTags(1, -1, "m"), float64(i), float64(i))
		}
	}
	fill(0)
	s := st.order[0]
	buf := &s.open[:1][0]
	fill(chunkCap) // seals the first chunk, unviewed
	if &s.open[:1][0] != buf {
		t.Fatal("unviewed open chunk was not reused")
	}
	view := st.snapshot(Filter{}, false)[0].pts
	fill(2 * chunkCap) // seals the second chunk, viewed
	if &s.open[:1][0] == buf || cap(s.open) != chunkCap {
		t.Fatal("viewed open chunk was reused")
	}
	if got := drain(view.all()); len(got) != 2*chunkCap || got[chunkCap].T != chunkCap {
		t.Fatalf("view read %d points", len(got))
	}
}

// TestViewSurvivesSeals: views taken at every length before the first
// seal, and fresh views taken while a writer appends through later seals
// and open-chunk reuse, each read exactly the points stored when they
// were taken, also after a final run of seals that reuse the open
// chunk's buffer. One reader takes fresh views, which makes the next seal
// carve a new open chunk; the other only rereads the early views, so
// seals between fresh views reuse the open chunk's buffer. Under -race it
// is the regression net for the lock-free reads of sealed chunks and
// open-chunk prefixes.
func TestViewSurvivesSeals(t *testing.T) {
	const total = 8 * chunkCap
	point := func(i int) Point { return Point{T: 0.5 * float64(i), V: float64(i * i % 97)} }
	st := NewMemStore()
	tags := confTags(1, -1, "m")
	view := func() PointsView { return st.snapshot(Filter{}, false)[0].pts }
	var early []PointsView
	for i := 0; i < chunkCap; i++ {
		st.Insert(tags, point(i).T, point(i).V)
		early = append(early, view())
	}
	check := func(v PointsView) error {
		got := drain(v.all())
		if len(got) != v.Len() {
			return fmt.Errorf("view of %d points yielded %d", v.Len(), len(got))
		}
		for i, p := range got {
			if p != point(i) {
				return fmt.Errorf("view of %d points: point %d = %v, want %v", v.Len(), i, p, point(i))
			}
		}
		return nil
	}
	done := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(fresh bool) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				v := early[k%len(early)]
				if fresh {
					v = view()
				}
				if err := check(v); err != nil {
					errs <- err
					return
				}
				runtime.Gosched()
			}
		}(r == 0)
	}
	for i := chunkCap; i < total; i++ {
		st.Insert(tags, point(i).T, point(i).V)
		if i%16 == 0 {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// With no view taken after the last one, the first of these seals
	// carves a fresh open chunk and the later ones reuse its buffer.
	last := view()
	for i := total; i < total+3*chunkCap; i++ {
		st.Insert(tags, point(i).T, point(i).V)
	}
	for _, v := range append(early, last, view()) {
		if err := check(v); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzChunkRoundTrip: any sequence of up to chunkCap points, read as
// 16-byte (time, value) bit patterns, encodes within maxChunkBytes and
// decodes to itself bit for bit.
func FuzzChunkRoundTrip(f *testing.F) {
	enc := func(pts ...float64) []byte {
		var b []byte
		for _, x := range pts {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(enc(0, 1))
	f.Add(enc(0, 1, 0.5, 1, 1, 1, 1.5, 2))
	for _, a := range awkwardValues {
		f.Add(enc(a, a, 1, a, 2, -a, 3, a))
		f.Add(enc(0.5, a, 1, 0, 1.5, a, 0.5, a, math.NaN(), a))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/16, chunkCap)
		if n == 0 {
			return
		}
		pts := make([]Point, n)
		for i := range pts {
			pts[i].T = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			pts[i].V = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		}
		if b := len(encodeChunk(nil, pts)); b > maxChunkBytes {
			t.Fatalf("%d bytes, over the %d-byte bound", b, maxChunkBytes)
		}
		if got := roundTrip(pts); !samePoints(got, pts) {
			t.Fatalf("decoded %v, want %v", got, pts)
		}
	})
}

// BenchmarkChunkDecode reads a series of ten sealed chunks (and the one
// open point whose append sealed the last) through a cursor and reports
// the cost per point. The series is what telemetry stores: 1 s
// timestamps, which hit the delta prediction, and a slowly walking
// reading whose XORs mostly reuse their window.
func BenchmarkChunkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	st := NewMemStore()
	v := 4000.0
	for i := 0; i <= 10*chunkCap; i++ {
		v += float64(rng.Intn(21) - 10)
		st.Insert(confTags(1, -1, "power"), float64(i), v)
	}
	view := st.snapshot(Filter{Metric: "power"}, false)[0].pts
	if view.nsealed != 10 || len(view.open) != 1 {
		b.Fatalf("view holds %d sealed chunks and %d open points, want 10 and 1", view.nsealed, len(view.open))
	}
	b.ResetTimer()
	points := 0
	for i := 0; i < b.N; i++ {
		c := view.all()
		for _, ok := c.Next(); ok; _, ok = c.Next() {
			points++
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
}
