package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []float64
	times := []float64{3, 1, 2, 1, 0, 5, 4}
	for _, at := range times {
		at := at
		if _, err := e.ScheduleAt(at, "ev", func(e *Engine) {
			got = append(got, at)
			if e.Now() != at {
				t.Errorf("clock %v at event scheduled for %v", e.Now(), at)
			}
		}); err != nil {
			t.Fatalf("ScheduleAt(%v): %v", at, err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Fatalf("executed %d events, want %d", len(got), len(times))
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := e.ScheduleAt(1.0, "same", func(*Engine) { got = append(got, i) }); err != nil {
			t.Fatalf("ScheduleAt: %v", err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := NewEngine()
	if _, err := e.ScheduleAt(5, "x", func(*Engine) {}); err != nil {
		t.Fatalf("ScheduleAt: %v", err)
	}
	if err := e.RunUntil(10); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if _, err := e.ScheduleAt(5, "past", func(*Engine) {}); err == nil {
		t.Fatal("scheduling in the past should fail")
	}
	if _, err := e.ScheduleAfter(-1, "neg", func(*Engine) {}); err == nil {
		t.Fatal("negative delay should fail")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	fired := false
	if _, err := e.ScheduleAt(2, "in", func(*Engine) { fired = true }); err != nil {
		t.Fatal(err)
	}
	late, err := e.ScheduleAt(20, "out", func(*Engine) { t.Error("event beyond horizon fired") })
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(10); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if !fired {
		t.Error("event within horizon did not fire")
	}
	if e.Now() != 10 {
		t.Errorf("clock = %v, want 10", e.Now())
	}
	late.Cancel()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	ev, err := e.ScheduleAt(1, "cancelled", func(*Engine) { t.Error("cancelled event fired") })
	if err != nil {
		t.Fatal(err)
	}
	ev.Cancel()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Executed() != 0 {
		t.Errorf("executed %d events, want 0", e.Executed())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		at := float64(i)
		if _, err := e.ScheduleAt(at, "n", func(e *Engine) {
			count++
			if count == 3 {
				e.Stop()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestEventScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var order []string
	if _, err := e.ScheduleAt(1, "first", func(e *Engine) {
		order = append(order, "first")
		if _, err := e.ScheduleAfter(1, "child", func(*Engine) { order = append(order, "child") }); err != nil {
			t.Errorf("child schedule: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "child" {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 2 {
		t.Fatalf("clock = %v, want 2", e.Now())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []float64
	tk, err := NewTicker(e, 0.5, 0.25, "tick", func(now float64) { ticks = append(ticks, now) })
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(1.5); err != nil {
		t.Fatal(err)
	}
	tk.Stop()
	if err := e.RunUntil(3.0); err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0.75, 1.0, 1.25, 1.5}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks[%d] = %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestTickerInvalidPeriod(t *testing.T) {
	e := NewEngine()
	if _, err := NewTicker(e, 0, 0, "bad", func(float64) {}); err == nil {
		t.Fatal("zero period should fail")
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk, err := NewTicker(e, 0, 1, "self-stop", func(float64) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

// Property: for any set of schedule times, execution order is a sorted
// permutation of the input.
func TestQueueOrderingProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		e := NewEngine()
		times := make([]float64, len(raw))
		for i, v := range raw {
			times[i] = float64(v) / 16.0
		}
		var got []float64
		for _, at := range times {
			at := at
			if _, err := e.ScheduleAt(at, "p", func(*Engine) { got = append(got, at) }); err != nil {
				return false
			}
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != len(times) {
			return false
		}
		sorted := append([]float64(nil), times...)
		sort.Float64s(sorted)
		for i := range sorted {
			if got[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: heap pop sequence equals sorted insert sequence even with
// interleaved pushes and pops.
func TestHeapInterleavedProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var q eventQueue
		var inFlight []float64
		var popped []float64
		seq := uint64(0)
		steps := int(n) + 10
		for i := 0; i < steps; i++ {
			if q.Len() == 0 || r.Intn(3) > 0 {
				at := float64(r.Intn(1000))
				q.Push(&Event{at: at, seq: seq})
				seq++
				inFlight = append(inFlight, at)
			} else {
				popped = append(popped, q.Pop().at)
			}
		}
		for q.Len() > 0 {
			popped = append(popped, q.Pop().at)
		}
		sort.Float64s(inFlight)
		// Popped sequence must be a permutation of pushed values; each pop
		// must return a value <= any value popped later among those present.
		if len(popped) != len(inFlight) {
			return false
		}
		cp := append([]float64(nil), popped...)
		sort.Float64s(cp)
		for i := range cp {
			if cp[i] != inFlight[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Stream("x").Float64() != b.Stream("x").Float64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	// Different names must give different draws (overwhelmingly likely).
	c := NewRNG(42)
	if c.Stream("x").Float64() == c.Stream("y").Float64() {
		t.Fatal("independent streams returned identical first draw")
	}
}

func TestRNGStreamIsolation(t *testing.T) {
	// Draws on stream "a" must not perturb stream "b".
	r1 := NewRNG(7)
	_ = r1.Stream("a").Float64()
	v1 := r1.Stream("b").Float64()

	r2 := NewRNG(7)
	for i := 0; i < 1000; i++ {
		_ = r2.Stream("a").Float64()
	}
	v2 := r2.Stream("b").Float64()
	if v1 != v2 {
		t.Fatal("stream b perturbed by draws on stream a")
	}
}

func TestCancelledEventsCompactEagerly(t *testing.T) {
	// Regression: Cancel used to leave dead entries in the heap until
	// their timestamp aged to the front, so long runs with many
	// Ticker.Stop / Event.Cancel calls grew the queue without bound and
	// Pending() over-reported.
	e := NewEngine()
	var events []Handle
	for i := 0; i < 1000; i++ {
		ev, err := e.ScheduleAt(float64(i+1), "ev", func(*Engine) {})
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if e.Pending() != 1000 {
		t.Fatalf("Pending = %d, want 1000", e.Pending())
	}
	for i, ev := range events {
		if i%2 == 0 {
			ev.Cancel()
		}
	}
	if e.Pending() != 500 {
		t.Fatalf("Pending after cancelling half = %d, want 500 (live events only)", e.Pending())
	}
	for _, ev := range events {
		ev.Cancel()
		ev.Cancel() // idempotent
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after cancelling all = %d, want 0", e.Pending())
	}
	// Cancelled events never fire and the clock still reaches the horizon.
	if err := e.RunUntil(2000); err != nil {
		t.Fatal(err)
	}
	if e.Executed() != 0 {
		t.Fatalf("cancelled events executed: %d", e.Executed())
	}

	// The reschedule-heavy pattern (cancel + schedule in a loop, as the
	// cluster watchdogs and ticker stops do) must keep the queue flat.
	var watch Handle
	for i := 0; i < 10000; i++ {
		watch.Cancel()
		ev, err := e.ScheduleAfter(float64(i%7+1), "watch", func(*Engine) {})
		if err != nil {
			t.Fatal(err)
		}
		watch = ev
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending after reschedule loop = %d, want 1", e.Pending())
	}
}

func TestCancelHeapOrderPreserved(t *testing.T) {
	// Removing from the middle of the heap must keep execution ordered.
	e := NewEngine()
	var got []float64
	times := []float64{9, 3, 7, 1, 8, 2, 6, 4, 5, 10}
	events := make(map[float64]Handle)
	for _, at := range times {
		at := at
		ev, err := e.ScheduleAt(at, "ev", func(*Engine) { got = append(got, at) })
		if err != nil {
			t.Fatal(err)
		}
		events[at] = ev
	}
	events[1].Cancel()
	events[7].Cancel()
	events[10].Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 4, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("executed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("executed %v, want %v", got, want)
		}
	}
}

// TestRunUntilRejectsNaNHorizon: a NaN horizon passes every ordered
// comparison, so without an explicit check RunUntil would run every
// pending event and leave the clock at NaN.
func TestRunUntilRejectsNaNHorizon(t *testing.T) {
	e := NewEngine()
	if _, err := e.ScheduleAt(1, "ev", func(*Engine) { t.Error("event ran under a NaN horizon") }); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(math.NaN()); err == nil {
		t.Fatal("RunUntil(NaN) accepted")
	}
	if e.Now() != 0 || e.Pending() != 1 {
		t.Errorf("after RunUntil(NaN): now = %v, pending = %d, want 0 and 1", e.Now(), e.Pending())
	}
}

// TestStopResume stops a run mid-way, checks Pending reports the live
// events only, resumes, and requires the final trace to match an
// uninterrupted run.
func TestStopResume(t *testing.T) {
	run := func(stopAt string) []string {
		e := NewEngine()
		var trace []string
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("ev%d", i)
			if _, err := e.ScheduleAt(float64(i)*0.01, name, func(en *Engine) {
				trace = append(trace, fmt.Sprintf("%s@%.3f", name, en.Now()))
				if name == stopAt {
					en.Stop()
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		if stopAt != "" {
			if err := e.Run(); err != ErrStopped {
				t.Fatalf("Run = %v, want ErrStopped", err)
			}
			if got := e.Pending(); got != 3 {
				t.Errorf("Pending after stop = %d, want 3 (ev3..ev5 live)", got)
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	want := run("")
	got := run("ev2")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("stop/resume trace diverged\nuninterrupted: %v\ngot:           %v", want, got)
	}
}

// TestStoppedRunDrainsTombstones: a callback cancels later events and
// stops the engine; Pending must then count live events only. The serial
// loop is the one-shard case, so the subtest keeps the "shards1" name.
func TestStoppedRunDrainsTombstones(t *testing.T) {
	t.Run("shards1", testStoppedRunDrainsTombstones)
}

func testStoppedRunDrainsTombstones(t *testing.T) {
	e := NewEngine()
	var doomed []Handle
	for i := 0; i < 4; i++ {
		ev, err := e.ScheduleAt(1+float64(i)*0.01, fmt.Sprintf("doomed%d", i), func(*Engine) {})
		if err != nil {
			t.Fatal(err)
		}
		doomed = append(doomed, ev)
	}
	survivor, err := e.ScheduleAt(5, "survivor", func(*Engine) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ScheduleAt(1, "killer", func(en *Engine) {
		for _, ev := range doomed {
			ev.Cancel()
		}
		en.Stop()
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if got := e.Pending(); got != 1 {
		t.Errorf("Pending after stop = %d, want 1 (only %q)", got, survivor.Name())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending after drain = %d, want 0", got)
	}
}

// TestRunUntilDrainsTombstonesAtHorizon: cancelling an event beyond the
// horizon from inside a run leaves no tombstone behind after exit.
func TestRunUntilDrainsTombstonesAtHorizon(t *testing.T) {
	e := NewEngine()
	late, err := e.ScheduleAt(10, "late", func(*Engine) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ScheduleAt(1, "canceller", func(*Engine) { late.Cancel() }); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending = %d, want 0", got)
	}
}

// TestRNGDeriveIndependence is the RNG-stream audit regression: a derived
// factory's streams are fully determined by (master seed, name) —
// independent of sibling derivations, of the order factories are derived,
// and of draws taken elsewhere.
func TestRNGDeriveIndependence(t *testing.T) {
	draw := func(r *RNG) float64 { return r.Stream("noise").Float64() }

	a := NewRNG(99)
	want := draw(a.Derive("c3"))

	// Different derivation order, extra siblings, interleaved parent draws.
	b := NewRNG(99)
	_ = draw(b.Derive("c7"))
	_ = b.Stream("other").Float64()
	_ = draw(b.Derive("c0"))
	if got := draw(b.Derive("c3")); got != want {
		t.Errorf("c3 stream = %v, want %v (must not depend on siblings or draws)", got, want)
	}

	// Distinct names see distinct streams.
	if draw(NewRNG(99).Derive("c4")) == want {
		t.Error("c3 and c4 drew identical values; streams must differ")
	}

	// Parent streams are unperturbed by derivation.
	p1 := NewRNG(42)
	v1 := p1.Stream("jitter").Float64()
	p2 := NewRNG(42)
	_ = p2.Derive("c1")
	_ = p2.Derive("c2")
	v2 := p2.Stream("jitter").Float64()
	if v1 != v2 {
		t.Errorf("parent stream perturbed by Derive: %v vs %v", v1, v2)
	}
}
