// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock measured in seconds since simulation
// start. Events are callbacks scheduled at absolute or relative virtual
// times and are executed in non-decreasing time order; events scheduled for
// the same instant run in scheduling order, which makes simulations fully
// deterministic and therefore reproducible in tests and benchmarks.
//
// All Monte Cimone subsystem models (power rails, thermal network, telemetry
// samplers, scheduler, boot sequencing) are driven by a single Engine so
// that their interleaving is well defined.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// ErrStopped is returned by Run when the simulation was stopped explicitly
// via Engine.Stop before reaching the requested horizon.
var ErrStopped = errors.New("sim: engine stopped")

// Event is a scheduled callback. The callback receives the engine so it can
// schedule follow-up events; it runs at exactly its scheduled virtual time.
//
// Events are pooled: once an event has fired (or been cancelled) the engine
// recycles its Event struct for a future schedule call, so the steady-state
// event churn of a long campaign allocates nothing. Callers therefore never
// hold *Event — every Schedule variant returns a generation-stamped Handle
// that turns into a no-op the moment its event completes and is recycled.
type Event struct {
	at     float64
	seq    uint64
	fn     func(*Engine)
	name   string
	period float64 // > 0 for recurring events (ScheduleEvery)

	cancelled bool
	eng       *Engine
	index     int    // heap index while queued, -1 otherwise
	gen       uint64 // bumped on recycle; handles bind to one generation
	free      bool   // sitting on the engine free list (reuse guard)
}

// At returns the virtual time (seconds) the event is scheduled for.
func (e *Event) At() float64 { return e.at }

// Name returns the diagnostic label given at scheduling time.
func (e *Event) Name() string { return e.name }

// cancel prevents a pending event from firing and removes it from the
// engine's queue immediately, so long runs that cancel many events (ticker
// stops, rescheduled watchdogs) do not accumulate dead heap entries. An
// event removed from the queue is recycled on the spot; the currently
// executing event is only marked — fire recycles it when its callback
// returns.
func (e *Event) cancel() {
	if e.cancelled {
		return
	}
	e.cancelled = true
	if e.index >= 0 {
		e.eng.queue.Remove(e.index)
		e.eng.release(e)
	}
}

// Handle is a cancellation token for one scheduled event (or, for
// ScheduleEvery, the whole recurring series). It is a value type binding
// the event pointer to the generation it was issued for: once the event
// fires or is cancelled the engine recycles the struct and bumps its
// generation, so a stale handle's Cancel is a guaranteed no-op — a reused
// Event can never be cancelled (or otherwise reached) through a handle to
// its previous life. The zero Handle is valid and refers to nothing.
type Handle struct {
	ev  *Event
	gen uint64
}

// Cancel prevents the handle's event from firing (for recurring events:
// ever again). Cancelling an event that already fired, was already
// cancelled, or a zero Handle is a no-op; Cancel is safe to call from
// within the event's own callback.
func (h Handle) Cancel() {
	if h.ev == nil || h.gen != h.ev.gen {
		return
	}
	h.ev.cancel()
}

// Scheduled reports whether the handle still refers to a live (pending or
// currently executing, not cancelled) event.
func (h Handle) Scheduled() bool {
	return h.ev != nil && h.gen == h.ev.gen && !h.ev.cancelled
}

// At returns the handle's event's scheduled virtual time (for recurring
// events: of the next occurrence), or 0 for a dead or zero handle.
func (h Handle) At() float64 {
	if !h.Scheduled() {
		return 0
	}
	return h.ev.at
}

// Name returns the handle's event's diagnostic label, or "" for a dead or
// zero handle.
func (h Handle) Name() string {
	if !h.Scheduled() {
		return ""
	}
	return h.ev.name
}

// Engine is a discrete-event simulator with a virtual clock.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     float64
	queue   eventQueue
	seq     uint64
	stopped bool

	executed uint64

	// freeList recycles fired and cancelled Events (see Event). Bounded by
	// the peak number of simultaneously live events, not by event churn.
	freeList []*Event
}

// alloc takes an Event off the free list, or heap-allocates the first time.
func (e *Engine) alloc() *Event {
	if n := len(e.freeList); n > 0 {
		ev := e.freeList[n-1]
		e.freeList[n-1] = nil
		e.freeList = e.freeList[:n-1]
		ev.free = false
		return ev
	}
	return &Event{eng: e}
}

// release recycles a completed (fired or cancelled-and-dequeued) Event:
// bumps its generation so outstanding Handles go stale, clears the fields
// that pin caller memory (the callback closure) and parks it on the
// free list. Exactly one release per event lifetime; the free flag guards
// the invariant.
func (e *Engine) release(ev *Event) {
	if ev.free {
		panic(fmt.Sprintf("sim: event %q released twice", ev.name))
	}
	ev.free = true
	ev.gen++
	ev.fn = nil
	ev.name = ""
	ev.period = 0
	ev.cancelled = false
	ev.index = -1
	e.freeList = append(e.freeList, ev)
}

// NewEngine returns an engine with the clock at t=0 and an empty queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Executed returns the number of events executed so far, a useful progress
// and determinism check.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of live events currently queued. Cancelled
// events are removed from the queue eagerly, so the count never includes
// dead events.
func (e *Engine) Pending() int { return e.queue.Len() }

// ScheduleAt registers fn to run at absolute virtual time at (seconds).
// Scheduling in the past is an error; scheduling at the current instant is
// allowed and runs after already-queued events for that instant.
func (e *Engine) ScheduleAt(at float64, name string, fn func(*Engine)) (Handle, error) {
	return e.schedule(at, 0, name, fn)
}

// ScheduleAfter registers fn to run delay seconds after the current time.
func (e *Engine) ScheduleAfter(delay float64, name string, fn func(*Engine)) (Handle, error) {
	if delay < 0 {
		return Handle{}, fmt.Errorf("sim: schedule %q: negative delay %v", name, delay)
	}
	return e.schedule(e.now+delay, 0, name, fn)
}

// ScheduleEvery registers fn to run at absolute virtual time start and then
// every period seconds until the returned handle is cancelled. The series
// reuses ONE Event, rescheduled in place after each occurrence, so a
// steady-state ticker allocates nothing per tick. Each occurrence takes a
// fresh sequence number AFTER the callback returns — exactly the order a
// callback that reschedules itself by hand would produce, so porting a
// self-rescheduling closure onto ScheduleEvery is trace-invariant.
func (e *Engine) ScheduleEvery(start, period float64, name string, fn func(*Engine)) (Handle, error) {
	if err := checkPeriod(name, period); err != nil {
		return Handle{}, err
	}
	return e.schedule(start, period, name, fn)
}

func checkPeriod(name string, period float64) error {
	if math.IsNaN(period) || math.IsInf(period, 0) || period <= 0 {
		return fmt.Errorf("sim: schedule %q: period must be positive, got %v", name, period)
	}
	return nil
}

func (e *Engine) schedule(at, period float64, name string, fn func(*Engine)) (Handle, error) {
	if math.IsNaN(at) || math.IsInf(at, 0) {
		return Handle{}, fmt.Errorf("sim: schedule %q: invalid time %v", name, at)
	}
	if at < e.now {
		return Handle{}, fmt.Errorf("sim: schedule %q: time %.9f is before now %.9f", name, at, e.now)
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.fn, ev.name, ev.period = at, e.seq, fn, name, period
	e.seq++
	e.queue.Push(ev)
	return Handle{ev: ev, gen: ev.gen}, nil
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// fire executes one popped event at its instant, then either recycles it
// or — for a live recurring event — reschedules it in place: advance at by
// the period, stamp the NEXT free sequence number (the callback's own
// scheduling activity comes first, preserving the exact order a
// self-rescheduling closure produced) and push the same struct back.
func (e *Engine) fire(ev *Event) {
	e.now = ev.at
	e.executed++
	ev.fn(e)
	if ev.period > 0 && !ev.cancelled {
		ev.at += ev.period
		ev.seq = e.seq
		e.seq++
		e.queue.Push(ev)
		return
	}
	e.release(ev)
}

// Step executes the single next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	e.fire(e.queue.Pop())
	return true
}

// RunUntil executes events in order until the queue is exhausted or the next
// event lies strictly beyond horizon; the clock is then advanced to horizon.
// It returns ErrStopped if Stop was called during execution.
func (e *Engine) RunUntil(horizon float64) error {
	if math.IsNaN(horizon) {
		return fmt.Errorf("sim: horizon is NaN")
	}
	if horizon < e.now {
		return fmt.Errorf("sim: horizon %.9f is before now %.9f", horizon, e.now)
	}
	e.stopped = false
	for e.queue.Len() > 0 && e.queue.Peek().at <= horizon {
		e.Step()
		if e.stopped {
			return ErrStopped
		}
	}
	e.now = horizon
	return nil
}

// Run executes all pending events (including ones scheduled while running)
// until the queue drains. It returns ErrStopped if Stop was called.
func (e *Engine) Run() error {
	e.stopped = false
	for e.Step() {
		if e.stopped {
			return ErrStopped
		}
	}
	return nil
}
