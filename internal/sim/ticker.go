package sim

// Ticker invokes a callback at a fixed virtual-time period until stopped.
// It is the building block for telemetry samplers (shunt monitors at 1 kHz,
// pmu_pub at 2 Hz, stats_pub at 0.2 Hz).
//
// A Ticker is a thin adapter over the engine's recurring-timer API
// (ScheduleEvery): one Event is scheduled at construction and rescheduled
// in place after every tick, so steady-state ticking allocates nothing.
// Tick times accumulate as at += period from the start instant — the same
// arithmetic the historical self-rescheduling implementation performed —
// so traces are byte-identical to it and drift-free.
type Ticker struct {
	h Handle
}

// NewTicker schedules fn every period seconds starting at start (absolute
// virtual time). The callback receives the tick's virtual time.
func NewTicker(engine *Engine, start, period float64, name string, fn func(now float64)) (*Ticker, error) {
	h, err := engine.ScheduleEvery(start, period, name, func(e *Engine) { fn(e.Now()) })
	if err != nil {
		return nil, err
	}
	return &Ticker{h: h}, nil
}

// Stop cancels future ticks. Safe to call multiple times and from within
// the tick callback itself.
func (t *Ticker) Stop() { t.h.Cancel() }
