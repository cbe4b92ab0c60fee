// Package perf models the RISC-V hardware performance monitoring (HPM) unit
// of the SiFive Freedom U740 as exposed through the Linux perf_events
// interface.
//
// In the kernel version deployed on Monte Cimone the RISC-V architecture
// exposes only the fixed INSTRET and CYCLE counters through perf_events;
// the programmable HPM counters are disabled at boot time by default. The
// paper's authors developed a U-Boot patch that enables and programs all
// counters — modelled here by the HPMEnabled construction flag, which the
// node's boot loader sets when the patch is applied.
package perf

import "fmt"

// Event identifies a hardware counter event.
type Event int

// Counter events. Instret and Cycle are the fixed counters always exposed
// by the kernel; the remainder live on programmable HPM counters and
// require the U-Boot patch.
const (
	EventInstret Event = iota + 1
	EventCycle
	EventL2Miss
	EventDDRRead
	EventDDRWrite
	EventBranchMiss
)

// String returns the perf-style event name.
func (ev Event) String() string {
	switch ev {
	case EventInstret:
		return "instret"
	case EventCycle:
		return "cycle"
	case EventL2Miss:
		return "l2_miss"
	case EventDDRRead:
		return "ddr_read"
	case EventDDRWrite:
		return "ddr_write"
	case EventBranchMiss:
		return "branch_miss"
	default:
		return fmt.Sprintf("Event(%d)", int(ev))
	}
}

// FixedEvents are always available; ProgrammableEvents require the HPM
// boot-loader patch.
var (
	FixedEvents        = []Event{EventInstret, EventCycle}
	ProgrammableEvents = []Event{EventL2Miss, EventDDRRead, EventDDRWrite, EventBranchMiss}
)

// Fixed reports whether the event lives on a fixed counter.
func (ev Event) Fixed() bool { return ev == EventInstret || ev == EventCycle }

// Load describes the demand a workload places on the core complex, used to
// advance the counters.
type Load struct {
	// CoreActivity is the fraction of issue slots kept busy, in [0,1].
	CoreActivity float64
	// DDRReadBytesPerSec and DDRWriteBytesPerSec are main-memory traffic.
	DDRReadBytesPerSec  float64
	DDRWriteBytesPerSec float64
	// ClockScale is the DVFS frequency scale in (0,1]; zero means full
	// frequency.
	ClockScale float64
}

// ErrHPMDisabled is returned when reading a programmable counter on a PMU
// whose boot loader did not apply the counter-enable patch.
var ErrHPMDisabled = fmt.Errorf("perf: programmable HPM counters disabled at boot (U-Boot patch not applied)")

// PMU models the per-hart counter state of one SoC.
type PMU struct {
	clockHz    float64
	issueWidth float64
	lineBytes  float64
	hpmEnabled bool

	// Advance spreads every load evenly over the harts, so all harts
	// always hold identical counts: one accumulator serves them all.
	harts  int
	counts [numEvents]uint64
	frac   [numEvents]float64 // fractional accumulation between ticks
}

// numEvents sizes the accumulator arrays: events are small consecutive
// constants (1..EventBranchMiss) indexed directly, which keeps Advance,
// called on every node integration substep, free of map hashing.
const numEvents = int(EventBranchMiss) + 1

// NewPMU builds a PMU for a core complex with the given hart count and
// clock. issueWidth is the peak instructions per cycle (2 for the
// dual-issue U74); hpmEnabled reflects the U-Boot patch.
func NewPMU(harts int, clockHz, issueWidth float64, lineBytes int, hpmEnabled bool) (*PMU, error) {
	if harts <= 0 {
		return nil, fmt.Errorf("perf: hart count must be positive, got %d", harts)
	}
	if clockHz <= 0 || issueWidth <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("perf: clock, issue width and line size must be positive")
	}
	return &PMU{
		clockHz:    clockHz,
		issueWidth: issueWidth,
		lineBytes:  float64(lineBytes),
		hpmEnabled: hpmEnabled,
		harts:      harts,
	}, nil
}

// Harts returns the number of harts with counters.
func (p *PMU) Harts() int { return p.harts }

// HPMEnabled reports whether programmable counters were enabled at boot.
func (p *PMU) HPMEnabled() bool { return p.hpmEnabled }

// Advance accrues dt seconds of execution under the given load across all
// harts. The cycle counter always runs; instret advances with the issue
// slots the load keeps busy; memory events divide traffic into cache lines
// spread evenly over harts.
func (p *PMU) Advance(dt float64, load Load) {
	if dt <= 0 {
		return
	}
	ca := load.CoreActivity
	if ca < 0 {
		ca = 0
	} else if ca > 1 {
		ca = 1
	}
	scale := load.ClockScale
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	n := float64(p.harts)
	var perHart [numEvents]float64
	perHart[EventCycle] = p.clockHz * scale * dt
	perHart[EventInstret] = p.issueWidth * p.clockHz * scale * dt * ca
	perHart[EventDDRRead] = load.DDRReadBytesPerSec * dt / p.lineBytes / n
	perHart[EventDDRWrite] = load.DDRWriteBytesPerSec * dt / p.lineBytes / n
	perHart[EventBranchMiss] = 0.005 * p.issueWidth * p.clockHz * scale * dt * ca
	perHart[EventL2Miss] = perHart[EventDDRRead] + perHart[EventDDRWrite]
	for ev := int(EventInstret); ev < numEvents; ev++ {
		acc := p.frac[ev] + perHart[ev]
		whole := uint64(acc)
		p.counts[ev] += whole
		p.frac[ev] = acc - float64(whole)
	}
}

// Read returns the current value of a counter on one hart. Programmable
// events return ErrHPMDisabled unless the boot patch enabled them.
func (p *PMU) Read(hart int, ev Event) (uint64, error) {
	if hart < 0 || hart >= p.harts {
		return 0, fmt.Errorf("perf: hart %d out of range [0,%d)", hart, p.harts)
	}
	if !ev.Fixed() && !p.hpmEnabled {
		return 0, ErrHPMDisabled
	}
	if !ev.Fixed() && !knownEvent(ev) {
		return 0, fmt.Errorf("perf: unknown event %v", ev)
	}
	return p.counts[int(ev)], nil
}

func knownEvent(ev Event) bool {
	for _, e := range ProgrammableEvents {
		if e == ev {
			return true
		}
	}
	return ev.Fixed()
}
