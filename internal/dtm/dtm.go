// Package dtm implements the dynamic power and thermal management the
// paper lists as future work (item ii of Section VI): a per-node DVFS
// governor that caps the SoC junction temperature by scaling the
// operating point, trading performance for thermal headroom.
//
// With the governor active, the obstructed slot of node 7 — which runs
// away to the 107 degC trip under sustained HPL in the original enclosure
// — instead throttles and holds below the cap, keeping the node in
// production at reduced throughput until the airflow fix lands.
//
// Every governor runs the same controller: it holds the junction below
// 95 degC, acts once a second, and steps the operating point down by 0.05
// when hot and back up by 0.01 when comfortably cool.
package dtm

import (
	"fmt"

	"montecimone/internal/node"
	"montecimone/internal/sim"
	"montecimone/internal/thermal"
)

// The controller: capC is the junction temperature ceiling to hold,
// safely below the 107 degC hazard; period is the control interval in
// seconds; stepDown and stepUp are the per-interval scale adjustments.
const (
	capC     = 95.0
	period   = 1.0
	stepDown = 0.05
	stepUp   = 0.01
)

// Governor is a per-node thermal-capping DVFS controller. It optionally
// also enforces a node power cap (SetPowerCapW), which the cluster power
// plane distributes from the global budget — the same actuator serves
// both the thermal ceiling and the RAPL-style power ceiling.
type Governor struct {
	node *node.Node
	tick sim.Handle

	powerCapW float64 // 0 = no power cap

	scaleSum    float64
	samples     int
	throttleSec float64
}

// New builds a governor for one node.
func New(nd *node.Node) (*Governor, error) {
	if nd == nil {
		return nil, fmt.Errorf("dtm: nil node")
	}
	return &Governor{node: nd}, nil
}

// Start begins the control loop on the engine.
func (g *Governor) Start(engine *sim.Engine) error {
	if g.tick.Scheduled() {
		return fmt.Errorf("dtm: governor already running on %s", g.node.Hostname())
	}
	tick, err := engine.ScheduleEvery(engine.Now()+period, period, "dtm."+g.node.Hostname(), g.control)
	if err != nil {
		return fmt.Errorf("dtm: %w", err)
	}
	g.tick = tick
	return nil
}

// Stop halts the control loop and restores the nominal operating point.
func (g *Governor) Stop() {
	g.tick.Cancel()
	g.node.SetFrequencyScale(1)
}

// SetPowerCapW sets (or, with w <= 0, clears) the node power cap in
// watts. The control loop then throttles whenever the board draw exceeds
// the cap, and only recovers while it sits comfortably below it.
func (g *Governor) SetPowerCapW(w float64) {
	if w < 0 {
		w = 0
	}
	g.powerCapW = w
}

// Scale returns the node's current DVFS operating point — the governor's
// actuator position, exported as power-plane telemetry.
func (g *Governor) Scale() float64 { return g.node.FrequencyScale() }

// control is one interval of the hysteresis controller: throttle hard
// when the junction approaches the thermal cap or the draw exceeds the
// power cap, recover slowly when both leave comfortable headroom.
func (g *Governor) control(*sim.Engine) {
	if g.node.State() != node.StateRunning {
		return
	}
	temp := g.node.Temperature(thermal.SensorCPU)
	overPower, underPower := false, true
	if g.powerCapW > 0 {
		drawW := g.node.TotalMilliwatts() / 1000
		overPower = drawW > g.powerCapW
		underPower = drawW < 0.95*g.powerCapW
	}
	scale := g.node.FrequencyScale()
	switch {
	case temp > capC-2 || overPower:
		scale -= stepDown
	case temp < capC-10 && underPower:
		scale += stepUp
	}
	g.node.SetFrequencyScale(scale)
	scale = g.node.FrequencyScale() // after clamping
	g.scaleSum += scale
	g.samples++
	if scale < 1 {
		g.throttleSec += period
	}
}

// MeanScale returns the average operating point since Start — the
// governor's performance cost (1.0 = no throttling).
func (g *Governor) MeanScale() float64 {
	if g.samples == 0 {
		return 1
	}
	return g.scaleSum / float64(g.samples)
}

// ThrottledSeconds returns the accumulated time spent below nominal.
func (g *Governor) ThrottledSeconds() float64 { return g.throttleSec }
