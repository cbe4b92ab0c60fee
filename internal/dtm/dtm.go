// Package dtm implements the dynamic power and thermal management the
// paper lists as future work (item ii of Section VI): a per-node DVFS
// governor that caps the SoC junction temperature by scaling the
// operating point, trading performance for thermal headroom.
//
// With the governor active, the obstructed slot of node 7 — which runs
// away to the 107 degC trip under sustained HPL in the original enclosure
// — instead throttles and holds below the cap, keeping the node in
// production at reduced throughput until the airflow fix lands.
package dtm

import (
	"fmt"

	"montecimone/internal/node"
	"montecimone/internal/sim"
	"montecimone/internal/thermal"
)

// Config tunes a governor.
type Config struct {
	// CapC is the junction temperature ceiling to hold (default 95 degC,
	// safely below the 107 degC hazard).
	CapC float64
	// Period is the control interval in seconds (default 1).
	Period float64
	// StepDown and StepUp are the per-interval scale adjustments.
	StepDown float64
	StepUp   float64
}

func (c Config) withDefaults() Config {
	if c.CapC == 0 {
		c.CapC = 95
	}
	if c.Period == 0 {
		c.Period = 1
	}
	if c.StepDown == 0 {
		c.StepDown = 0.05
	}
	if c.StepUp == 0 {
		c.StepUp = 0.01
	}
	return c
}

// Governor is a per-node thermal-capping DVFS controller. It optionally
// also enforces a node power cap (SetPowerCapW), which the cluster power
// plane distributes from the global budget — the same actuator serves
// both the thermal ceiling and the RAPL-style power ceiling.
type Governor struct {
	node *node.Node
	cfg  Config

	ticker *sim.Ticker

	powerCapW float64 // 0 = no power cap

	scaleSum    float64
	samples     int
	throttleSec float64
}

// New builds a governor for one node.
func New(nd *node.Node, cfg Config) (*Governor, error) {
	if nd == nil {
		return nil, fmt.Errorf("dtm: nil node")
	}
	cfg = cfg.withDefaults()
	if cfg.CapC <= 25 || cfg.CapC >= thermal.TripTempC {
		return nil, fmt.Errorf("dtm: cap %v degC outside (25, %v)", cfg.CapC, thermal.TripTempC)
	}
	if cfg.Period <= 0 || cfg.StepDown <= 0 || cfg.StepUp <= 0 {
		return nil, fmt.Errorf("dtm: period and steps must be positive")
	}
	return &Governor{node: nd, cfg: cfg}, nil
}

// Start begins the control loop on the engine.
func (g *Governor) Start(engine *sim.Engine) error {
	if g.ticker != nil {
		return fmt.Errorf("dtm: governor already running on %s", g.node.Hostname())
	}
	tk, err := sim.NewTicker(engine, engine.Now()+g.cfg.Period, g.cfg.Period,
		"dtm."+g.node.Hostname(), g.control)
	if err != nil {
		return fmt.Errorf("dtm: %w", err)
	}
	g.ticker = tk
	return nil
}

// Stop halts the control loop and restores the nominal operating point.
func (g *Governor) Stop() {
	if g.ticker != nil {
		g.ticker.Stop()
		g.ticker = nil
	}
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
func (g *Governor) control(float64) {
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
	case temp > g.cfg.CapC-2 || overPower:
		scale -= g.cfg.StepDown
	case temp < g.cfg.CapC-10 && underPower:
		scale += g.cfg.StepUp
	}
	g.node.SetFrequencyScale(scale)
	scale = g.node.FrequencyScale() // after clamping
	g.scaleSum += scale
	g.samples++
	if scale < 1 {
		g.throttleSec += g.cfg.Period
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
