// Package cluster assembles the Monte Cimone machine: eight compute nodes
// in four E4 RV007 blades (two HiFive Unmatched boards per 1U case, one
// 250 W PSU each so every node powers on individually) and a master node
// running the job scheduler and the system management software, all
// connected through the 1 Gb Ethernet fabric.
package cluster

import (
	"fmt"
	"math"

	"montecimone/internal/netsim"
	"montecimone/internal/node"
	"montecimone/internal/power"
	"montecimone/internal/sim"
	"montecimone/internal/thermal"
)

// DefaultNodes is the paper's compute-node count.
const DefaultNodes = 8

// Config describes a cluster build. Every cluster is the paper's machine:
// FU740 nodes (soc.FU740) on 1 Gb Ethernet (netsim.GigabitEthernet),
// booting in the original lid-on enclosure (thermal.DefaultEnclosure) and
// integrated on the node.BaseStep grid.
type Config struct {
	// Nodes is the compute-node count; defaults to DefaultNodes. Nodes
	// beyond the paper's enclosure of thermal.NumSlots reuse the slot
	// thermal environments modulo thermal.NumSlots.
	Nodes int
	// AmbientC overrides the machine-room inlet temperature of the
	// enclosure. 0 keeps the paper's 25 °C room. Fleet clusters use it to
	// model heterogeneous sites: a hot container farm boots closer to the
	// trip point than a chilled machine room, which the meta-scheduler's
	// thermal-headroom score sees.
	AmbientC float64
	// HPMPatch applies the U-Boot counter patch on all nodes.
	HPMPatch bool
	// LockStep reinstates the seed's fixed-period global integration
	// ticker, which Euler-steps every node every node.BaseStep regardless
	// of activity. The default is demand-driven co-simulation: each node
	// integrates lazily when observed (an input change to a cool running
	// node only records the elapsed interval), with a per-node watchdog
	// event guarding boot completions and thermal trips. LockStep exists
	// as the equivalence reference for the demand-driven mode and as the
	// bit-exact reproduction of the seed integration schedule.
	LockStep bool
}

// Cluster is the assembled machine.
type Cluster struct {
	engine *sim.Engine
	nodes  []*node.Node
	fabric *netsim.Fabric

	lockStep bool
	ambientC float64    // configured machine-room inlet temperature
	tick     sim.Handle // the lock-step ticker's recurring event
	onHalt   []func(i int)
	onBoot   []func(i int)

	// Demand-driven mode: one pending watchdog handle per node (zero when
	// the node needs none) plus its precomputed event name and callback —
	// replanning happens on every input change, so the per-node closure is
	// built once here rather than per reschedule.
	watches    []sim.Handle
	watchNames []string
	watchFns   []func(*sim.Engine)
}

// MasterHostname names the master node; the power plane publishes its
// cluster-wide samples under it.
const MasterHostname = "mcmaster"

// New assembles a cluster on the given engine.
func New(engine *sim.Engine, cfg Config) (*Cluster, error) {
	if engine == nil {
		return nil, fmt.Errorf("cluster: nil engine")
	}
	n := cfg.Nodes
	if n == 0 {
		n = DefaultNodes
	}
	if n < 1 {
		return nil, fmt.Errorf("cluster: node count %d must be at least 1", n)
	}
	enc := thermal.DefaultEnclosure()
	if cfg.AmbientC != 0 {
		if cfg.AmbientC < 0 || cfg.AmbientC >= thermal.TripTempC {
			return nil, fmt.Errorf("cluster: ambient %v °C outside [0,%v)", cfg.AmbientC, thermal.TripTempC)
		}
		enc.AmbientC = cfg.AmbientC
	}
	fabric, err := netsim.NewFabric(n, netsim.GigabitEthernet())
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c := &Cluster{
		engine:   engine,
		fabric:   fabric,
		lockStep: cfg.LockStep,
		ambientC: enc.AmbientC,
	}
	for id := 1; id <= n; id++ {
		nd, err := node.New(node.Config{
			ID:        id,
			Enclosure: enc,
			HPMPatch:  cfg.HPMPatch,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		c.nodes = append(c.nodes, nd)
	}
	for _, nd := range c.nodes {
		// Transitions surface in both modes: the lock-step ticker and the
		// demand-driven syncs both discover them inside node integration.
		// Both modes also install the engine clock, so observations and
		// input changes are exact at their own instants rather than
		// quantized to the enclosing tick — the two modes then walk
		// identical Euler sequences and the LockStep reference differs
		// only in integration scheduling cost.
		nd := nd
		nd.OnTransition(func(kind node.Transition, _ float64) { c.nodeTransition(nd, kind) })
		nd.SetClock(engine.Now)
	}
	if !c.lockStep {
		c.watches = make([]sim.Handle, n)
		c.watchNames = make([]string, n)
		c.watchFns = make([]func(*sim.Engine), n)
		for i, nd := range c.nodes {
			i, nd := i, nd
			nd.OnInputChange(func() { c.replanWatch(i) })
			c.watchNames[i] = "cluster.watch." + nd.Hostname()
			c.watchFns[i] = func(e *sim.Engine) {
				c.watches[i] = sim.Handle{}
				nd.SyncTo(e.Now())
				c.replanWatch(i)
			}
		}
	}
	return c, nil
}

// nodeTransition reacts to a node state change discovered during
// integration, forwarding it to the registered callbacks and re-planning
// the node's watchdog.
func (c *Cluster) nodeTransition(nd *node.Node, kind node.Transition) {
	switch kind {
	case node.TransitionHalt:
		for _, fn := range c.onHalt {
			fn(nd.ID() - 1)
		}
	case node.TransitionBootComplete:
		for _, fn := range c.onBoot {
			fn(nd.ID() - 1)
		}
	}
	if !c.lockStep {
		c.replanWatch(nd.ID() - 1)
	}
}

// replanWatch re-schedules node i's watchdog event at its next
// integration deadline (boot completion, approach to the trip band), or
// cancels it when the node can idle indefinitely. Cancelled events are
// dropped from the engine's queue eagerly, so frequent re-planning does
// not accumulate garbage.
func (c *Cluster) replanWatch(i int) {
	if c.lockStep || c.watches == nil {
		return
	}
	nd := c.nodes[i]
	c.watches[i].Cancel()
	c.watches[i] = sim.Handle{}
	at := nd.NextDeadline()
	if math.IsInf(at, 1) {
		return
	}
	if now := c.engine.Now(); at < now {
		at = now
	}
	ev, err := c.engine.ScheduleAt(at, c.watchNames[i], c.watchFns[i])
	if err != nil {
		// Unreachable: at is clamped to now and finite.
		panic(fmt.Sprintf("cluster: watch %s: %v", c.watchNames[i], err))
	}
	c.watches[i] = ev
}

// Engine returns the driving discrete-event engine.
func (c *Cluster) Engine() *sim.Engine { return c.engine }

// Fabric returns the MPI interconnect.
func (c *Cluster) Fabric() *netsim.Fabric { return c.fabric }

// Size returns the compute-node count.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns the 0-based i-th compute node.
func (c *Cluster) Node(i int) *node.Node { return c.nodes[i] }

// AllNodes lists every compute node's 0-based index, in node order.
func (c *Cluster) AllNodes() []int {
	out := make([]int, len(c.nodes))
	for i := range out {
		out[i] = i
	}
	return out
}

// Hostnames lists the compute-node hostnames in node order.
func (c *Cluster) Hostnames() []string {
	out := make([]string, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.Hostname()
	}
	return out
}

// OnNodeHalt registers a callback fired once per thermal halt with the
// halted node's 0-based index (wired to the scheduler's NodeDown by the
// facade; the fault controller subscribes too). Callbacks fire in
// registration order.
func (c *Cluster) OnNodeHalt(fn func(i int)) { c.onHalt = append(c.onHalt, fn) }

// OnNodeBoot registers a callback fired with a node's 0-based index when
// it finishes booting (the event-driven boot-completion notification
// BootAndSettle waits on, and the fault controller's recovery path).
// Callbacks fire in registration order.
func (c *Cluster) OnNodeBoot(fn func(i int)) { c.onBoot = append(c.onBoot, fn) }

// ModelSteps sums the Euler substeps integrated across all nodes — the
// physics cost the demand-driven mode minimises relative to the LockStep
// ablation.
func (c *Cluster) ModelSteps() uint64 {
	var total uint64
	for _, nd := range c.nodes {
		total += nd.ModelSteps()
	}
	return total
}

// PowerOnAll presses every node's power button at the current virtual
// time. In lock-step mode it also starts the global integration ticker;
// in demand-driven mode the per-node power-on watchdogs (scheduled from
// the input-change notification) cover boot completion instead. Nodes
// finish booting after node.R1Duration + node.R2Duration seconds.
func (c *Cluster) PowerOnAll() error {
	now := c.engine.Now()
	for _, nd := range c.nodes {
		if nd.State() == node.StateOff {
			if err := nd.PowerOn(now); err != nil {
				return fmt.Errorf("cluster: %w", err)
			}
		}
	}
	if !c.lockStep || c.tick.Scheduled() {
		return nil
	}
	tick, err := c.engine.ScheduleEvery(c.engine.Now()+node.BaseStep, node.BaseStep, "cluster.step", c.step)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	c.tick = tick
	return nil
}

// Stop halts all periodic integration activity (end of simulation): the
// global ticker in lock-step mode, the per-node watchdogs otherwise.
func (c *Cluster) Stop() {
	c.tick.Cancel()
	for i := range c.watches {
		c.watches[i].Cancel()
		c.watches[i] = sim.Handle{}
	}
}

func (c *Cluster) step(e *sim.Engine) {
	// Halts surface through the node transition callbacks.
	for _, nd := range c.nodes {
		nd.Step(e.Now())
	}
}

// BootAndSettle powers on all nodes and advances the engine until every
// node reaches the running state (plus settle seconds of idle). The
// deadline is derived from each node's own boot-completion time rather
// than hard-coded region constants, so custom boot timings cannot
// silently miss it; the per-node boot notification (OnNodeBoot) fires as
// each node comes up.
func (c *Cluster) BootAndSettle(settle float64) error {
	if err := c.PowerOnAll(); err != nil {
		return err
	}
	latest := c.engine.Now()
	for _, nd := range c.nodes {
		if nd.State() == node.StateBooting && nd.BootDeadline() > latest {
			latest = nd.BootDeadline()
		}
	}
	// One extra integration period covers the lock-step ticker flipping
	// the state on the first tick at or after the deadline; demand-driven
	// runs keep the same horizon so both modes leave Boot at the same
	// virtual time (telemetry epochs must match across the ablation).
	if err := c.engine.RunUntil(latest + node.BaseStep + settle); err != nil {
		return fmt.Errorf("cluster: boot: %w", err)
	}
	for _, nd := range c.nodes {
		if nd.State() != node.StateRunning {
			return fmt.Errorf("cluster: node %s state %s after boot", nd.Hostname(), nd.State())
		}
	}
	return nil
}

// RunWorkloadOn installs a workload activity on the given 0-based nodes.
func (c *Cluster) RunWorkloadOn(nodes []int, name string, act power.Activity, memBytes float64) error {
	for _, i := range nodes {
		if err := c.nodes[i].SetWorkload(name, act, memBytes); err != nil {
			return err
		}
	}
	return nil
}

// ClearWorkloadOn clears the workload from each of the given 0-based
// nodes, halted ones included.
func (c *Cluster) ClearWorkloadOn(nodes []int) {
	for _, i := range nodes {
		c.nodes[i].ClearWorkload()
	}
}

// AmbientC returns the configured machine-room inlet temperature.
func (c *Cluster) AmbientC() float64 { return c.ambientC }

// ApplyAirflowMitigation removes the blade lids and increases the vertical
// spacing (the paper's fix after the node-7 thermal hazard), and returns
// halted nodes to service after a power cycle. The configured ambient
// temperature is preserved — taking the lid off does not re-chill the
// room.
func (c *Cluster) ApplyAirflowMitigation() error {
	enc := thermal.Enclosure{AmbientC: c.ambientC, LidOn: false}
	for _, nd := range c.nodes {
		if err := nd.SetEnclosure(enc); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		if nd.State() == node.StateHalted {
			nd.PowerOff()
			if err := nd.PowerOn(c.engine.Now()); err != nil {
				return fmt.Errorf("cluster: %w", err)
			}
		}
	}
	return nil
}
