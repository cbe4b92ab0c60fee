// Package cluster assembles the Monte Cimone machine: eight compute nodes
// in four E4 RV007 blades (two HiFive Unmatched boards per 1U case, one
// 250 W PSU each so every node powers on individually), a login node and a
// master node running the job scheduler, the NFS export and the system
// management software, all connected through the 1 Gb Ethernet fabric.
package cluster

import (
	"fmt"
	"math"

	"montecimone/internal/netsim"
	"montecimone/internal/node"
	"montecimone/internal/power"
	"montecimone/internal/sim"
	"montecimone/internal/soc"
	"montecimone/internal/storage"
	"montecimone/internal/thermal"
)

// DefaultNodes is the paper's compute-node count.
const DefaultNodes = 8

// NodesPerBlade is the RV007 dual-board blade capacity.
const NodesPerBlade = 2

// Config describes a cluster build.
type Config struct {
	// Nodes is the compute-node count; defaults to DefaultNodes.
	Nodes int
	// Machine is the per-node SoC; defaults to soc.FU740().
	Machine *soc.Machine
	// Enclosure is the initial chassis configuration; defaults to the
	// paper's original lid-on build.
	Enclosure *thermal.Enclosure
	// AmbientC overrides the machine-room inlet temperature of the
	// default enclosure (ignored when Enclosure is set explicitly). 0
	// keeps the paper's 25 °C room. Fleet clusters use it to model
	// heterogeneous sites: a hot container farm boots closer to the trip
	// point than a chilled machine room, which the meta-scheduler's
	// thermal-headroom score sees.
	AmbientC float64
	// Link is the MPI fabric; defaults to netsim.GigabitEthernet().
	Link *netsim.Link
	// HPMPatch applies the U-Boot counter patch on all nodes.
	HPMPatch bool
	// StepPeriod is the node-model integration period in seconds
	// (default 0.1 s).
	StepPeriod float64
	// SyntheticSlots lifts the physical thermal.NumSlots ceiling on Nodes
	// for synthetic scale-out studies (e.g. large scheduler partitions):
	// nodes beyond the paper's enclosure reuse the slot thermal
	// environments modulo thermal.NumSlots.
	SyntheticSlots bool
	// LockStep reinstates the seed's fixed-period global integration
	// ticker, which Euler-steps every node every StepPeriod regardless of
	// activity. The default is demand-driven co-simulation: each node
	// integrates lazily when observed (an input change to a cool running
	// node only records the elapsed interval), with a per-node watchdog
	// event guarding boot completions and thermal trips. LockStep exists as the benchmark ablation and as the
	// bit-exact reproduction of the seed integration schedule.
	LockStep bool
}

// WithLockStep returns a copy of cfg with the legacy global-ticker
// integration enabled (the ablation baseline for the demand-driven
// physics benchmarks).
func WithLockStep(cfg Config) Config {
	cfg.LockStep = true
	return cfg
}

// Cluster is the assembled machine.
type Cluster struct {
	engine  *sim.Engine
	machine *soc.Machine
	nodes   []*node.Node
	index   map[string]int // hostname -> 0-based node index
	fabric  *netsim.Fabric

	nfs    *storage.NFS
	mounts map[string]*storage.Mount
	nvmes  map[string]*storage.NVMe

	stepPeriod float64
	lockStep   bool
	ambientC   float64 // configured machine-room inlet temperature
	ticker     *sim.Ticker
	onHalt     []func(hostname string)
	onBoot     []func(hostname string)

	// Demand-driven mode: one pending watchdog handle per node (zero when
	// the node needs none) plus its precomputed event name and callback —
	// replanning happens on every input change, so the per-node closure is
	// built once here rather than per reschedule.
	watches    []sim.Handle
	watchNames []string
	watchFns   []func(*sim.Engine)
}

// LoginHostname and MasterHostname name the service nodes.
const (
	LoginHostname  = "mclogin"
	MasterHostname = "mcmaster"
)

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
		return nil, fmt.Errorf("cluster: node count %d outside [1,%d]", n, thermal.NumSlots)
	}
	if n > thermal.NumSlots && !cfg.SyntheticSlots {
		return nil, fmt.Errorf("cluster: node count %d outside [1,%d] (set SyntheticSlots to scale beyond the enclosure)", n, thermal.NumSlots)
	}
	machine := cfg.Machine
	if machine == nil {
		machine = soc.FU740()
	}
	enc := thermal.DefaultEnclosure()
	if cfg.Enclosure != nil {
		enc = *cfg.Enclosure
	} else if cfg.AmbientC != 0 {
		if cfg.AmbientC < 0 || cfg.AmbientC >= thermal.TripTempC {
			return nil, fmt.Errorf("cluster: ambient %v °C outside [0,%v)", cfg.AmbientC, thermal.TripTempC)
		}
		enc.AmbientC = cfg.AmbientC
	}
	link := netsim.GigabitEthernet()
	if cfg.Link != nil {
		link = *cfg.Link
	}
	period := cfg.StepPeriod
	if period == 0 {
		period = 0.1
	}
	if !(period > 0) { // also rejects NaN
		return nil, fmt.Errorf("cluster: step period must be positive, got %v", period)
	}
	fabric, err := netsim.NewFabric(n, link)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c := &Cluster{
		engine:     engine,
		machine:    machine,
		index:      make(map[string]int, n),
		fabric:     fabric,
		nfs:        storage.NewNFS(),
		mounts:     make(map[string]*storage.Mount, n),
		nvmes:      make(map[string]*storage.NVMe, n),
		stepPeriod: period,
		lockStep:   cfg.LockStep,
		ambientC:   enc.AmbientC,
	}
	for id := 1; id <= n; id++ {
		nd, err := node.New(node.Config{
			ID:        id,
			Slot:      (id - 1) % thermal.NumSlots,
			Machine:   machine,
			Enclosure: enc,
			HPMPatch:  cfg.HPMPatch,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		c.nodes = append(c.nodes, nd)
		c.index[nd.Hostname()] = id - 1
		mount, err := c.nfs.Mount(nd.Hostname())
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		c.mounts[nd.Hostname()] = mount
		c.nvmes[nd.Hostname()] = storage.NewNVMe()
	}
	for _, nd := range c.nodes {
		// Transitions surface in both modes: the lock-step ticker and the
		// demand-driven syncs both discover them inside node integration.
		// Both modes also install the engine clock and the integration
		// period, so observations and input changes are exact at their
		// own instants rather than quantized to the enclosing tick — the
		// two modes then walk identical Euler sequences and the LockStep
		// ablation differs only in integration scheduling cost.
		nd := nd
		nd.OnTransition(func(kind node.Transition, _ float64) { c.nodeTransition(nd, kind) })
		if err := nd.SetBaseStep(period); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
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
			fn(nd.Hostname())
		}
	case node.TransitionBootComplete:
		for _, fn := range c.onBoot {
			fn(nd.Hostname())
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

// Machine returns the node SoC model.
func (c *Cluster) Machine() *soc.Machine { return c.machine }

// Fabric returns the MPI interconnect.
func (c *Cluster) Fabric() *netsim.Fabric { return c.fabric }

// NFS returns the master node's file-system export.
func (c *Cluster) NFS() *storage.NFS { return c.nfs }

// NFSMount returns a compute node's NFS mount.
func (c *Cluster) NFSMount(hostname string) (*storage.Mount, error) {
	m, ok := c.mounts[hostname]
	if !ok {
		return nil, fmt.Errorf("cluster: no NFS mount for %q", hostname)
	}
	return m, nil
}

// NVMe returns a compute node's local SSD.
func (c *Cluster) NVMe(hostname string) (*storage.NVMe, error) {
	d, ok := c.nvmes[hostname]
	if !ok {
		return nil, fmt.Errorf("cluster: no NVMe for %q", hostname)
	}
	return d, nil
}

// Size returns the compute-node count.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns the 0-based i-th compute node.
func (c *Cluster) Node(i int) *node.Node { return c.nodes[i] }

// NodeByHostname resolves a compute node by hostname.
func (c *Cluster) NodeByHostname(host string) (*node.Node, error) {
	if i, ok := c.index[host]; ok {
		return c.nodes[i], nil
	}
	return nil, fmt.Errorf("cluster: unknown host %q", host)
}

// Hostnames lists the compute-node hostnames in node order.
func (c *Cluster) Hostnames() []string {
	out := make([]string, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.Hostname()
	}
	return out
}

// Blades returns the blade composition: blade i holds the node indexes of
// its two boards (the last blade may hold one on odd-sized clusters).
func (c *Cluster) Blades() [][]int {
	var blades [][]int
	for i := 0; i < len(c.nodes); i += NodesPerBlade {
		end := i + NodesPerBlade
		if end > len(c.nodes) {
			end = len(c.nodes)
		}
		blade := make([]int, 0, NodesPerBlade)
		for j := i; j < end; j++ {
			blade = append(blade, j)
		}
		blades = append(blades, blade)
	}
	return blades
}

// OnNodeHalt registers a callback fired once per thermal halt (wired to
// the scheduler's NodeDown by the facade; the fault controller subscribes
// too). Callbacks fire in registration order.
func (c *Cluster) OnNodeHalt(fn func(hostname string)) { c.onHalt = append(c.onHalt, fn) }

// OnNodeBoot registers a callback fired when a node finishes booting (the
// event-driven boot-completion notification BootAndSettle waits on, and
// the fault controller's recovery path). Callbacks fire in registration
// order.
func (c *Cluster) OnNodeBoot(fn func(hostname string)) { c.onBoot = append(c.onBoot, fn) }

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
	if !c.lockStep {
		return nil
	}
	return c.startTicker()
}

func (c *Cluster) startTicker() error {
	if c.ticker != nil {
		return nil
	}
	tk, err := sim.NewTicker(c.engine, c.engine.Now()+c.stepPeriod, c.stepPeriod, "cluster.step", c.step)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	c.ticker = tk
	return nil
}

// Stop halts all periodic integration activity (end of simulation): the
// global ticker in lock-step mode, the per-node watchdogs otherwise.
func (c *Cluster) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
	for i := range c.watches {
		c.watches[i].Cancel()
		c.watches[i] = sim.Handle{}
	}
}

func (c *Cluster) step(now float64) {
	// Halts surface through the node transition callbacks.
	for _, nd := range c.nodes {
		nd.Step(now)
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
	if err := c.engine.RunUntil(latest + c.stepPeriod + settle); err != nil {
		return fmt.Errorf("cluster: boot: %w", err)
	}
	for _, nd := range c.nodes {
		if nd.State() != node.StateRunning {
			return fmt.Errorf("cluster: node %s state %s after boot", nd.Hostname(), nd.State())
		}
	}
	return nil
}

// RunWorkloadOn installs a workload activity on the named hosts.
func (c *Cluster) RunWorkloadOn(hosts []string, name string, act power.Activity, memBytes float64) error {
	for _, h := range hosts {
		nd, err := c.NodeByHostname(h)
		if err != nil {
			return err
		}
		if err := nd.SetWorkload(name, act, memBytes); err != nil {
			return err
		}
	}
	return nil
}

// ClearWorkloadOn clears workloads from the named hosts (halted nodes are
// skipped: their workload already ended).
func (c *Cluster) ClearWorkloadOn(hosts []string) {
	for _, h := range hosts {
		if nd, err := c.NodeByHostname(h); err == nil {
			nd.ClearWorkload()
		}
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

// Placement builds an MPI rank placement using ranksPerNode tasks per node
// over the first nodes compute nodes (the paper runs 1 MPI task per
// physical core, i.e. 4 per node).
func (c *Cluster) Placement(nodes, ranksPerNode int) ([]int, error) {
	if nodes < 1 || nodes > len(c.nodes) {
		return nil, fmt.Errorf("cluster: placement over %d nodes, have %d", nodes, len(c.nodes))
	}
	if ranksPerNode < 1 {
		return nil, fmt.Errorf("cluster: ranks per node must be positive, got %d", ranksPerNode)
	}
	placement := make([]int, 0, nodes*ranksPerNode)
	for nd := 0; nd < nodes; nd++ {
		for r := 0; r < ranksPerNode; r++ {
			placement = append(placement, nd)
		}
	}
	return placement, nil
}
