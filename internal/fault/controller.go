package fault

import (
	"fmt"
	"sort"

	"montecimone/internal/cluster"
	"montecimone/internal/node"
	"montecimone/internal/powerplane"
	"montecimone/internal/sched"
	"montecimone/internal/sim"
)

// Config assembles a Controller against a booted system. Plane may be nil
// when the campaign runs without a power budget (power steps are then
// rejected by Spec.Validate).
type Config struct {
	Engine   *sim.Engine
	Cluster  *cluster.Cluster
	Sched    *sched.Scheduler
	Plane    *powerplane.Governor
	Spec     *Spec
	RNG      *sim.RNG
	StartT   float64 // engine time of campaign t=0
	HorizonS float64
	// Logf receives the fault event-log lines (campaign-relative t already
	// formatted in); nil discards them.
	Logf func(format string, args ...any)
}

// Controller owns a compiled fault plan at run time: it schedules the
// injections as engine events, drives the recovery half (reboots, thermal
// repairs, scheduler NodeUp) and keeps the downtime books behind the
// campaign's availability, MTTR and retry columns.
type Controller struct {
	cfg  Config
	plan *Plan

	// netSlow (with the plan's stragglers) feeds the scheduler's runtime
	// scaler: the active window's job stretch, 1 outside.
	netSlow float64

	// nodes holds each node's fault state, indexed like cluster.Node.
	nodes []nodeFaults

	crashes    int
	injects    int
	trips      int
	powerSteps int
	netWindows int
	repairs    int
	downDoneS  float64 // closed-outage node-seconds: every repair time
}

// nodeFaults is one node's fault state.
type nodeFaults struct {
	// thermFaulted marks a node carrying an injected airflow fault (its
	// halts are ours to repair; natural runaways stay down as before).
	thermFaulted bool
	// down marks an open outage, which began at engine time downSince
	// (crash instant or fault-induced halt).
	down      bool
	downSince float64
}

// Stats is the controller's accounting snapshot, campaign-report ready.
type Stats struct {
	Crashes        int
	ThermalInjects int
	Trips          int
	PowerSteps     int
	NetWindows     int
	StragglerNodes int
	Repairs        int
	// DownNodeS is cumulative node-down seconds, open outages closed at
	// the snapshot instant.
	DownNodeS float64
	// MTTRS is the mean repair time over completed repairs (0 if none).
	MTTRS float64
}

// NewController compiles the spec against the machine and subscribes to
// the cluster's halt/boot notifications. Call Arm afterwards (once the
// system is booted) to schedule the injection timeline.
func NewController(cfg Config) (*Controller, error) {
	if cfg.Engine == nil || cfg.Cluster == nil || cfg.Sched == nil || cfg.Spec == nil || cfg.RNG == nil {
		return nil, fmt.Errorf("fault: controller needs engine, cluster, scheduler, spec and rng")
	}
	if err := cfg.Spec.Validate(cfg.Cluster.Size(), cfg.HorizonS, cfg.Plane != nil); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:     cfg,
		plan:    Compile(cfg.Spec, cfg.RNG, cfg.Cluster.Size(), cfg.HorizonS),
		netSlow: 1,
		nodes:   make([]nodeFaults, cfg.Cluster.Size()),
	}
	cfg.Cluster.OnNodeHalt(c.nodeHalted)
	cfg.Cluster.OnNodeBoot(c.nodeBooted)
	return c, nil
}

// Arm schedules the compiled timeline. Arm must run at campaign t=0,
// after boot.
func (c *Controller) Arm() error {
	// Stragglers are a static assignment, logged up front in node order.
	nodes := make([]int, 0, len(c.plan.Stragglers))
	for n := range c.plan.Stragglers {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		host := c.cfg.Cluster.Node(n).Hostname()
		c.logf("t=%10.1f fault  straggler %-14s x%.2f", 0.0, host, c.plan.Stragglers[n])
	}
	for _, ev := range c.plan.Events {
		ev := ev
		at := c.cfg.StartT + ev.AtS
		var err error
		switch ev.Kind {
		case KindCrash:
			_, err = c.cfg.Engine.ScheduleAt(at, "fault.crash",
				func(*sim.Engine) { c.crash(ev.Node) })
		case KindThermalInject:
			_, err = c.cfg.Engine.ScheduleAt(at, "fault.thermal",
				func(*sim.Engine) { c.injectThermal(ev.Node) })
		case KindPowerStep:
			_, err = c.cfg.Engine.ScheduleAt(at, "fault.budget",
				func(*sim.Engine) { c.powerStep(ev.BudgetW) })
		case KindNetStart:
			_, err = c.cfg.Engine.ScheduleAt(at, "fault.net",
				func(*sim.Engine) { c.netStart(ev) })
		case KindNetEnd:
			_, err = c.cfg.Engine.ScheduleAt(at, "fault.net",
				func(*sim.Engine) { c.netEnd() })
		}
		if err != nil {
			return fmt.Errorf("fault: arm: %w", err)
		}
	}
	return nil
}

// Slowdown is the scheduler's runtime scaler: jobs touching a straggler
// node run at its factor, and multi-node jobs starting inside a degraded-
// network window at least at the window's stretch. Factors do not stack
// (the max applies) — a job on a slow node inside a slow window is bound
// by whichever bottleneck is worse.
func (c *Controller) Slowdown(job *sched.Job, nodes []int) float64 {
	s := 1.0
	for _, n := range nodes {
		if f := c.plan.Stragglers[n]; f > s {
			s = f
		}
	}
	if len(nodes) > 1 && c.netSlow > s {
		s = c.netSlow
	}
	return s
}

// Stats snapshots the accounting at the given engine instant (open
// outages are charged up to it; their eventual repair is not counted as a
// completed repair).
func (c *Controller) Stats(now float64) Stats {
	st := Stats{
		Crashes:        c.crashes,
		ThermalInjects: c.injects,
		Trips:          c.trips,
		PowerSteps:     c.powerSteps,
		NetWindows:     c.netWindows,
		StragglerNodes: len(c.plan.Stragglers),
		Repairs:        c.repairs,
		DownNodeS:      c.downDoneS,
	}
	if c.repairs > 0 {
		st.MTTRS = c.downDoneS / float64(c.repairs)
	}
	// Node order: float addition is not associative.
	for _, nf := range c.nodes {
		if nf.down && now > nf.downSince {
			st.DownNodeS += now - nf.downSince
		}
	}
	return st
}

func (c *Controller) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func (c *Controller) rel(now float64) float64 { return now - c.cfg.StartT }

// crash powers a node off mid-flight and starts its reboot clock. A node
// that is already down (off, halted, or mid-outage) absorbs the crash.
func (c *Controller) crash(n int) {
	nd := c.cfg.Cluster.Node(n)
	nf := &c.nodes[n]
	if nf.down {
		return
	}
	if st := nd.State(); st != node.StateRunning && st != node.StateBooting {
		return
	}
	now := c.cfg.Engine.Now()
	reboot := c.cfg.Spec.Crash.rebootS()
	c.crashes++
	nf.down, nf.downSince = true, now
	c.logf("t=%10.1f fault  crash  %-14s reboot=%.0fs", c.rel(now), nd.Hostname(), reboot)
	nd.PowerOff()
	c.cfg.Sched.NodeDown(n)
	_, err := c.cfg.Engine.ScheduleAfter(reboot, "fault.reboot", func(e *sim.Engine) {
		if nd.State() == node.StateOff {
			if perr := nd.PowerOn(e.Now()); perr != nil {
				panic(fmt.Sprintf("fault: reboot %s: %v", nd.Hostname(), perr))
			}
		}
	})
	if err != nil {
		panic(fmt.Sprintf("fault: schedule reboot %s: %v", nd.Hostname(), err))
	}
}

// injectThermal installs the airflow fault; the trip (if the node's load
// pushes it supercritical) arrives through the genuine physics path and
// is handled by nodeHalted.
func (c *Controller) injectThermal(n int) {
	nd := c.cfg.Cluster.Node(n)
	th := c.cfg.Spec.Thermal
	now := c.cfg.Engine.Now()
	c.injects++
	c.nodes[n].thermFaulted = true
	c.logf("t=%10.1f fault  airflow %-13s rth+=%.1fK/W air+=%.1fC", c.rel(now), nd.Hostname(), th.extraRthKW(), th.extraAirC())
	nd.InjectThermalFault(th.extraRthKW(), th.extraAirC())
}

// nodeHalted runs on every cluster halt; halts of nodes we faulted are
// ours to repair (fan fix + power cycle after RepairS). Natural runaways
// on healthy nodes stay down, exactly as without the fault subsystem.
func (c *Controller) nodeHalted(n int) {
	nf := &c.nodes[n]
	if !nf.thermFaulted || nf.down {
		return
	}
	nd := c.cfg.Cluster.Node(n)
	now := c.cfg.Engine.Now()
	repair := c.cfg.Spec.Thermal.repairS()
	c.trips++
	nf.down, nf.downSince = true, now
	c.logf("t=%10.1f fault  trip   %-14s repair=%.0fs", c.rel(now), nd.Hostname(), repair)
	_, err := c.cfg.Engine.ScheduleAfter(repair, "fault.repair", func(e *sim.Engine) {
		if nd.State() != node.StateHalted {
			return
		}
		nf.thermFaulted = false
		nd.ClearThermalFault()
		nd.PowerOff()
		if perr := nd.PowerOn(e.Now()); perr != nil {
			panic(fmt.Sprintf("fault: repair %s: %v", nd.Hostname(), perr))
		}
		c.logf("t=%10.1f fault  repair %-14s power-cycled", c.rel(e.Now()), nd.Hostname())
	})
	if err != nil {
		panic(fmt.Sprintf("fault: schedule repair %s: %v", nd.Hostname(), err))
	}
}

// nodeBooted closes the outage when a repaired/rebooted node finishes
// booting and returns it to the scheduler.
func (c *Controller) nodeBooted(n int) {
	nf := &c.nodes[n]
	if !nf.down {
		return
	}
	nf.down = false
	now := c.cfg.Engine.Now()
	d := now - nf.downSince
	c.repairs++
	c.downDoneS += d
	c.cfg.Sched.NodeUp(n)
	c.logf("t=%10.1f fault  up     %-14s down=%.1fs", c.rel(now), c.cfg.Cluster.Node(n).Hostname(), d)
}

// powerStep rewrites the facility budget (brownout or recovery). The
// plane's next control tick redistributes caps; a budget increase also
// reaches the scheduler through the plane's headroom notification.
func (c *Controller) powerStep(budgetW float64) {
	now := c.cfg.Engine.Now()
	c.powerSteps++
	c.logf("t=%10.1f fault  budget %.0fW", c.rel(now), budgetW)
	if err := c.cfg.Plane.SetBudgetW(budgetW); err != nil {
		panic(fmt.Sprintf("fault: power step: %v", err))
	}
}

// netStart / netEnd bracket a degradation window on the live fabric.
func (c *Controller) netStart(ev Event) {
	now := c.cfg.Engine.Now()
	c.netWindows++
	c.netSlow = ev.Slowdown
	c.logf("t=%10.1f fault  net    degraded lat=x%.1f bw=x%.2f", c.rel(now), ev.LatencyMult, ev.BandwidthMult)
	if err := c.cfg.Cluster.Fabric().SetDegradation(ev.LatencyMult, ev.BandwidthMult); err != nil {
		panic(fmt.Sprintf("fault: net degrade: %v", err))
	}
}

func (c *Controller) netEnd() {
	now := c.cfg.Engine.Now()
	c.netSlow = 1
	c.logf("t=%10.1f fault  net    restored", c.rel(now))
	if err := c.cfg.Cluster.Fabric().SetDegradation(1, 1); err != nil {
		panic(fmt.Sprintf("fault: net restore: %v", err))
	}
}
