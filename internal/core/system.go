// Package core assembles the full Monte Cimone testbed — the paper's
// primary contribution — and exposes one runner per table and figure of
// the evaluation section (the experiment index lives in DESIGN.md).
//
// A System wires the discrete-event engine, the eight-node cluster, the
// SLURM-like scheduler, the ExaMon monitoring stack (broker, pmu_pub and
// stats_pub plugins, TSDB) and the Spack software stack together, with the
// thermal-halt path connected to the scheduler's node-failure handling
// exactly as the operators experienced it in Fig. 6.
package core

import (
	"fmt"

	"montecimone/internal/cluster"
	"montecimone/internal/directory"
	"montecimone/internal/examon"
	"montecimone/internal/powerplane"
	"montecimone/internal/sched"
	"montecimone/internal/sim"
	"montecimone/internal/spack"
)

// Options configures a System build.
type Options struct {
	// Nodes is the compute-node count (default 8).
	Nodes int
	// HPMPatch applies the U-Boot performance-counter patch.
	HPMPatch bool
	// Monitor starts the ExaMon plugins on boot (default true via
	// NewSystem; set NoMonitor to disable).
	NoMonitor bool
	// Seed drives all deterministic noise (default 1).
	Seed int64
	// StepPeriod overrides the node integration period.
	StepPeriod float64
	// Policy selects the scheduler policy by name (sched.PolicyNames;
	// default "easy", the production configuration).
	Policy string
	// SyntheticSlots permits Nodes beyond the physical eight-slot
	// enclosure; extra nodes reuse slot thermal environments cyclically.
	SyntheticSlots bool
	// LockStep reinstates the fixed-period global physics ticker instead
	// of the default demand-driven co-simulation (the benchmark ablation;
	// see cluster.Config.LockStep).
	LockStep bool
	// PowerBudgetW, when positive, enables the cluster power plane: one
	// power_pub plugin and one dtm governor per node, the budget governor
	// distributing per-node caps, and — when Policy is "powercap" — the
	// power-aware scheduling loop consulting it before placements.
	PowerBudgetW float64
	// Org and Cluster scope every telemetry sample the system publishes
	// (plugins and the power plane). Empty keeps the ExaMon defaults —
	// byte-identical to the pre-fleet stack. Fleet workers set Cluster to
	// the cluster ID so federated samples stay attributable.
	Org, ClusterTag string
	// AmbientC overrides the machine-room inlet temperature (0 keeps the
	// paper's 25 °C). Fleet clusters model heterogeneous sites with it.
	AmbientC float64
}

// System is the assembled testbed.
type System struct {
	// Engine drives all virtual time.
	Engine *sim.Engine
	// Cluster is the hardware assembly.
	Cluster *cluster.Cluster
	// Scheduler is the SLURM-like batch system on the master node.
	Scheduler *sched.Scheduler
	// Broker, DB and the per-node plugins form the ExaMon stack.
	Broker *examon.Broker
	DB     *examon.TSDB
	// Directory is the LDAP user directory served from the master node.
	Directory *directory.Server
	// RNG provides named deterministic noise streams.
	RNG *sim.RNG
	// Plane is the cluster power-budget governor (nil unless
	// Options.PowerBudgetW was set).
	Plane *powerplane.Governor

	pmuPubs   []*examon.PMUPub
	statsPubs []*examon.StatsPub
	powerPubs []*examon.PowerPub
	monitor   bool
}

// NewSystem builds an unbooted system.
func NewSystem(opts Options) (*System, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	engine := sim.NewEngine()
	cl, err := cluster.New(engine, cluster.Config{
		Nodes:          opts.Nodes,
		HPMPatch:       opts.HPMPatch,
		StepPeriod:     opts.StepPeriod,
		SyntheticSlots: opts.SyntheticSlots,
		LockStep:       opts.LockStep,
		AmbientC:       opts.AmbientC,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	policy := sched.EASY()
	if opts.Policy != "" {
		if policy, err = sched.PolicyByName(opts.Policy); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	broker := examon.NewBroker()
	db := examon.NewTSDB()
	if _, err := db.Attach(broker); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var plane *powerplane.Governor
	schedOpts := []sched.Option{sched.WithPolicy(policy)}
	if opts.PowerBudgetW > 0 {
		plane, err = powerplane.New(engine, cl, db, broker, powerplane.Config{
			BudgetW: opts.PowerBudgetW,
			Org:     opts.Org,
			Cluster: opts.ClusterTag,
		})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		schedOpts = append(schedOpts, sched.WithPowerAdvisor(plane))
	}
	sc, err := sched.New(engine, "cimone", cl.Hostnames(), schedOpts...)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if plane != nil {
		plane.OnHeadroomIncrease(sc.Reschedule)
	}
	dir, err := directory.DefaultDirectory()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := &System{
		Engine:    engine,
		Cluster:   cl,
		Scheduler: sc,
		Broker:    broker,
		DB:        db,
		Directory: dir,
		RNG:       sim.NewRNG(opts.Seed),
		Plane:     plane,
		monitor:   !opts.NoMonitor,
	}
	// Thermal halts surface as SLURM node failures.
	cl.OnNodeHalt(func(host string) {
		// NodeDown only fails on unknown hosts; cluster hostnames are the
		// partition, so this cannot error.
		if err := sc.NodeDown(host); err != nil {
			panic(fmt.Sprintf("core: node down: %v", err))
		}
	})
	for i := 0; i < cl.Size(); i++ {
		nd := cl.Node(i)
		pmu, err := examon.NewPMUPub(broker, nd, opts.Org, opts.ClusterTag)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		stats, err := examon.NewStatsPub(broker, nd, opts.Org, opts.ClusterTag)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		s.pmuPubs = append(s.pmuPubs, pmu)
		s.statsPubs = append(s.statsPubs, stats)
		if plane != nil {
			pp, err := examon.NewPowerPub(broker, nd, opts.Org, opts.ClusterTag)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			s.powerPubs = append(s.powerPubs, pp)
		}
	}
	return s, nil
}

// Boot powers the cluster, waits for all nodes to reach the OS and starts
// the monitoring plugins.
func (s *System) Boot() error {
	if err := s.Cluster.BootAndSettle(2); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if s.monitor {
		for i := range s.pmuPubs {
			if err := s.pmuPubs[i].Start(s.Engine); err != nil {
				return fmt.Errorf("core: %w", err)
			}
			if err := s.statsPubs[i].Start(s.Engine); err != nil {
				return fmt.Errorf("core: %w", err)
			}
		}
	}
	// The power plane runs even without the OS-level monitoring plugins:
	// power_pub samples out of band, and the budget loop needs it.
	for i := range s.powerPubs {
		if err := s.powerPubs[i].Start(s.Engine); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if s.Plane != nil {
		if err := s.Plane.Start(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// Close stops all periodic activity (plugins, power plane and cluster
// stepping).
func (s *System) Close() {
	for i := range s.pmuPubs {
		s.pmuPubs[i].Stop()
		s.statsPubs[i].Stop()
	}
	for i := range s.powerPubs {
		s.powerPubs[i].Stop()
	}
	if s.Plane != nil {
		s.Plane.Stop()
	}
	s.Cluster.Stop()
}

// Advance runs the engine for dt more virtual seconds.
func (s *System) Advance(dt float64) error {
	return s.Engine.RunUntil(s.Engine.Now() + dt)
}

// Login authenticates a user against the LDAP directory and opens a
// session on the login node — the path every cluster user takes before
// submitting jobs.
func (s *System) Login(username, password string) (*directory.Session, error) {
	return directory.Login(s.Directory, cluster.LoginHostname, username, password)
}

// NewInstaller returns the Spack installer targeting the cluster's
// microarchitecture with the deployed GCC 10.3.0 toolchain.
func (s *System) NewInstaller() (*spack.Installer, error) {
	return spack.NewInstaller(spack.BuiltinRepo(), s.Cluster.Machine().Microarch,
		spack.Compiler{Name: "gcc", Version: "10.3.0"})
}
