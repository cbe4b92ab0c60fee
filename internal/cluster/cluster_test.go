package cluster

import (
	"math"
	"testing"

	"montecimone/internal/node"
	"montecimone/internal/power"
	"montecimone/internal/sim"
	"montecimone/internal/thermal"
)

func newCluster(t *testing.T, cfg Config) (*sim.Engine, *Cluster) {
	t.Helper()
	e := sim.NewEngine()
	c, err := New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, c
}

func TestNewValidation(t *testing.T) {
	e := sim.NewEngine()
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(e, Config{Nodes: -1}); err == nil {
		t.Error("negative node count accepted")
	}
}

func TestDefaultTopology(t *testing.T) {
	_, c := newCluster(t, Config{})
	if c.Size() != 8 {
		t.Fatalf("size = %d, want 8", c.Size())
	}
	hosts := c.Hostnames()
	if hosts[0] != "mc01" || hosts[7] != "mc08" {
		t.Errorf("hostnames = %v", hosts)
	}
	if c.Fabric().Nodes() != 8 {
		t.Errorf("fabric nodes = %d", c.Fabric().Nodes())
	}
}

// TestLookups: node index i, the identity the scheduler and the fault
// and power layers pass around, is the node with ID i+1 named
// Hostnames()[i], and AllNodes lists every index in order.
func TestLookups(t *testing.T) {
	_, c := newCluster(t, Config{})
	hosts := c.Hostnames()
	for k, i := range c.AllNodes() {
		if nd := c.Node(i); i != k || nd.ID() != i+1 || nd.Hostname() != hosts[i] {
			t.Errorf("AllNodes()[%d] = %d: node ID %d named %s, want ID %d named %s",
				k, i, nd.ID(), nd.Hostname(), k+1, hosts[k])
		}
	}
	if n := len(c.AllNodes()); n != c.Size() {
		t.Errorf("AllNodes lists %d nodes, want %d", n, c.Size())
	}
}

func TestBootAndSettle(t *testing.T) {
	e, c := newCluster(t, Config{})
	if err := c.BootAndSettle(5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Size(); i++ {
		if c.Node(i).State() != node.StateRunning {
			t.Errorf("node %d state %s", i+1, c.Node(i).State())
		}
	}
	// Idle power per node after boot.
	if got := c.Node(0).TotalMilliwatts(); got != 4810 {
		t.Errorf("idle node power = %v, want 4810", got)
	}
	if e.Now() < node.R1Duration+node.R2Duration {
		t.Errorf("engine time %v did not cover boot", e.Now())
	}
}

func TestWorkloadRoundTrip(t *testing.T) {
	_, c := newCluster(t, Config{})
	if err := c.BootAndSettle(1); err != nil {
		t.Fatal(err)
	}
	nodes := c.AllNodes()[:4]
	if err := c.RunWorkloadOn(nodes, "hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	for _, i := range nodes {
		if nd := c.Node(i); nd.Workload() != "hpl" {
			t.Errorf("%s workload = %q", nd.Hostname(), nd.Workload())
		}
	}
	if c.Node(4).Workload() != "" {
		t.Error("unallocated node got a workload")
	}
	c.ClearWorkloadOn(nodes)
	for _, i := range nodes {
		if nd := c.Node(i); nd.Workload() != "" {
			t.Errorf("%s workload not cleared", nd.Hostname())
		}
	}
}

func TestNode7HaltsUnderFullMachineHPL(t *testing.T) {
	// Fig. 6 scenario: full-machine HPL with the lid on halts node 7.
	e, c := newCluster(t, Config{})
	if err := c.BootAndSettle(1); err != nil {
		t.Fatal(err)
	}
	var halted []int
	c.OnNodeHalt(func(i int) { halted = append(halted, i) })
	if err := c.RunWorkloadOn(c.AllNodes(), "hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(e.Now() + 3600); err != nil {
		t.Fatal(err)
	}
	if len(halted) != 1 || halted[0] != 6 {
		t.Fatalf("halted = %v, want [6] (mc07)", halted)
	}
	nd := c.Node(6)
	if nd.State() != node.StateHalted {
		t.Errorf("mc07 state = %s", nd.State())
	}
	// After the trip the node powers down and cools back towards the slot
	// air temperature.
	if got := nd.Temperature(thermal.SensorCPU); got >= thermal.TripTempC {
		t.Errorf("mc07 temp = %v, want cooling below %v after shutdown", got, thermal.TripTempC)
	}
	// Other centre nodes hot but stable near 71 degC.
	if temp := c.Node(2).Temperature(thermal.SensorCPU); math.Abs(temp-71) > 3 {
		t.Errorf("mc03 temp = %.1f, want ~71", temp)
	}
}

func TestAirflowMitigationRecoversNode7(t *testing.T) {
	e, c := newCluster(t, Config{})
	if err := c.BootAndSettle(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RunWorkloadOn(c.AllNodes(), "hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(e.Now() + 3600); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyAirflowMitigation(); err != nil {
		t.Fatal(err)
	}
	// Node 7 reboots; wait for boot plus thermal relaxation.
	if err := e.RunUntil(e.Now() + 600); err != nil {
		t.Fatal(err)
	}
	if st := c.Node(6).State(); st != node.StateRunning {
		t.Fatalf("mc07 state = %s after mitigation", st)
	}
	// Re-run HPL everywhere: the hottest node now stays near 39 degC.
	if err := c.RunWorkloadOn(c.AllNodes(), "hpl", power.ActivityHPL, 13e9); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(e.Now() + 1800); err != nil {
		t.Fatal(err)
	}
	hottest := 0.0
	for i := 0; i < c.Size(); i++ {
		if temp := c.Node(i).Temperature(thermal.SensorCPU); temp > hottest {
			hottest = temp
		}
	}
	if math.Abs(hottest-39) > 2 {
		t.Errorf("hottest post-mitigation = %.1f, want ~39", hottest)
	}
}

func TestStopTicker(t *testing.T) {
	e, c := newCluster(t, Config{})
	if err := c.BootAndSettle(1); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	before := e.Pending()
	if err := e.RunUntil(e.Now() + 10); err != nil {
		t.Fatal(err)
	}
	if e.Pending() > before {
		t.Error("ticker still scheduling after Stop")
	}
	// Idempotent.
	c.Stop()
}

func TestSmallCluster(t *testing.T) {
	_, c := newCluster(t, Config{Nodes: 3})
	if c.Size() != 3 {
		t.Fatalf("size = %d", c.Size())
	}
	if hosts := c.Hostnames(); hosts[2] != "mc03" {
		t.Errorf("hostnames = %v", hosts)
	}
	if c.Fabric().Nodes() != 3 {
		t.Errorf("fabric nodes = %d, want 3", c.Fabric().Nodes())
	}
}

// TestSyntheticSlots: a cluster larger than the eight-slot enclosure
// needs no option; its extra nodes reuse the slot thermal environments
// modulo eight.
func TestSyntheticSlots(t *testing.T) {
	_, c := newCluster(t, Config{Nodes: 12})
	if c.Size() != 12 {
		t.Fatalf("size = %d, want 12", c.Size())
	}
	hosts := c.Hostnames()
	if hosts[8] != "mc09" || hosts[11] != "mc12" {
		t.Errorf("synthetic hostnames = %v", hosts[8:])
	}
	if c.Fabric().Nodes() != 12 {
		t.Errorf("fabric nodes = %d, want 12", c.Fabric().Nodes())
	}
	// Synthetic nodes boot like physical ones (slot envs wrap modulo 8).
	if err := c.BootAndSettle(1); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	for i := 0; i < c.Size(); i++ {
		if c.Node(i).State() != node.StateRunning {
			t.Errorf("node %d state %s after boot", i+1, c.Node(i).State())
		}
	}
}
