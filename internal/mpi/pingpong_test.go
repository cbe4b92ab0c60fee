package mpi

import (
	"errors"
	"math"
	"testing"

	"montecimone/internal/netsim"
)

// runPingPong executes the microbenchmark over a two-node fabric of the
// given link.
func runPingPong(t *testing.T, link netsim.Link, bytes float64, iters int) PingPongResult {
	t.Helper()
	fabric, err := netsim.NewFabric(2, link)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PingPong(fabric, bytes, iters)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPingPongLatencyBits pins the one-way latency bit for bit on a
// healthy GbE, a healthy FDR and a degraded GbE fabric. The table was
// recorded from a goroutine-per-rank message-passing runtime (rank 0's
// clock after its last receive); the closed form reproduces every bit.
func TestPingPongLatencyBits(t *testing.T) {
	cases := []struct {
		fabric string
		bytes  float64
		iters  int
		bits   uint64
	}{
		{"gbe", 0, 1, 0x3f08a43bb40b34e8},                   // 4.7000000000000004e-05
		{"gbe", 0, 200, 0x3f08a43bb40b34cd},                 // 4.699999999999982e-05
		{"gbe", 0, 1000, 0x3f08a43bb40b36d4},                // 4.700000000000334e-05
		{"gbe", 1, 1, 0x3f08a5602068f0ae},                   // 4.7008510638297876e-05
		{"gbe", 1, 200, 0x3f08a5602068f0c0},                 // 4.7008510638298e-05
		{"gbe", 1, 1000, 0x3f08a5602068f027},                // 4.700851063829696e-05
		{"gbe", 4096, 1, 0x3f157580c7e3cb3a},                // 8.18595744680851e-05
		{"gbe", 4096, 200, 0x3f157580c7e3cb37},              // 8.185957446808506e-05
		{"gbe", 4096, 1000, 0x3f157580c7e3cae5},             // 8.185957446808395e-05
		{"gbe", 1 << 20, 1, 0x3f825f6a17706cc3},             // 0.008971051063829788
		{"gbe", 1 << 20, 200, 0x3f825f6a17706c7d},           // 0.008971051063829666
		{"gbe", 1 << 20, 1000, 0x3f825f6a17706c1d},          // 0.0089710510638295
		{"fdr", 0, 1, 0x3ecad7f29abcaf48},                   // 3.2e-06
		{"fdr", 0, 200, 0x3ecad7f29abcafac},                 // 3.200000000000042e-06
		{"fdr", 0, 1000, 0x3ecad7f29abcaeb6},                // 3.199999999999938e-06
		{"fdr", 1, 1, 0x3ecad84e3afc3017},                   // 3.2001666666666665e-06
		{"fdr", 1, 200, 0x3ecad84e3afc3063},                 // 3.2001666666666987e-06
		{"fdr", 1, 1000, 0x3ecad84e3afc3013},                // 3.2001666666666648e-06
		{"fdr", 4096, 1, 0x3ed048fb4964d0bd},                // 3.882666666666667e-06
		{"fdr", 4096, 200, 0x3ed048fb4964d0eb},              // 3.882666666666706e-06
		{"fdr", 4096, 1000, 0x3ed048fb4964d03c},             // 3.8826666666665574e-06
		{"fdr", 1 << 20, 1, 0x3f27536faa9ebb83},             // 0.00017796266666666666
		{"fdr", 1 << 20, 200, 0x3f27536faa9ebbc8},           // 0.00017796266666666853
		{"fdr", 1 << 20, 1000, 0x3f27536faa9ebac4},          // 0.00017796266666666148
		{"gbe-degraded", 0, 1, 0x3f21f4f50a02b841},          // 0.000137
		{"gbe-degraded", 0, 200, 0x3f21f4f50a02b880},        // 0.0001370000000000017
		{"gbe-degraded", 0, 1000, 0x3f21f4f50a02b821},       // 0.00013699999999999913
		{"gbe-degraded", 1, 1, 0x3f21f61976607407},          // 0.00013703404255319148
		{"gbe-degraded", 1, 200, 0x3f21f61976607403},        // 0.00013703404255319137
		{"gbe-degraded", 1, 1000, 0x3f21f6197660745a},       // 0.00013703404255319373
		{"gbe-degraded", 4096, 1, 0x3f321ddd72df8ce7},       // 0.0002764382978723404
		{"gbe-degraded", 4096, 200, 0x3f321ddd72df8cf3},     // 0.00027643829787234105
		{"gbe-degraded", 4096, 1000, 0x3f321ddd72df8c4a},    // 0.0002764382978723319
		{"gbe-degraded", 1 << 20, 1, 0x3fa258bad0c66447},    // 0.035833204255319155
		{"gbe-degraded", 1 << 20, 200, 0x3fa258bad0c66436},  // 0.03583320425531904
		{"gbe-degraded", 1 << 20, 1000, 0x3fa258bad0c6639e}, // 0.03583320425531798
	}
	for _, c := range cases {
		link := netsim.GigabitEthernet()
		if c.fabric == "fdr" {
			link = netsim.InfinibandFDR()
		}
		fabric, err := netsim.NewFabric(2, link)
		if err != nil {
			t.Fatal(err)
		}
		if c.fabric == "gbe-degraded" {
			if err := fabric.SetDegradation(3, 0.25); err != nil {
				t.Fatal(err)
			}
		}
		res, err := PingPong(fabric, c.bytes, c.iters)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(res.LatencySec); got != c.bits {
			t.Errorf("%s, %v B x %d: latency %v (%#016x), want %v (%#016x)",
				c.fabric, c.bytes, c.iters, res.LatencySec, got, math.Float64frombits(c.bits), c.bits)
		}
		if res.Bytes != c.bytes || res.Iterations != c.iters {
			t.Errorf("%s, %v B x %d: result echoes %v B x %d", c.fabric, c.bytes, c.iters, res.Bytes, res.Iterations)
		}
		if want := c.bytes / res.LatencySec; res.BandwidthBps != want {
			t.Errorf("%s, %v B x %d: bandwidth %v, want %v", c.fabric, c.bytes, c.iters, res.BandwidthBps, want)
		}
	}
}

func TestPingPongSmallMessageLatency(t *testing.T) {
	// A 1-byte ping-pong measures the stack latency: link latency plus
	// the per-message software overhead.
	res := runPingPong(t, netsim.GigabitEthernet(), 1, 100)
	wantFloor := 45e-6 // wire latency
	if res.LatencySec < wantFloor || res.LatencySec > wantFloor*1.2 {
		t.Errorf("one-way latency = %v, want ~%v", res.LatencySec, wantFloor)
	}
}

func TestPingPongLargeMessageBandwidth(t *testing.T) {
	// A large ping-pong converges to the link payload bandwidth.
	res := runPingPong(t, netsim.GigabitEthernet(), 8e6, 20)
	link := netsim.GigabitEthernet()
	if math.Abs(res.BandwidthBps-link.BandwidthBps)/link.BandwidthBps > 0.02 {
		t.Errorf("bandwidth = %.1f MB/s, want ~%.1f", res.BandwidthBps/1e6, link.BandwidthBps/1e6)
	}
}

func TestPingPongInfinibandMuchFaster(t *testing.T) {
	gbe := runPingPong(t, netsim.GigabitEthernet(), 1, 50)
	ib := runPingPong(t, netsim.InfinibandFDRWorking(), 1, 50)
	if ib.LatencySec >= gbe.LatencySec/5 {
		t.Errorf("IB latency %v not well below GbE %v", ib.LatencySec, gbe.LatencySec)
	}
}

func TestPingPongValidation(t *testing.T) {
	fabric, err := netsim.NewFabric(2, netsim.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PingPong(nil, 8, 1); err == nil {
		t.Error("nil fabric accepted")
	}
	if _, err := PingPong(fabric, -1, 10); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := PingPong(fabric, 10, 0); err == nil {
		t.Error("zero iterations accepted")
	}
	// A fabric without node 1 has no second rank: the transfer law's
	// range error propagates.
	single, err := netsim.NewFabric(1, netsim.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PingPong(single, 8, 1); err == nil {
		t.Error("single-node fabric accepted")
	}
}

// TestNewWorldValidation checks the ping-pong's world: one rank on each
// of fabric nodes 0 and 1. It needs a fabric holding both nodes, and on a
// wider fabric the other nodes play no part.
func TestNewWorldValidation(t *testing.T) {
	if _, err := PingPong(nil, 8, 1); err == nil {
		t.Error("nil fabric accepted")
	}
	single, err := netsim.NewFabric(1, netsim.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PingPong(single, 8, 1); err == nil {
		t.Error("rank 1 placed outside a one-node fabric")
	}
	pair := runPingPong(t, netsim.GigabitEthernet(), 4096, 10)
	wide, err := netsim.NewFabric(4, netsim.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	res, err := PingPong(wide, 4096, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res != pair {
		t.Errorf("four-node fabric gives %+v, want the two-node %+v", res, pair)
	}
}

// TestSendValidation checks the message size and round-trip count a
// ping-pong sends: negative sizes and non-positive counts are refused,
// while an empty message is valid and costs only the fixed latencies.
func TestSendValidation(t *testing.T) {
	fabric, err := netsim.NewFabric(2, netsim.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	for _, bytes := range []float64{-1, -1e-9} {
		if _, err := PingPong(fabric, bytes, 10); err == nil {
			t.Errorf("size %v accepted", bytes)
		}
	}
	for _, iters := range []int{0, -1} {
		if _, err := PingPong(fabric, 8, iters); err == nil {
			t.Errorf("%d iterations accepted", iters)
		}
	}
	res, err := PingPong(fabric, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := sendOverheadSec + netsim.GigabitEthernet().LatencySec; res.LatencySec != want {
		t.Errorf("empty-message latency %v, want overhead plus wire latency %v", res.LatencySec, want)
	}
	if res.BandwidthBps != 0 {
		t.Errorf("empty-message bandwidth %v, want 0", res.BandwidthBps)
	}
}

// TestRunPropagatesErrors checks that a fabric error ends the run and
// reaches the caller wrapped, not replaced.
func TestRunPropagatesErrors(t *testing.T) {
	single, err := netsim.NewFabric(1, netsim.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	_, fabricErr := single.TransferTime(0, 1, 8, 1)
	if fabricErr == nil {
		t.Fatal("one-node fabric accepted a transfer to node 1")
	}
	res, err := PingPong(single, 8, 1)
	if err == nil {
		t.Fatal("fabric error not propagated")
	}
	if res != (PingPongResult{}) {
		t.Errorf("failed run returned %+v, want the zero result", res)
	}
	if inner := errors.Unwrap(err); inner == nil || inner.Error() != fabricErr.Error() {
		t.Errorf("error %q does not wrap the fabric's %q", err, fabricErr)
	}
}
