// Package netsim models the Monte Cimone interconnects: the 1 Gb/s Ethernet
// fabric (Microsemi VSC8541 PHY per board, used for all production MPI
// traffic in the paper) and the Mellanox ConnectX-4 FDR InfiniBand HCAs the
// authors installed on two nodes. The paper reports the IB devices are
// recognised by the kernel and pass an ib-ping test, but RDMA verbs fail
// due to yet-to-be-pinpointed software-stack/kernel-driver incompatibilities
// — modelled here as an explicit capability gate.
//
// Transfer times follow a deterministic alpha-beta law with NIC sharing:
// arrival = departure + latency + bytes / (bandwidth / sharing), where
// sharing is the number of co-located MPI ranks contending for the node's
// single NIC. Determinism matters: the MPI layer computes times from each
// sender's local clock only, so simulated results are bit-reproducible
// regardless of host goroutine scheduling.
package netsim

import (
	"errors"
	"fmt"
)

// LinkKind identifies an interconnect technology.
type LinkKind int

// Supported interconnects.
const (
	KindGigabitEthernet LinkKind = iota + 1
	KindInfinibandFDR
)

// String names the link kind.
func (k LinkKind) String() string {
	switch k {
	case KindGigabitEthernet:
		return "1GbE"
	case KindInfinibandFDR:
		return "IB-FDR"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// Link describes one interconnect's characteristics.
type Link struct {
	// Kind is the technology.
	Kind LinkKind
	// BandwidthBps is the effective payload bandwidth in bytes/s after
	// protocol overheads.
	BandwidthBps float64
	// LatencySec is the one-way small-message latency.
	LatencySec float64
	// RDMAWorking reports whether RDMA verbs complete; the paper's FDR
	// HCAs enumerate and ping but cannot run RDMA yet.
	RDMAWorking bool
}

// GigabitEthernet returns the production 1 Gb/s fabric: ~117.5 MB/s
// effective TCP payload bandwidth and ~45 us one-way latency through the
// top-of-rack switch.
func GigabitEthernet() Link {
	return Link{
		Kind:         KindGigabitEthernet,
		BandwidthBps: 117.5e6,
		LatencySec:   45e-6,
	}
}

// InfinibandFDR returns the Mellanox ConnectX-4 FDR link (56 Gbit/s):
// ~6.0 GB/s effective and 1.2 us latency — with RDMA disabled, matching
// the paper's driver status.
func InfinibandFDR() Link {
	return Link{
		Kind:         KindInfinibandFDR,
		BandwidthBps: 6.0e9,
		LatencySec:   1.2e-6,
		RDMAWorking:  false,
	}
}

// InfinibandFDRWorking returns the same FDR link with RDMA functional —
// the hypothetical future state used by the interconnect ablation.
func InfinibandFDRWorking() Link {
	l := InfinibandFDR()
	l.RDMAWorking = true
	return l
}

// Intra-node transfer characteristics (shared-memory MPI transport).
const (
	localBandwidthBps = 2.4e9
	localLatencySec   = 0.8e-6
)

// Fabric is a star topology of nodes around one switch.
type Fabric struct {
	nodes int
	link  Link

	// Degradation multipliers (chaos campaigns): latMult >= 1 stretches the
	// inter-node latency, bwMult in (0,1] shrinks the effective inter-node
	// bandwidth. Both default to 1 (healthy fabric); intra-node transfers
	// are unaffected (shared memory does not ride the switch).
	latMult float64
	bwMult  float64
}

// NewFabric builds a fabric of the given node count over one link type.
func NewFabric(nodes int, link Link) (*Fabric, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("netsim: node count must be positive, got %d", nodes)
	}
	if link.BandwidthBps <= 0 || link.LatencySec < 0 {
		return nil, fmt.Errorf("netsim: invalid link %+v", link)
	}
	return &Fabric{nodes: nodes, link: link, latMult: 1, bwMult: 1}, nil
}

// Nodes returns the node count.
func (f *Fabric) Nodes() int { return f.nodes }

// Link returns the inter-node link description.
func (f *Fabric) Link() Link { return f.link }

// SetDegradation installs fault-injection multipliers on the inter-node
// path: latencyMult >= 1 stretches the one-way latency, bandwidthMult in
// (0,1] shrinks the effective bandwidth. (1, 1) restores the healthy
// fabric.
func (f *Fabric) SetDegradation(latencyMult, bandwidthMult float64) error {
	if latencyMult < 1 {
		return fmt.Errorf("netsim: latency multiplier must be >= 1, got %v", latencyMult)
	}
	if bandwidthMult <= 0 || bandwidthMult > 1 {
		return fmt.Errorf("netsim: bandwidth multiplier must be in (0,1], got %v", bandwidthMult)
	}
	f.latMult, f.bwMult = latencyMult, bandwidthMult
	return nil
}

// LatencySec returns the effective inter-node one-way latency including any
// injected degradation; the MPI layer uses it instead of Link().LatencySec.
func (f *Fabric) LatencySec() float64 { return f.link.LatencySec * f.latMult }

// TransferTime returns the time for a payload of the given bytes between
// two nodes (or within one node when srcNode == dstNode). sharing is the
// number of ranks contending for the sender's NIC (>=1); it divides the
// effective bandwidth for inter-node transfers.
func (f *Fabric) TransferTime(srcNode, dstNode int, bytes float64, sharing int) (float64, error) {
	if err := f.checkNode(srcNode); err != nil {
		return 0, err
	}
	if err := f.checkNode(dstNode); err != nil {
		return 0, err
	}
	if bytes < 0 {
		return 0, fmt.Errorf("netsim: negative transfer size %v", bytes)
	}
	if sharing < 1 {
		sharing = 1
	}
	if srcNode == dstNode {
		return localLatencySec + bytes/localBandwidthBps, nil
	}
	bw := f.link.BandwidthBps * f.bwMult / float64(sharing)
	return f.link.LatencySec*f.latMult + bytes/bw, nil
}

func (f *Fabric) checkNode(n int) error {
	if n < 0 || n >= f.nodes {
		return fmt.Errorf("netsim: node %d out of range [0,%d)", n, f.nodes)
	}
	return nil
}

// ErrRDMAUnsupported is returned by RDMA operations on a link whose driver
// stack cannot run verbs (the paper's current FDR state).
var ErrRDMAUnsupported = errors.New(
	"netsim: RDMA verbs unavailable: software stack / kernel driver incompatibility (feature under development)")

// HCA models one Mellanox ConnectX-4 FDR host channel adapter plugged into
// a node's PCIe Gen3 x8 slot.
type HCA struct {
	node int
	link Link

	moduleLoaded bool
}

// NewHCA installs an HCA on a node over the given IB link.
func NewHCA(node int, link Link) (*HCA, error) {
	if link.Kind != KindInfinibandFDR {
		return nil, fmt.Errorf("netsim: HCA requires an InfiniBand link, got %v", link.Kind)
	}
	return &HCA{node: node, link: link}, nil
}

// Recognised reports whether the kernel enumerates the device; the paper's
// boards see the HCA on the PCIe bus (x8 Gen3 lanes, vendor supported).
func (h *HCA) Recognised() bool { return true }

// LoadModule loads the Mellanox OFED kernel module.
func (h *HCA) LoadModule() error {
	h.moduleLoaded = true
	return nil
}

// Ping runs an ib-ping against a peer HCA and returns the round-trip time.
// It works on Monte Cimone (board to board, and board to an HPC server).
func (h *HCA) Ping(peer *HCA) (float64, error) {
	if !h.moduleLoaded {
		return 0, fmt.Errorf("netsim: HCA module not loaded on node %d", h.node)
	}
	if peer == nil || !peer.moduleLoaded {
		return 0, fmt.Errorf("netsim: peer HCA not ready")
	}
	return 2 * h.link.LatencySec, nil
}

// RDMAWrite posts an RDMA write to a peer; on the paper's stack it fails
// with ErrRDMAUnsupported.
func (h *HCA) RDMAWrite(peer *HCA, bytes float64) (float64, error) {
	if !h.moduleLoaded {
		return 0, fmt.Errorf("netsim: HCA module not loaded on node %d", h.node)
	}
	if peer == nil || !peer.moduleLoaded {
		return 0, fmt.Errorf("netsim: peer HCA not ready")
	}
	if !h.link.RDMAWorking {
		return 0, ErrRDMAUnsupported
	}
	if bytes < 0 {
		return 0, fmt.Errorf("netsim: negative RDMA size %v", bytes)
	}
	return h.link.LatencySec + bytes/h.link.BandwidthBps, nil
}
