package mpi

import (
	"testing"

	"montecimone/internal/netsim"
)

// newWorld builds a world of ranks ranks packed 4-per-node over GbE.
func newWorld(t *testing.T, ranks int) *World {
	t.Helper()
	nodes := (ranks + 3) / 4
	fabric, err := netsim.NewFabric(nodes, netsim.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	placement := make([]int, ranks)
	for r := range placement {
		placement[r] = r / 4
	}
	w, err := NewWorld(fabric, placement)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldValidation(t *testing.T) {
	fabric, _ := netsim.NewFabric(2, netsim.GigabitEthernet())
	if _, err := NewWorld(nil, []int{0}); err == nil {
		t.Error("nil fabric accepted")
	}
	if _, err := NewWorld(fabric, nil); err == nil {
		t.Error("empty placement accepted")
	}
	if _, err := NewWorld(fabric, []int{0, 5}); err == nil {
		t.Error("out-of-fabric placement accepted")
	}
}

func TestSendRecvPayloadAndClock(t *testing.T) {
	w := newWorld(t, 8) // 2 nodes
	err := w.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			// A 1 MB message first puts rank 0's clock ahead of rank 4's.
			if err := p.Send(4, 6, 1e6); err != nil {
				return err
			}
			return p.Send(4, 7, 16)
		case 4:
			first, err := p.Recv(0, 6)
			if err != nil {
				return err
			}
			msg, err := p.Recv(0, 7)
			if err != nil {
				return err
			}
			if msg.Src != 0 || msg.Tag != 7 || msg.Bytes != 16 {
				t.Errorf("envelope = %+v, want src 0, tag 7, 16 bytes", msg)
			}
			// Arrival after the sender's first transfer plus the second.
			if p.Now() <= first.arrival {
				t.Errorf("receiver clock %v, want after the first arrival %v", p.Now(), first.arrival)
			}
			if p.Now() != msg.arrival {
				t.Errorf("receiver clock %v, want the arrival %v", p.Now(), msg.arrival)
			}
			if p.Now() > first.arrival+0.001 {
				t.Errorf("receiver clock %v suspiciously late", p.Now())
			}
			return nil
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendValidation(t *testing.T) {
	w := newWorld(t, 4)
	err := w.Run(func(p *Proc) error {
		if p.Rank() != 0 {
			return nil
		}
		if err := p.Send(0, 1, 8); err == nil {
			t.Error("self-send accepted")
		}
		if err := p.Send(99, 1, 8); err == nil {
			t.Error("invalid dst accepted")
		}
		if err := p.Send(1, 1, -1); err == nil {
			t.Error("negative size accepted")
		}
		if _, err := p.Recv(0, 1); err == nil {
			t.Error("self-recv accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBytesOnlyMessages(t *testing.T) {
	w := newWorld(t, 8)
	err := w.Run(func(p *Proc) error {
		switch p.Rank() {
		case 1:
			return p.Send(5, 9, 1e6)
		case 5:
			msg, err := p.Recv(1, 9)
			if err != nil {
				return err
			}
			if msg.Bytes != 1e6 {
				t.Errorf("modelled message = %+v", msg)
			}
			// 1 MB over GbE shared by 4 ranks: ~34 ms.
			if p.Now() < 0.03 || p.Now() > 0.05 {
				t.Errorf("modelled transfer clock = %v", p.Now())
			}
			return nil
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingPerPair(t *testing.T) {
	w := newWorld(t, 8)
	err := w.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			for i := 0; i < 10; i++ {
				if err := p.Send(4, 3, float64(8*i)); err != nil {
					return err
				}
			}
		case 4:
			prevArrival := -1.0
			for i := 0; i < 10; i++ {
				msg, err := p.Recv(0, 3)
				if err != nil {
					return err
				}
				if msg.Bytes != float64(8*i) {
					t.Errorf("message %d carries %v bytes", i, msg.Bytes)
				}
				if msg.arrival <= prevArrival {
					t.Error("arrivals not strictly increasing")
				}
				prevArrival = msg.arrival
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		w := newWorld(t, 16)
		err := w.Run(func(p *Proc) error {
			// Ring exchange with staggered message sizes.
			next := (p.Rank() + 1) % p.Size()
			prev := (p.Rank() - 1 + p.Size()) % p.Size()
			if err := p.Send(next, 1, float64(p.Rank())*1e4); err != nil {
				return err
			}
			if _, err := p.Recv(prev, 1); err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		clocks := make([]float64, w.Size())
		for r := range clocks {
			clocks[r] = w.Proc(r).Now()
		}
		return clocks
	}
	a, b := run(), run()
	for r := range a {
		if a[r] != b[r] {
			t.Fatalf("rank %d clock differs across runs: %v vs %v", r, a[r], b[r])
		}
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	w := newWorld(t, 4)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 2 {
			return p.Send(2, 0, 8) // self-send error
		}
		return nil
	})
	if err == nil {
		t.Fatal("rank error not propagated")
	}
}
