package examon

import (
	"fmt"
	"runtime"
	"testing"
)

// maxLiveHeapPerSeries bounds what TestLiveHeapPerSeries measures: 964 B
// a series on linux/amd64, with room for the allocator's rounding and
// little else. A raw 128-point open chunk alone would add 2 KB.
const maxLiveHeapPerSeries = 1100

// TestLiveHeapPerSeries bounds the live heap a store holds per series
// with a short history, as query-serve's store and a monitored
// campaign's first minutes hold: the growth of HeapAlloc across building
// a broker and its store, registering 4,096 handles and publishing 120
// ticks through them, each side read after a full collection. No series
// reaches a seal, so the figure is the series' fixed state plus its open
// chunk. Growth in per-series state fails here before a 10,000-node
// monitored run pays for it 520,000 times over.
func TestLiveHeapPerSeries(t *testing.T) {
	const series, ticks = 4096, 120
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b := NewBroker()
	st, err := NewMemStore().Attach(b)
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]*SeriesHandle, series)
	base := make([]float64, series)
	for i := range hs {
		if hs[i], err = b.Register(Tags{Node: fmt.Sprintf("mc%04d", i/8), Plugin: "pmu_pub",
			Core: i % 8, Metric: "instret"}); err != nil {
			t.Fatal(err)
		}
		base[i] = float64(i * 7919 % 10000)
	}
	vs := make([]float64, series)
	for k := 0; k < ticks; k++ {
		for i := range vs {
			vs[i] = base[i] + float64(k)
		}
		if err := b.Publish(0.5*float64(k), hs, vs); err != nil {
			t.Fatal(err)
		}
	}
	base, vs = nil, nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(st)
	runtime.KeepAlive(hs)
	perSeries := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / series
	t.Logf("live heap %.0f B/series at %d series × %d points", perSeries, series, ticks)
	if perSeries > maxLiveHeapPerSeries {
		t.Errorf("live heap %.0f B/series after %d ticks, bound %d B/series: per-series state grew",
			perSeries, ticks, maxLiveHeapPerSeries)
	}
}
