package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"montecimone/internal/examon"
)

// The query-serve workload: an examon mem store preloaded with ticks of a
// synthetic cluster, served by examon.NewRESTServer over loopback to two
// closed-loop clients (one connection each) while a writer publishes one
// cluster tick every writeEvery through Broker.PublishBatch into the
// store. The writer takes about a tenth of one core; at one tick per 50 ms
// it took most of a core and query throughput swung with its share. No simulator runs: it is the telemetry read path with live
// ingest beside it.

// Series layout per node: 8 PMU counters on each of 8 harts, 32 stats_pub
// metrics and the CPU temperature, the deployment's 97 series.
const (
	qsCores       = 8
	qsPMUMetrics  = 8
	qsStatMetrics = 32
	qsSeries      = qsCores*qsPMUMetrics + qsStatMetrics + 1
	qsTempSeries  = qsSeries - 1
	qsTickS       = 0.5 // virtual seconds between ticks (2 Hz sampling)
	qsPreload     = 120 // preloaded ticks: 60 s, one full rollup bucket
	qsWindowEnd   = qsPreload * qsTickS
	qsClients     = 2
	qsCheckEvery  = 16                     // every 16th response of a client is checked in full
	writeEvery    = 250 * time.Millisecond // twice the 2 Hz sampling clock
)

var qsPMUNames = func() []string {
	names := []string{"instret", "cycle"}
	for i := len(names); i < qsPMUMetrics; i++ {
		names = append(names, fmt.Sprintf("hpm%02d", i))
	}
	return names
}()

// queryKinds is the seeded request mix: per-node aggregation served from
// the rollup tier, per-node raw range reads, and a cluster-wide maximum.
var queryKinds = [...]struct {
	name   string
	weight float64
}{
	{"node_agg", 0.475},
	{"node_raw", 0.475},
	{"cluster_agg", 0.05},
}

type qsSize struct {
	nodes  int
	window time.Duration // load window per repetition
}

func querySize(tiny bool) qsSize {
	if tiny {
		return qsSize{nodes: 64, window: 200 * time.Millisecond}
	}
	return qsSize{nodes: 512, window: 2500 * time.Millisecond}
}

func qsHost(i int) string { return fmt.Sprintf("syn%04d", i+1) }

// qsBase is the seeded per-series offset: sample k of the series has
// value qsBase + k, an integer, so every aggregate the server computes
// over it is exact in float64 and checkable bit for bit.
func qsBase(seed int64, node, series int) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(node+1)*0xBF58476D1CE4E5B9 ^ uint64(series+1)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	return float64(x % 10000)
}

// qsTags returns the tags of series s on a node.
func qsTags(host string, s int) examon.Tags {
	switch {
	case s < qsCores*qsPMUMetrics:
		return examon.Tags{Org: "unibo", Cluster: "bench", Node: host, Plugin: "pmu_pub",
			Core: s / qsPMUMetrics, Metric: qsPMUNames[s%qsPMUMetrics]}
	case s < qsTempSeries:
		return examon.Tags{Org: "unibo", Cluster: "bench", Node: host, Plugin: "dstat_pub",
			Core: -1, Metric: fmt.Sprintf("stat%02d", s-qsCores*qsPMUMetrics)}
	}
	return examon.Tags{Org: "unibo", Cluster: "bench", Node: host, Plugin: "dstat_pub",
		Core: -1, Metric: "temperature.cpu_temp"}
}

// qsTick fills batch with one node's samples for tick k.
func qsTick(batch []examon.Sample, tags []examon.Tags, seed int64, node, k int) []examon.Sample {
	batch = batch[:0]
	for s, tg := range tags {
		batch = append(batch, examon.Sample{Tags: tg, T: float64(k) * qsTickS, V: qsBase(seed, node, s) + float64(k)})
	}
	return batch
}

// qsRequest is one generated query.
type qsRequest struct {
	kind       int
	node, core int
	metric     int // PMU metric index
	from       float64
}

func (q qsRequest) url(base string) string {
	switch queryKinds[q.kind].name {
	case "node_agg":
		return fmt.Sprintf("%s/api/v2/query?node=%s&plugin=pmu_pub&metric=%s&agg=avg&step=60&from=0&to=%g",
			base, qsHost(q.node), qsPMUNames[q.metric], qsWindowEnd)
	case "node_raw":
		return fmt.Sprintf("%s/api/v1/query?node=%s&metric=%s&core=%d&from=%g&to=%g",
			base, qsHost(q.node), qsPMUNames[q.metric], q.core, q.from, q.from+10)
	}
	return fmt.Sprintf("%s/api/v2/query?plugin=dstat_pub&metric=temperature.cpu_temp&agg=max&step=60&from=0&to=%g",
		base, qsWindowEnd)
}

// nextRequest draws the next query of a client's seeded stream.
func nextRequest(rng *rand.Rand, nodes int) qsRequest {
	u := rng.Float64()
	kind := 0
	for kind < len(queryKinds)-1 && u >= queryKinds[kind].weight {
		u -= queryKinds[kind].weight
		kind++
	}
	return qsRequest{
		kind:   kind,
		node:   rng.Intn(nodes),
		core:   rng.Intn(qsCores),
		metric: rng.Intn(qsPMUMetrics),
		// Raw windows of 10 s start on a tick inside the preloaded minute.
		from: qsTickS * float64(rng.Intn(qsPreload-20)),
	}
}

// qsResponse is the JSON shape both query versions answer with.
type qsResponse struct {
	Series []struct {
		Node   string      `json:"node"`
		Core   int         `json:"core"`
		Metric string      `json:"metric"`
		Points [][]float64 `json:"points"`
	} `json:"series"`
}

// check compares a response body with the values the generator stored.
func (q qsRequest) check(body []byte, seed int64, nodes int) error {
	var resp qsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	type want struct {
		node, series int
		points       [][]float64
	}
	var wants []want
	const last = qsPreload - 1
	switch queryKinds[q.kind].name {
	case "node_agg":
		for c := 0; c < qsCores; c++ {
			s := c*qsPMUMetrics + q.metric
			wants = append(wants, want{q.node, s, [][]float64{{0, qsBase(seed, q.node, s) + last/2.0, qsPreload}}})
		}
	case "node_raw":
		s := q.core*qsPMUMetrics + q.metric
		var pts [][]float64
		for k := int(q.from / qsTickS); float64(k)*qsTickS < q.from+10; k++ {
			pts = append(pts, []float64{float64(k) * qsTickS, qsBase(seed, q.node, s) + float64(k)})
		}
		wants = append(wants, want{q.node, s, pts})
	default:
		for n := 0; n < nodes; n++ {
			wants = append(wants, want{n, qsTempSeries, [][]float64{{0, qsBase(seed, n, qsTempSeries) + last, qsPreload}}})
		}
	}
	if len(resp.Series) != len(wants) {
		return fmt.Errorf("%d series, want %d", len(resp.Series), len(wants))
	}
	got := make(map[string][][]float64, len(resp.Series))
	for _, s := range resp.Series {
		got[s.Node+"/"+strconv.Itoa(s.Core)+"/"+s.Metric] = s.Points
	}
	for _, w := range wants {
		tg := qsTags(qsHost(w.node), w.series)
		key := tg.Node + "/" + strconv.Itoa(tg.Core) + "/" + tg.Metric
		pts, ok := got[key]
		if !ok {
			return fmt.Errorf("series %s missing", key)
		}
		if fmt.Sprint(pts) != fmt.Sprint(w.points) {
			return fmt.Errorf("series %s: points %v, want %v", key, pts, w.points)
		}
	}
	return nil
}

// qsDone is one completed request.
type qsDone struct {
	kind int
	ok   bool
	ms   float64 // latency
}

// qsClient is one closed-loop client's record of its load window.
type qsClient struct {
	done []qsDone
	kept []qsKept // responses set aside for the full check
}

type qsKept struct {
	req  qsRequest
	body []byte
}

// load sends requests back to back until the deadline, each after the
// previous one completed.
func (c *qsClient) load(client *http.Client, base string, rng *rand.Rand, nodes int, deadline time.Time) {
	for i := 0; time.Now().Before(deadline); i++ {
		req := nextRequest(rng, nodes)
		t0 := time.Now()
		body, err := get(client, req.url(base))
		c.done = append(c.done, qsDone{req.kind, err == nil, 1000 * time.Since(t0).Seconds()})
		if err == nil && i%qsCheckEvery == 0 {
			c.kept = append(c.kept, qsKept{req, body})
		}
	}
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return body, nil
}

// runQueryServe runs one repetition: setup is the store preload plus the
// server start, the measured phase is the load window.
func runQueryServe(sz qsSize, seed int64, prof *cpuProfile) (*repResult, error) {
	r := newRep()
	t0 := time.Now()
	st := examon.NewMemStore()
	tags := make([][]examon.Tags, sz.nodes)
	for n := range tags {
		for s := 0; s < qsSeries; s++ {
			tags[n] = append(tags[n], qsTags(qsHost(n), s))
		}
	}
	batch := make([]examon.Sample, 0, qsSeries)
	for k := 0; k < qsPreload; k++ {
		for n := 0; n < sz.nodes; n++ {
			batch = qsTick(batch, tags[n], seed, n, k)
			st.InsertBatch(batch)
		}
	}
	preloadS := time.Since(t0).Seconds()
	broker := examon.NewBroker()
	db, err := examon.NewTSDBOn(st)
	if err != nil {
		return nil, err
	}
	if _, err := db.Attach(broker); err != nil {
		return nil, err
	}
	handler, err := examon.NewRESTServer(st)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Shutdown(context.Background())
		<-served
	}()
	r.setupS = []float64{time.Since(t0).Seconds()}
	r.exact["examon.series"] = float64(st.SeriesCount())
	r.sampled["examon.preload_samples_per_s"] = ratio(float64(sz.nodes*qsSeries*qsPreload), preloadS)

	base := "http://" + ln.Addr().String()
	clients := make([]qsClient, qsClients)
	var tickMS []float64
	var published int
	if err := r.measure(prof, func() error {
		deadline := time.Now().Add(sz.window)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var werr error
		wg.Add(1)
		go func() { // the writer: one cluster tick per writeEvery
			defer wg.Done()
			ticker := time.NewTicker(writeEvery)
			defer ticker.Stop()
			batch := make([]examon.Sample, 0, qsSeries)
			for k := qsPreload; ; k++ {
				select {
				case <-stop:
					return
				case <-ticker.C:
				}
				t := time.Now()
				for n := 0; n < sz.nodes; n++ {
					batch = qsTick(batch, tags[n], seed, n, k)
					if err := broker.PublishBatch(batch); err != nil {
						werr = err
						return
					}
				}
				tickMS = append(tickMS, 1000*time.Since(t).Seconds())
				published += sz.nodes * qsSeries
			}
		}()
		var cwg sync.WaitGroup
		for i := range clients {
			cwg.Add(1)
			go func(i int) {
				defer cwg.Done()
				tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
				defer tr.CloseIdleConnections()
				rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
				clients[i].load(&http.Client{Transport: tr}, base, rng, sz.nodes, deadline)
			}(i)
		}
		cwg.Wait()
		close(stop)
		wg.Wait()
		return werr
	}); err != nil {
		return nil, err
	}

	var all []float64
	var byKind [len(queryKinds)][]float64
	for i := range clients {
		c := &clients[i]
		for _, d := range c.done {
			all = append(all, d.ms)
			byKind[d.kind] = append(byKind[d.kind], d.ms)
			if !d.ok {
				r.failed++
			}
		}
		for _, kept := range c.kept {
			if err := kept.req.check(kept.body, seed, sz.nodes); err != nil {
				r.failed++
				r.problems = append(r.problems, fmt.Sprintf("%s: %v", queryKinds[kept.req.kind].name, err))
			}
		}
	}
	r.ops = len(all)
	if r.ops == 0 {
		return nil, errors.New("query-serve: no request completed in the load window")
	}
	r.latencyMS = median(all)
	for k, lat := range byKind {
		var sum float64
		for _, ms := range lat {
			sum += ms
		}
		r.sampled["examon.q_"+queryKinds[k].name+"_per_s"] = ratio(float64(len(lat)), sum/1000)
	}
	var tickSum float64
	for _, ms := range tickMS {
		tickSum += ms
	}
	r.sampled["examon.ingest_samples_per_s"] = ratio(float64(published), tickSum/1000)
	r.notes = fmt.Sprintf("ingest tick p50 %.2fms p95 %.2fms (%d ticks)",
		percentile(tickMS, 50), percentile(tickMS, 95), len(tickMS))
	for k, lat := range byKind {
		r.notes += fmt.Sprintf("; %s n=%d p50 %.3fms p99 %.3fms",
			queryKinds[k].name, len(lat), percentile(lat, 50), percentile(lat, 99))
	}
	return r, nil
}
