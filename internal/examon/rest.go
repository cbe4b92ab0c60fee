package examon

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
)

// RESTServer exposes the stored telemetry through the dedicated RESTful
// API over HTTP mentioned in Section IV-B (batch analysis scripts query
// the database through it). Two API versions are served:
//
//	GET /api/v1/series            — sorted series keys
//	GET /api/v1/query             — raw range query (copy semantics)
//	GET /api/v2/query             — raw range query, plus server-side
//	                                aggregation with agg= and step=
//
// v1's response format is frozen; v2 adds the aggregating layer
// (avg/min/max/sum/rate with step-based downsampling) so dashboards pull
// bucketed values instead of whole series. The one extension both raw
// endpoints accept is the opt-in limit= guard below — a v1 query without
// it answers exactly as it always has.
//
// Responses are rendered by the streaming append encoder (jsonenc.go):
// points flow from the storage engine's chunks straight into a pooled
// byte buffer, with no intermediate response structs and no per-request
// allocation beyond the (recycled) buffer itself. Output stays
// byte-identical to the former encoding/json path. Raw queries accept an
// optional limit=N guard: a result with more than N points answers 413
// instead of serializing unboundedly.
type RESTServer struct {
	st  *MemStore
	mux *http.ServeMux
}

// NewRESTServer builds the HTTP handler over a store.
func NewRESTServer(st *MemStore) (*RESTServer, error) {
	if st == nil {
		return nil, fmt.Errorf("examon: rest server needs a storage engine")
	}
	s := &RESTServer{st: st, mux: http.NewServeMux()}
	s.mux.HandleFunc("/api/v1/series", s.handleSeries)
	s.mux.HandleFunc("/api/v1/query", s.handleQuery)
	s.mux.HandleFunc("/api/v2/query", s.handleQueryV2)
	return s, nil
}

// AttachPowerPlane registers the /api/v2/powerplane endpoint serving the
// cluster power governor's live state. snapshot is called per request and
// its result rendered as JSON (the powerplane.Governor's Snapshot method
// fits directly; the indirection keeps this package free of a dependency
// on the plane). Attaching twice panics, like duplicate mux patterns do.
func (s *RESTServer) AttachPowerPlane(snapshot func() any) error {
	if snapshot == nil {
		return fmt.Errorf("examon: nil power plane snapshot")
	}
	s.mux.HandleFunc("/api/v2/powerplane", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, snapshot())
	})
	return nil
}

// ServeHTTP implements http.Handler.
func (s *RESTServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *RESTServer) handleSeries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	bp := jsonBufPool.Get().(*[]byte)
	b := append((*bp)[:0], `{"series":[`...)
	for i, k := range s.st.Keys() {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, k)
	}
	b = append(b, ']', '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
	putJSONBuf(bp, b)
}

// parseFilter extracts the shared node/plugin/metric/core/from/to
// parameters of both query versions.
func parseFilter(r *http.Request) (Filter, error) {
	q := r.URL.Query()
	f := Filter{
		Node:   q.Get("node"),
		Plugin: q.Get("plugin"),
		Metric: q.Get("metric"),
	}
	if coreStr := q.Get("core"); coreStr != "" {
		core, err := strconv.Atoi(coreStr)
		if err != nil {
			return f, fmt.Errorf("bad core %q", coreStr)
		}
		f.Core = &core
	}
	var err error
	if f.From, err = parseTimeParam(q.Get("from")); err != nil {
		return f, err
	}
	if f.To, err = parseTimeParam(q.Get("to")); err != nil {
		return f, err
	}
	return f, nil
}

// parseLimit reads the optional raw-query limit= guard (0 = unlimited).
func parseLimit(r *http.Request) (int, error) {
	s := r.URL.Query().Get("limit")
	if s == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad limit %q", s)
	}
	return n, nil
}

// appendSeriesOpen renders a series' tag header up to the opening of its
// points array.
func appendSeriesOpen(b []byte, tags Tags) []byte {
	b = append(b, `{"node":`...)
	b = appendJSONString(b, tags.Node)
	b = append(b, `,"plugin":`...)
	b = appendJSONString(b, tags.Plugin)
	b = append(b, `,"core":`...)
	b = strconv.AppendInt(b, int64(tags.Core), 10)
	b = append(b, `,"metric":`...)
	b = appendJSONString(b, tags.Metric)
	return append(b, `,"points":[`...)
}

// writeRawQuery streams a raw range query: one indexed lookup, points
// decoded straight from the store's chunks through the time cursor.
// Shared by /api/v1/query and unaggregated /api/v2/query (which answer
// byte-identically). The render runs over a lock-free snapshot, so a long
// JSON render never stalls ingest.
func (s *RESTServer) writeRawQuery(w http.ResponseWriter, f Filter, limit int) {
	snaps := s.st.snapshot(f, false)
	bp := jsonBufPool.Get().(*[]byte)
	b := append((*bp)[:0], `{"series":[`...)
	release := func() { putJSONBuf(bp, b) }
	total := 0
	exceeded, encOK := false, true
	for i := range snaps {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendSeriesOpen(b, snaps[i].tags)
		pFirst := true
		cur := snaps[i].pts.Cursor(f.From, f.To)
		for p, ok := cur.Next(); ok && !exceeded && encOK; p, ok = cur.Next() {
			total++
			if limit > 0 && total > limit {
				exceeded = true
				break
			}
			if !pFirst {
				b = append(b, ',')
			}
			pFirst = false
			b = append(b, '[')
			b, encOK = appendJSONFloat(b, p.T)
			if !encOK {
				break
			}
			b = append(b, ',')
			b, encOK = appendJSONFloat(b, p.V)
			if !encOK {
				break
			}
			b = append(b, ']')
		}
		if exceeded || !encOK {
			break
		}
		b = append(b, ']', '}')
	}
	if exceeded {
		release()
		http.Error(w, fmt.Sprintf("result exceeds limit=%d points", limit), http.StatusRequestEntityTooLarge)
		return
	}
	if !encOK {
		release()
		http.Error(w, "non-finite value in result", http.StatusInternalServerError)
		return
	}
	b = append(b, ']', '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
	release()
}

func (s *RESTServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	f, err := parseFilter(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	limit, err := parseLimit(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.writeRawQuery(w, f, limit)
}

func (s *RESTServer) handleQueryV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	f, err := parseFilter(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	op := q.Get("agg")
	if op == "" {
		// Unaggregated v2 queries answer exactly like v1.
		limit, err := parseLimit(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.writeRawQuery(w, f, limit)
		return
	}
	step := 0.0
	if stepStr := q.Get("step"); stepStr != "" {
		step, err = strconv.ParseFloat(stepStr, 64)
		if err != nil || step < 0 {
			http.Error(w, fmt.Sprintf("bad step %q", stepStr), http.StatusBadRequest)
			return
		}
	}
	agg, err := QueryAgg(s.st, f, AggOptions{Op: AggOp(op), Step: step})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bp := jsonBufPool.Get().(*[]byte)
	b := append((*bp)[:0], `{"agg":`...)
	encOK := true
	appendF := func(v float64) {
		if !encOK {
			return
		}
		b, encOK = appendJSONFloat(b, v)
	}
	b = appendJSONString(b, op)
	b = append(b, `,"series":[`...)
	for i := range agg {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendSeriesOpen(b, agg[i].Tags)
		for j, p := range agg[i].Points {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			appendF(p.T)
			b = append(b, ',')
			appendF(p.V)
			b = append(b, ',')
			appendF(float64(p.N))
			b = append(b, ']')
		}
		b = append(b, ']', '}')
	}
	b = append(b, `],"step":`...)
	appendF(step)
	b = append(b, '}', '\n')
	release := func() { putJSONBuf(bp, b) }
	if !encOK {
		release()
		http.Error(w, "non-finite value in result", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
	release()
}

func parseTimeParam(s string) (float64, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad time parameter %q", s)
	}
	return v, nil
}

// writeJSON renders v through encoding/json — kept for the low-rate
// endpoints serving arbitrary structures (the power plane snapshot).
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Connection-level failure; headers already sent.
		return
	}
}
