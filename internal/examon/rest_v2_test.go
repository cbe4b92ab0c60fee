package examon

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func restFixture(t *testing.T, st *MemStore) *httptest.Server {
	t.Helper()
	for n := 1; n <= 2; n++ {
		for core := 0; core < 2; core++ {
			tags := confTags(n, core, "instret")
			for i := 0; i <= 8; i++ {
				st.Insert(tags, float64(i), float64(i*n*10))
			}
		}
		tags := confTags(n, -1, "temperature.cpu_temp")
		for i := 0; i <= 8; i++ {
			st.Insert(tags, float64(i), 40+float64(n))
		}
	}
	srv, err := NewRESTServer(st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	res, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, string(body)
}

// TestQueryV1EmptyResultIsArray is the regression test for the JSON null
// bug: a v1 query with no matching series must return "series": [].
func TestQueryV1EmptyResultIsArray(t *testing.T) {
	ts := restFixture(t, NewMemStore())
	for _, tc := range []struct {
		path       string
		wantSeries int
	}{
		{"/api/v1/query?node=mc99", 0},
		{"/api/v2/query?node=mc99", 0},
		{"/api/v2/query?node=mc99&agg=avg", 0},
		// A matching series with no samples in range must render
		// "points": [], not null — raw and aggregated, both versions.
		{"/api/v1/query?node=mc01&metric=temperature.cpu_temp&from=100&to=200", 1},
		{"/api/v2/query?node=mc01&metric=temperature.cpu_temp&from=100&to=200", 1},
		{"/api/v2/query?node=mc01&metric=temperature.cpu_temp&agg=avg&from=100&to=200", 1},
	} {
		code, body := get(t, ts, tc.path)
		if code != 200 {
			t.Fatalf("%s -> %d", tc.path, code)
		}
		if strings.Contains(body, "null") {
			t.Errorf("%s returned JSON null: %s", tc.path, body)
		}
		var resp struct {
			Series []json.RawMessage `json:"series"`
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if resp.Series == nil || len(resp.Series) != tc.wantSeries {
			t.Errorf("%s series = %v, want %d entries", tc.path, resp.Series, tc.wantSeries)
		}
	}
}

// TestQueryV1V2Equivalence pins the compatibility contract: an
// unaggregated v2 query answers byte-for-byte like v1, on every store
// configuration.
func TestQueryV1V2Equivalence(t *testing.T) {
	for name, mk := range conformanceEngines() {
		t.Run(name, func(t *testing.T) {
			ts := restFixture(t, mk())
			for _, query := range []string{
				"?metric=instret",
				"?node=mc01&plugin=pmu_pub&metric=instret&core=1",
				"?metric=temperature.cpu_temp&from=2&to=6",
				"?node=mc02",
				"?node=mc99",
			} {
				code1, body1 := get(t, ts, "/api/v1/query"+query)
				code2, body2 := get(t, ts, "/api/v2/query"+query)
				if code1 != 200 || code2 != 200 {
					t.Fatalf("%s -> v1 %d, v2 %d", query, code1, code2)
				}
				if body1 != body2 {
					t.Errorf("%s: v1 and v2 diverge:\nv1: %s\nv2: %s", query, body1, body2)
				}
			}
		})
	}
}

func TestQueryV2Aggregation(t *testing.T) {
	ts := restFixture(t, NewMemStore())
	code, body := get(t, ts, "/api/v2/query?node=mc01&metric=temperature.cpu_temp&agg=avg&step=4&from=0&to=8")
	if code != 200 {
		t.Fatalf("agg query -> %d: %s", code, body)
	}
	var resp struct {
		Series []struct {
			Node   string       `json:"node"`
			Metric string       `json:"metric"`
			Points [][3]float64 `json:"points"`
		} `json:"series"`
		Agg  string  `json:"agg"`
		Step float64 `json:"step"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Agg != "avg" || resp.Step != 4 {
		t.Errorf("echo = %q/%v", resp.Agg, resp.Step)
	}
	if len(resp.Series) != 1 {
		t.Fatalf("series = %+v", resp.Series)
	}
	pts := resp.Series[0].Points
	// Two buckets of the constant 41-degree gauge: [0,4) holds 4 samples,
	// [4,8) holds 4.
	if len(pts) != 2 || pts[0] != [3]float64{0, 41, 4} || pts[1] != [3]float64{4, 41, 4} {
		t.Errorf("points = %v", pts)
	}

	// Rate aggregation over the cumulative counter.
	code, body = get(t, ts, "/api/v2/query?node=mc02&metric=instret&core=0&agg=rate&from=1&to=8")
	if code != 200 {
		t.Fatalf("rate query -> %d", code)
	}
	var rate struct {
		Series []struct {
			Points [][3]float64 `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &rate); err != nil {
		t.Fatal(err)
	}
	if len(rate.Series) != 1 || len(rate.Series[0].Points) != 1 {
		t.Fatalf("rate series = %+v", rate.Series)
	}
	if p := rate.Series[0].Points[0]; p[1] != 20 || p[2] != 7 {
		t.Errorf("mc02 rate bucket = %v, want rate 20 over 7 samples", p)
	}
}

// TestQueryV2FineStep: a step grid of ten million buckets over two
// points answers with the two points, bounded or not, since aggregation
// holds one open bucket whatever the grid.
func TestQueryV2FineStep(t *testing.T) {
	st := NewMemStore()
	st.Insert(confTags(1, -1, "uptime"), 0, 1)
	st.Insert(confTags(1, -1, "uptime"), 999, 2)
	srv, err := NewRESTServer(st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, path := range []string{
		"/api/v2/query?agg=avg&step=0.0001&from=0&to=1000",
		"/api/v2/query?agg=avg&step=0.0001",
	} {
		code, body := get(t, ts, path)
		if code != 200 {
			t.Fatalf("%s -> %d: %s", path, code, body)
		}
		var resp struct {
			Series []struct {
				Points [][3]float64 `json:"points"`
			} `json:"series"`
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Series) != 1 {
			t.Fatalf("%s: series = %+v", path, resp.Series)
		}
		pts := resp.Series[0].Points
		if len(pts) != 2 || pts[0] != [3]float64{0, 1, 1} || math.Abs(pts[1][0]-999) > 1e-3 || pts[1][1] != 2 || pts[1][2] != 1 {
			t.Errorf("%s: points = %v, want (0, 1) and (999, 2)", path, pts)
		}
	}
}

func TestQueryV2BadParameters(t *testing.T) {
	ts := restFixture(t, NewMemStore())
	for _, path := range []string{
		"/api/v2/query?core=banana",
		"/api/v2/query?from=xyz",
		"/api/v2/query?agg=median",
		"/api/v2/query?agg=avg&step=-1",
		"/api/v2/query?agg=avg&step=x",
		// Non-finite time bounds: a NaN from used to become a negative
		// bucket index and panic the aggregation.
		"/api/v1/query?from=NaN",
		"/api/v1/query?to=Inf",
		"/api/v2/query?from=-Inf",
		"/api/v2/query?to=NaN",
		"/api/v2/query?agg=avg&step=60&from=NaN",
		"/api/v2/query?agg=avg&step=7&to=NaN",
		"/api/v2/query?agg=max&from=-Inf&to=+Inf",
	} {
		code, _ := get(t, ts, path)
		if code != 400 {
			t.Errorf("%s -> %d, want 400", path, code)
		}
	}
	res, err := ts.Client().Post(ts.URL+"/api/v2/query", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 405 {
		t.Errorf("POST -> %d, want 405", res.StatusCode)
	}
}

// --- streaming encoder equivalence ---------------------------------------

// oldRawResponse replicates the pre-streaming handler: response structs
// filled from Query, rendered through encoding/json. The streaming
// encoder must reproduce it byte for byte.
func oldRawResponse(t *testing.T, st *MemStore, f Filter) string {
	t.Helper()
	type seriesResponse struct {
		Node   string       `json:"node"`
		Plugin string       `json:"plugin"`
		Core   int          `json:"core"`
		Metric string       `json:"metric"`
		Points [][2]float64 `json:"points"`
	}
	resp := []seriesResponse{}
	for _, series := range st.Query(f) {
		sr := seriesResponse{
			Node:   series.Tags.Node,
			Plugin: series.Tags.Plugin,
			Core:   series.Tags.Core,
			Metric: series.Tags.Metric,
			Points: [][2]float64{},
		}
		for _, p := range series.Points {
			sr.Points = append(sr.Points, [2]float64{p.T, p.V})
		}
		resp = append(resp, sr)
	}
	body, err := json.Marshal(map[string]any{"series": resp})
	if err != nil {
		t.Fatal(err)
	}
	return string(body) + "\n"
}

func oldAggResponse(t *testing.T, st *MemStore, f Filter, op string, step float64) string {
	t.Helper()
	type aggSeriesResponse struct {
		Node   string       `json:"node"`
		Plugin string       `json:"plugin"`
		Core   int          `json:"core"`
		Metric string       `json:"metric"`
		Points [][3]float64 `json:"points"`
	}
	agg, err := QueryAgg(st, f, AggOptions{Op: AggOp(op), Step: step})
	if err != nil {
		t.Fatal(err)
	}
	resp := []aggSeriesResponse{}
	for _, series := range agg {
		sr := aggSeriesResponse{
			Node:   series.Tags.Node,
			Plugin: series.Tags.Plugin,
			Core:   series.Tags.Core,
			Metric: series.Tags.Metric,
			Points: [][3]float64{},
		}
		for _, p := range series.Points {
			sr.Points = append(sr.Points, [3]float64{p.T, p.V, float64(p.N)})
		}
		resp = append(resp, sr)
	}
	body, err := json.Marshal(map[string]any{"series": resp, "agg": op, "step": step})
	if err != nil {
		t.Fatal(err)
	}
	return string(body) + "\n"
}

// TestStreamedJSONMatchesEncodingJSON pins the streaming encoder against
// the pre-refactor encoding/json output, including float edge cases the
// 'f'/'e' form switch must reproduce exactly.
func TestStreamedJSONMatchesEncodingJSON(t *testing.T) {
	st := NewMemStore()
	weird := confTags(9, -1, "weird/metric.name")
	for i, v := range []float64{
		0, 1, -1, 0.5, 2.5e-7, 1e-6, 9.999999e-7, 1e21, 1.25e21, -3.75e22,
		1e20, 123456789.123456789, -0.001, 42,
	} {
		st.Insert(weird, float64(i)+0.125, v)
	}
	ts := restFixture(t, st) // adds the standard fixture series on top
	for _, q := range []string{
		"?",
		"?node=mc09",
		"?metric=instret&from=2&to=6",
		"?node=mc99",
	} {
		want := oldRawResponse(t, st, mustFilter(t, q))
		for _, path := range []string{"/api/v1/query", "/api/v2/query"} {
			code, body := get(t, ts, path+q)
			if code != 200 {
				t.Fatalf("%s%s -> %d", path, q, code)
			}
			if body != want {
				t.Errorf("%s%s streamed body diverges from encoding/json:\ngot:  %s\nwant: %s", path, q, body, want)
			}
		}
	}
	for _, tc := range []struct {
		query string
		f     Filter
		op    string
		step  float64
	}{
		{"/api/v2/query?node=mc09&agg=avg&step=4", Filter{Node: "mc09"}, "avg", 4},
		{"/api/v2/query?agg=max", Filter{}, "max", 0},
		{"/api/v2/query?node=mc02&metric=instret&core=0&agg=rate&from=1&to=8",
			Filter{Node: "mc02", Metric: "instret", Core: intPtr(0), From: 1, To: 8}, "rate", 0},
	} {
		want := oldAggResponse(t, st, tc.f, tc.op, tc.step)
		code, body := get(t, ts, tc.query)
		if code != 200 {
			t.Fatalf("%s -> %d", tc.query, code)
		}
		if body != want {
			t.Errorf("%s streamed agg body diverges:\ngot:  %s\nwant: %s", tc.query, body, want)
		}
	}
	// /api/v1/series too.
	keys, err := json.Marshal(map[string]any{"series": st.Keys()})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, ts, "/api/v1/series"); code != 200 || body != string(keys)+"\n" {
		t.Errorf("series body diverges:\ngot:  %s\nwant: %s", body, keys)
	}
}

// mustFilter parses a fixture query string through the production parser.
func mustFilter(t *testing.T, rawQuery string) Filter {
	t.Helper()
	req := httptest.NewRequest("GET", "/api/v1/query"+rawQuery, nil)
	f, err := parseFilter(req)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestQueryLimitGuard pins the optional raw-query limit: under the cap
// the response is identical to the unlimited one, over it the server
// refuses with 413 instead of serializing unboundedly — with and without
// the index.
func TestQueryLimitGuard(t *testing.T) {
	for name, mk := range map[string]func() *MemStore{
		"mem":        func() *MemStore { return NewMemStore() },
		"mem-linear": func() *MemStore { return NewMemStore(WithLinearScan(true)) },
	} {
		t.Run(name, func(t *testing.T) {
			ts := restFixture(t, mk())
			_, unlimited := get(t, ts, "/api/v1/query?node=mc01")
			for _, path := range []string{"/api/v1/query", "/api/v2/query"} {
				if code, body := get(t, ts, path+"?node=mc01&limit=1000"); code != 200 || body != unlimited {
					t.Errorf("%s under-limit response diverges (code %d)", path, code)
				}
				if code, _ := get(t, ts, path+"?node=mc01&limit=5"); code != 413 {
					t.Errorf("%s over-limit -> %d, want 413", path, code)
				}
				for _, bad := range []string{"x", "-1", "1.5"} {
					if code, _ := get(t, ts, path+"?node=mc01&limit="+bad); code != 400 {
						t.Errorf("%s limit=%s -> %d, want 400", path, bad, code)
					}
				}
			}
		})
	}
}

// TestJSONFloatEncoding sweeps the append encoder against json.Marshal on
// generated floats, including the e-form exponent-trim path.
func TestJSONFloatEncoding(t *testing.T) {
	vals := []float64{
		0, 1, -1, 0.1, -0.25, 1e-6, 1e-7, 9.999999e-7, 1e21, 1e22, -1e21,
		5e-324, 1.7976931348623157e308, 123.456, 1e20, 3.14159265358979,
	}
	for i := 1; i < 40; i++ {
		vals = append(vals, 1.0/float64(i), float64(i)*1e19, float64(i)*1e-8)
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := appendJSONFloat(nil, v)
		if !ok || string(got) != string(want) {
			t.Errorf("appendJSONFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if _, ok := appendJSONFloat(nil, math.NaN()); ok {
		t.Error("NaN encoded")
	}
	if _, ok := appendJSONFloat(nil, math.Inf(1)); ok {
		t.Error("Inf encoded")
	}
}

// TestJSONStringEncoding pins the escape fallback against json.Marshal.
func TestJSONStringEncoding(t *testing.T) {
	for _, s := range []string{
		"", "mc01", "temperature.cpu_temp", "a/b", "with space",
		`quote"inside`, `back\slash`, "tab\there", "html<&>", "unicode-°C-日本",
		"ctrl\x01", " sep",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); string(got) != string(want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}
