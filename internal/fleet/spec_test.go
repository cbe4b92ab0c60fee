package fleet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func loadSmoke(t *testing.T) Spec {
	t.Helper()
	s, err := Load(filepath.Join("testdata", "smoke.json"))
	if err != nil {
		t.Fatalf("load smoke spec: %v", err)
	}
	return s
}

func TestLoadSmokeSpec(t *testing.T) {
	s := loadSmoke(t)
	if len(s.Clusters) != 3 {
		t.Fatalf("clusters = %d, want 3", len(s.Clusters))
	}
	if len(s.Tenants) != 2 {
		t.Fatalf("tenants = %d, want 2", len(s.Tenants))
	}
	if s.Tenants[1].Stream == nil || s.Tenants[1].Stream.Count != 3 {
		t.Fatalf("ml tenant stream not parsed: %+v", s.Tenants[1].Stream)
	}
}

func TestParseRejectsUnknownField(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","seed":1,"clusterz":[]}`))
	if err == nil || !strings.Contains(err.Error(), "clusterz") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
	// The pool width is the -fleet-workers flag's alone.
	_, err = Parse([]byte(`{"name":"x","seed":1,"workers":2,
		"clusters":[{"id":"a","nodes":4}]}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "workers"`) {
		t.Fatalf("workers field not rejected: %v", err)
	}
	// Clusters have no storage backend to choose.
	_, err = Parse([]byte(`{"name":"x","seed":1,
		"clusters":[{"id":"a","nodes":4,"backend":"sharded"}]}`))
	if err == nil || !strings.Contains(err.Error(), "backend") {
		t.Fatalf("cluster backend field not rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() Spec {
		s := loadSmoke(t)
		return s
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no clusters", func(s *Spec) { s.Clusters = nil }, "at least one cluster"},
		{"duplicate cluster", func(s *Spec) { s.Clusters[1].ID = s.Clusters[0].ID }, "duplicate cluster"},
		{"zero nodes", func(s *Spec) { s.Clusters[0].Nodes = 0 }, "nodes must be positive"},
		{"ambient at trip", func(s *Spec) { s.Clusters[0].AmbientC = 107 }, "ambient"},
		{"bad policy", func(s *Spec) { s.Clusters[0].Policy = "nope" }, "nope"},
		{"no tenants", func(s *Spec) { s.Tenants = nil }, "at least one tenant"},
		{"duplicate tenant", func(s *Spec) { s.Tenants[1].Name = s.Tenants[0].Name }, "duplicate tenant"},
		{"empty tenant", func(s *Spec) { s.Tenants[0].Campaigns = nil; s.Tenants[0].Stream = nil }, "campaigns or a stream"},
		{"negative arrive", func(s *Spec) { s.Tenants[0].Campaigns[0].ArriveS = -1 }, "negative arrive_s"},
		{"bad stream rate", func(s *Spec) { s.Tenants[1].Stream.RatePerHour = 0 }, "rate_per_hour"},
		// Sizes past campaign.MaxSpecSize fail here instead of exhausting
		// memory in cluster.New or the router's stream expansion.
		{"nodes over the cap", func(s *Spec) { s.Clusters[0].Nodes = 2000000000 },
			"cluster bologna: nodes must be at most 1000000, got 2000000000"},
		{"stream count over the cap", func(s *Spec) { s.Tenants[1].Stream.Count = 2000000000 },
			"stream count must be at most 1000000, got 2000000000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// A cluster id becomes the cluster tag of every sample its campaigns
// publish, so an id with a reserved topic character must make New fail
// with an error naming that cluster.
func TestNewRejectsReservedClusterID(t *testing.T) {
	s := loadSmoke(t)
	s.Clusters[0].ID = "bo/logna"
	_, err := New(s)
	if err == nil || !strings.Contains(err.Error(), "bo/logna") {
		t.Fatalf("err = %v, want a rejection naming cluster bo/logna", err)
	}
}

// A campaign whose widest job exceeds every cluster must be rejected at
// spec validation, before any routing runs.
func TestValidateInfeasibleWidth(t *testing.T) {
	s := loadSmoke(t)
	s.Tenants[0].Campaigns[1].Jobs[1].Nodes = 64
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "largest cluster") {
		t.Fatalf("err = %v, want infeasible-width rejection", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); !os.IsNotExist(errUnwrapAll(err)) {
		t.Fatalf("err = %v, want not-exist", err)
	}
}

func errUnwrapAll(err error) error {
	type unwrapper interface{ Unwrap() error }
	for {
		u, ok := err.(unwrapper)
		if !ok {
			return err
		}
		err = u.Unwrap()
	}
}
