package examon

import (
	"math"
	"testing"
)

func tempTags(nodeName string) Tags {
	return Tags{Org: "o", Cluster: "c", Node: nodeName, Plugin: "dstat_pub", Core: -1, Metric: "temperature.cpu_temp"}
}

func TestDetectorValidation(t *testing.T) {
	if _, err := (Detector{Window: 2}).Scan(Series{}); err == nil {
		t.Error("tiny window accepted")
	}
	if _, err := (Detector{ZThreshold: -1}).Scan(Series{}); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := (Detector{}).ScanAll(nil, Filter{}); err == nil {
		t.Error("nil db accepted")
	}
}

func TestNoAnomaliesOnSteadySeries(t *testing.T) {
	s := Series{Tags: tempTags("mc01")}
	for i := 0; i < 200; i++ {
		s.Points = append(s.Points, Point{T: float64(i), V: 50 + 0.1*math.Sin(float64(i))})
	}
	found, err := (Detector{Limit: 107}).Scan(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 0 {
		t.Errorf("false positives: %+v", found)
	}
}

func TestLimitAnomaly(t *testing.T) {
	s := Series{Tags: tempTags("mc07")}
	for i := 0; i < 50; i++ {
		v := 60.0
		if i >= 40 {
			v = 108.5
		}
		s.Points = append(s.Points, Point{T: float64(i), V: v})
	}
	found, err := (Detector{Limit: 107, Window: 10}).Scan(s)
	if err != nil {
		t.Fatal(err)
	}
	var limit *Anomaly
	for i := range found {
		if found[i].Kind == AnomalyLimit {
			limit = &found[i]
		}
	}
	if limit == nil {
		t.Fatal("limit violation not detected")
	}
	if limit.Time != 40 {
		t.Errorf("detected at t=%v, want first violation at 40", limit.Time)
	}
	if math.Abs(limit.Score-1.5) > 1e-9 {
		t.Errorf("excess = %v, want 1.5", limit.Score)
	}
}

func TestOutlierAnomaly(t *testing.T) {
	s := Series{Tags: tempTags("mc03")}
	for i := 0; i < 100; i++ {
		v := 50 + 0.2*math.Sin(float64(i)/3)
		if i == 80 {
			v = 90 // a sensor glitch
		}
		s.Points = append(s.Points, Point{T: float64(i), V: v})
	}
	found, err := (Detector{}).Scan(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[0].Kind != AnomalyOutlier || found[0].Time != 80 {
		t.Fatalf("findings = %+v", found)
	}
	if found[0].Score < 6 {
		t.Errorf("z-score = %v", found[0].Score)
	}
}

func TestRunawayDetectedBeforeTrip(t *testing.T) {
	// A node-7-style excursion: stable, then a sustained ~0.15 K/s climb
	// towards 107. The detector must flag the runaway while the value is
	// still well below the trip.
	s := Series{Tags: tempTags("mc07")}
	for i := 0; i < 600; i++ {
		v := 70.0
		if i >= 200 {
			v = 70 + 0.15*float64(i-200)
		}
		if v > 107 {
			v = 107
		}
		s.Points = append(s.Points, Point{T: float64(i), V: v})
	}
	found, err := (Detector{Limit: 107}).Scan(s)
	if err != nil {
		t.Fatal(err)
	}
	var runaway *Anomaly
	for i := range found {
		if found[i].Kind == AnomalyRunaway {
			runaway = &found[i]
			break
		}
	}
	if runaway == nil {
		t.Fatal("runaway not detected")
	}
	if runaway.Value >= 107 {
		t.Errorf("runaway flagged only at the limit (%.1f degC)", runaway.Value)
	}
	// Lead time: predicted crossing within the horizon, flagged at least
	// a minute before the actual trip (which happens around t=447).
	if runaway.Time > 380 {
		t.Errorf("runaway flagged at t=%v, too late", runaway.Time)
	}
	if runaway.Score <= 0 || runaway.Score > 300 {
		t.Errorf("predicted seconds to limit = %v", runaway.Score)
	}
}

func TestEachKindFiresOnce(t *testing.T) {
	s := Series{Tags: tempTags("mc07")}
	for i := 0; i < 100; i++ {
		s.Points = append(s.Points, Point{T: float64(i), V: 110}) // always above
	}
	found, err := (Detector{Limit: 107}).Scan(s)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[AnomalyKind]int)
	for _, a := range found {
		counts[a.Kind]++
	}
	for kind, n := range counts {
		if n != 1 {
			t.Errorf("%s fired %d times", kind, n)
		}
	}
}

func TestScanAllAcrossNodes(t *testing.T) {
	db := NewMemStore()
	for _, nodeName := range []string{"mc01", "mc07"} {
		for i := 0; i < 120; i++ {
			v := 50.0
			if nodeName == "mc07" {
				v = 50 + float64(i) // climbing hard
			}
			db.Insert(tempTags(nodeName), float64(i), math.Min(v, 130))
		}
	}
	found, err := (Detector{Limit: 107}).ScanAll(db, Filter{Metric: "temperature.cpu_temp"})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("nothing detected")
	}
	for _, a := range found {
		if a.Tags.Node != "mc07" {
			t.Errorf("false positive on %s: %+v", a.Tags.Node, a)
		}
	}
}
