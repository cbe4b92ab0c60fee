package examon

// The inverted tag index: MemStore maintains posting lists per filterable
// tag dimension (Org, Cluster, Node, Plugin, Metric, Core), updated when
// a series is created, so a selective read visits only candidate series
// instead of walking every stored series. Postings hold positions into
// the store's creation-order slice and are appended at series creation,
// so each list is already sorted in scan order — the index lookup picks
// the smallest applicable list and verifies the remaining dimensions with
// Filter.matches (cheap compared to walking the full series set). The
// linear walk is kept behind WithLinearScan as the reference the
// read-path tests and BenchmarkQueryServe compare against, mirroring
// sched.WithLinearScan.

// tagIndex is MemStore's inverted index, guarded by the store's lock.
// The scoping dimensions (Org, Cluster) are indexed under a series'
// first-seen tags — the same tags Filter.matches verifies against — so
// federated stores holding several clusters' series answer per-cluster
// selections without a full walk.
type tagIndex struct {
	byOrg     map[string][]int32
	byCluster map[string][]int32
	byNode    map[string][]int32
	byPlugin  map[string][]int32
	byMetric  map[string][]int32
	byCore    map[int][]int32
}

func newTagIndex() *tagIndex {
	return &tagIndex{
		byOrg:     make(map[string][]int32),
		byCluster: make(map[string][]int32),
		byNode:    make(map[string][]int32),
		byPlugin:  make(map[string][]int32),
		byMetric:  make(map[string][]int32),
		byCore:    make(map[int][]int32),
	}
}

// add indexes a newly created series at the given creation-order position.
func (ix *tagIndex) add(pos int, t Tags) {
	p := int32(pos)
	ix.byOrg[t.Org] = append(ix.byOrg[t.Org], p)
	ix.byCluster[t.Cluster] = append(ix.byCluster[t.Cluster], p)
	ix.byNode[t.Node] = append(ix.byNode[t.Node], p)
	ix.byPlugin[t.Plugin] = append(ix.byPlugin[t.Plugin], p)
	ix.byMetric[t.Metric] = append(ix.byMetric[t.Metric], p)
	ix.byCore[t.Core] = append(ix.byCore[t.Core], p)
}

// candidates returns the smallest posting list among the filter's set
// dimensions, in creation order. ok is false when the filter selects no
// indexed dimension (match-everything scans walk the order slice
// directly). A set dimension with no postings returns an empty list with
// ok true: nothing can match.
func (ix *tagIndex) candidates(f Filter) (posting []int32, ok bool) {
	consider := func(list []int32) {
		if !ok || len(list) < len(posting) {
			posting, ok = list, true
		}
	}
	if f.Org != "" {
		consider(ix.byOrg[f.Org])
	}
	if f.Cluster != "" {
		consider(ix.byCluster[f.Cluster])
	}
	if f.Node != "" {
		consider(ix.byNode[f.Node])
	}
	if f.Plugin != "" {
		consider(ix.byPlugin[f.Plugin])
	}
	if f.Metric != "" {
		consider(ix.byMetric[f.Metric])
	}
	if f.Core != nil {
		consider(ix.byCore[*f.Core])
	}
	return posting, ok
}
