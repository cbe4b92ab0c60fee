package examon

import (
	"fmt"
	"math"
)

// Heatmap is a nodes x time-bins matrix of aggregated metric values, the
// structure behind the paper's Fig. 5 (instructions/s, network traffic and
// memory usage per node during the full-machine HPL run).
type Heatmap struct {
	// Nodes are the row labels in row order.
	Nodes []string
	// BinStart is the first bin's start time; BinWidth the bin size.
	BinStart, BinWidth float64
	// Values[r][c] is the mean value of row r in bin c; NaN marks bins
	// without samples.
	Values [][]float64
}

// Bins returns the number of time bins.
func (h *Heatmap) Bins() int {
	if len(h.Values) == 0 {
		return 0
	}
	return len(h.Values[0])
}

// HeatmapOptions configure BuildHeatmap.
type HeatmapOptions struct {
	// Plugin and Metric select the series.
	Plugin string
	Metric string
	// Rate differences cumulative counters before binning (used for
	// INSTRET and the cumulative net byte counters).
	Rate bool
	// SumCores adds per-core series together per node (pmu_pub metrics).
	SumCores bool
	// From, To and BinWidth control the time axis.
	From, To, BinWidth float64
}

// maxHeatmapBins bounds a heatmap's time axis: every row holds a dense
// grid of its bins, so a tiny bin width over a long range could exhaust
// memory.
const maxHeatmapBins = 1 << 20

// BuildHeatmap aggregates stored data into a heatmap over the given nodes
// on the v2 aggregating query layer, with the bin width as the
// downsampling step so series select through the inverted index (and, for
// aligned bin widths, the rollup tiers). It issues ONE multi-node query
// and groups the result into rows, skipping series of unrequested nodes.
// The result keeps storage order, so each row accumulates its node's
// series in the order a Node-filtered query would return them, and its
// cells are bit-identical to that query's.
func BuildHeatmap(st *MemStore, nodes []string, opts HeatmapOptions) (*Heatmap, error) {
	if st == nil {
		return nil, fmt.Errorf("examon: heatmap needs a storage engine")
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("examon: heatmap needs nodes")
	}
	// NaN fails every comparison below, so check finiteness first: a NaN
	// or infinite axis would size the grid from a meaningless quotient.
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if !finite(opts.From) || !finite(opts.To) || !finite(opts.BinWidth) {
		return nil, fmt.Errorf("examon: heatmap axis must be finite, got [%v,%v) by %v",
			opts.From, opts.To, opts.BinWidth)
	}
	if opts.BinWidth <= 0 {
		return nil, fmt.Errorf("examon: bin width must be positive, got %v", opts.BinWidth)
	}
	if opts.To <= opts.From {
		return nil, fmt.Errorf("examon: empty time range [%v,%v)", opts.From, opts.To)
	}
	span := math.Ceil((opts.To - opts.From) / opts.BinWidth)
	if span > maxHeatmapBins {
		return nil, fmt.Errorf("examon: bin width %v yields more than %d bins over [%v,%v)",
			opts.BinWidth, maxHeatmapBins, opts.From, opts.To)
	}
	bins := int(span)
	hm := &Heatmap{
		Nodes:    append([]string(nil), nodes...),
		BinStart: opts.From,
		BinWidth: opts.BinWidth,
		Values:   make([][]float64, len(nodes)),
	}
	op := AggSum
	if opts.Rate {
		op = AggRate
	}
	// Duplicate node names get duplicate (identical) rows.
	rows := make(map[string][]int, len(nodes))
	for r, nodeName := range nodes {
		rows[nodeName] = append(rows[nodeName], r)
	}
	sums := make([][]float64, len(nodes))
	counts := make([][]int, len(nodes))
	perRowSeries := make([]int, len(nodes))
	for r := range nodes {
		sums[r] = make([]float64, bins)
		counts[r] = make([]int, bins)
	}
	agg, err := QueryAgg(st, Filter{
		Plugin: opts.Plugin, Metric: opts.Metric,
		From: opts.From, To: opts.To,
	}, AggOptions{Op: op, Step: opts.BinWidth})
	if err != nil {
		return nil, err
	}
	for _, s := range agg {
		targets, ok := rows[s.Tags.Node]
		if !ok {
			continue // a node outside the requested rows
		}
		for _, r := range targets {
			perRowSeries[r]++
			for _, p := range s.Points {
				bin := int(math.Round((p.T - opts.From) / opts.BinWidth))
				if bin < 0 || bin >= bins {
					continue
				}
				if opts.Rate {
					// AggRate buckets carry the mean rate; recover the
					// bucket sum so multi-core combining matches the
					// original sample-weighted math.
					sums[r][bin] += p.V * float64(p.N)
				} else {
					sums[r][bin] += p.V
				}
				counts[r][bin] += p.N
			}
		}
	}
	for r := range nodes {
		row := make([]float64, bins)
		perBinSeries := perRowSeries[r]
		if perBinSeries == 0 {
			perBinSeries = 1
		}
		for c := range row {
			switch {
			case counts[r][c] == 0:
				row[c] = math.NaN()
			case opts.SumCores:
				// Average over samples within the bin, summed across the
				// per-core series: mean per series times series count.
				row[c] = sums[r][c] / float64(counts[r][c]) * float64(perBinSeries)
			default:
				row[c] = sums[r][c] / float64(counts[r][c])
			}
		}
		hm.Values[r] = row
	}
	return hm, nil
}

// MaxValue returns the largest non-NaN cell (0 when all cells are empty).
func (h *Heatmap) MaxValue() float64 {
	maxV := 0.0
	for _, row := range h.Values {
		for _, v := range row {
			if !math.IsNaN(v) && v > maxV {
				maxV = v
			}
		}
	}
	return maxV
}

// RowMean returns the mean of a row's non-NaN cells.
func (h *Heatmap) RowMean(r int) float64 {
	sum, n := 0.0, 0
	for _, v := range h.Values[r] {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
