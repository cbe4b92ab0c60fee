// Package report renders the reproduction's tables and figures as aligned
// text, in the same row/series shapes the paper prints. It is shared by
// the command-line tools and the benchmark harness.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"montecimone/internal/core"
	"montecimone/internal/examon"
	"montecimone/internal/power"
	"montecimone/internal/spack"
)

// Table is a simple aligned text table.
type Table struct {
	// Title is printed above the header.
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Write renders the table.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// TableI renders the software-stack table.
func TableI(rows []spack.StackRow) *Table {
	t := &Table{Title: "Table I: user-facing software stack (Spack, linux-sifive-u74mc)",
		Headers: []string{"Package", "Version"}}
	for _, r := range rows {
		t.AddRow(r.Package, r.Version)
	}
	return t
}

// TableII renders the ExaMon topic formats.
func TableII(rows []core.TopicSpec) *Table {
	t := &Table{Title: "Table II: ExaMon topic and payload formats",
		Headers: []string{"Plugin", "Topic", "Payload"}}
	for _, r := range rows {
		t.AddRow(r.Plugin, r.Topic, r.Payload)
	}
	return t
}

// TableIII renders the stats_pub metrics with live values.
func TableIII(rows []core.MetricSample) *Table {
	t := &Table{Title: "Table III: metrics collected by the stats_pub plugin (live sample)",
		Headers: []string{"Metric", "Value"}}
	for _, r := range rows {
		t.AddRow(r.Metric, fmt.Sprintf("%.4g", r.Value))
	}
	return t
}

// TableIV renders the hwmon sensor map.
func TableIV(rows []core.SensorRow) *Table {
	t := &Table{Title: "Table IV: sysfs entries for the temperature sensors",
		Headers: []string{"Sensor", "Sysfs File", "Reading [mC]"}}
	for _, r := range rows {
		t.AddRow(r.Sensor, r.SysfsFile, fmt.Sprintf("%d", r.MilliC))
	}
	return t
}

// TableV renders the STREAM table.
func TableV(tbl *core.StreamTable) *Table {
	t := &Table{Title: "Table V: STREAM, 4 threads [MB/s]",
		Headers: []string{"Test", "STREAM.DDR (1945.5 MiB)", "STREAM.L2 (1.1 MiB)"}}
	for i := range tbl.DDR {
		t.AddRow(tbl.DDR[i].Kernel.String(),
			fmt.Sprintf("%.0f +- %.2f", tbl.DDR[i].MeanMBps, tbl.DDR[i].StdMBps),
			fmt.Sprintf("%.0f +- %.2f", tbl.L2[i].MeanMBps, tbl.L2[i].StdMBps))
	}
	return t
}

// TableVI renders the power-rail table.
func TableVI(cols []core.PowerColumn) *Table {
	headers := []string{"Line"}
	for _, c := range cols {
		headers = append(headers, c.Workload+" [mW]", "[%]")
	}
	t := &Table{Title: "Table VI: power consumption", Headers: headers}
	for _, rail := range power.Rails {
		row := []string{string(rail)}
		for _, c := range cols {
			row = append(row,
				fmt.Sprintf("%.0f", c.Rails[rail]),
				fmt.Sprintf("%.0f", c.Percent[rail]))
		}
		t.AddRow(row...)
	}
	totalRow := []string{"Total"}
	for _, c := range cols {
		totalRow = append(totalRow, fmt.Sprintf("%.0f", c.TotalMilliwatts), "100")
	}
	t.AddRow(totalRow...)
	return t
}

// Fig2 renders the strong-scaling series.
func Fig2(points []core.ScalingPoint) *Table {
	t := &Table{Title: "Fig. 2: HPL strong scaling @ Monte Cimone [N=40704, NB=192]",
		Headers: []string{"Nodes", "Grid", "GFLOP/s", "Runtime [s]", "Speedup", "% of linear"}}
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%dx%d", p.P, p.Q),
			fmt.Sprintf("%.2f +- %.2f", p.MeanGFlops, p.StdGFlops),
			fmt.Sprintf("%.0f +- %.0f", p.MeanSeconds, p.StdSeconds),
			fmt.Sprintf("%.2f", p.Speedup),
			fmt.Sprintf("%.1f", 100*p.LinearFraction),
		)
	}
	return t
}

// Efficiency renders a cross-machine efficiency comparison.
func Efficiency(title, unit string, rows []core.EfficiencyRow) *Table {
	t := &Table{Title: title, Headers: []string{"Machine", "ISA", "Attained " + unit, "Efficiency [%]"}}
	for _, r := range rows {
		t.AddRow(r.Machine, string(r.ISA),
			fmt.Sprintf("%.1f", r.Attained),
			fmt.Sprintf("%.2f", 100*r.Efficiency))
	}
	return t
}

// Sparkline renders a series of values as a compact unicode strip, used to
// print trace shapes and heatmap rows in the terminal.
func Sparkline(values []float64) string {
	const ramp = "▁▂▃▄▅▆▇█"
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.IsInf(lo, 1) {
		return ""
	}
	// Treat numerically flat series as flat: differences below a relative
	// epsilon are sampling artefacts, not signal.
	span := hi - lo
	if span <= 1e-6*math.Max(math.Abs(hi), math.Abs(lo)) {
		span = 0
	}
	var sb strings.Builder
	for _, v := range values {
		if math.IsNaN(v) {
			sb.WriteByte(' ')
			continue
		}
		idx := 0
		if span > 0 {
			idx = int((v - lo) / span * 7.999)
		}
		sb.WriteRune([]rune(ramp)[idx])
	}
	return sb.String()
}

// Heatmap renders an examon heatmap with one sparkline row per node.
func Heatmap(title string, hm *examon.Heatmap) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	for i, nodeName := range hm.Nodes {
		sb.WriteString(fmt.Sprintf("  %-6s %s\n", nodeName, Sparkline(hm.Values[i])))
	}
	return sb.String()
}

// Downsample reduces a series to at most width points by averaging, for
// terminal sparklines.
func Downsample(values []float64, width int) []float64 {
	if width <= 0 || len(values) <= width {
		return values
	}
	out := make([]float64, width)
	for i := range out {
		lo := i * len(values) / width
		hi := (i + 1) * len(values) / width
		sum, n := 0.0, 0
		for _, v := range values[lo:hi] {
			if !math.IsNaN(v) {
				sum += v
				n++
			}
		}
		if n > 0 {
			out[i] = sum / float64(n)
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}
