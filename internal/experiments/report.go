// Package experiments reproduces every table and figure of the paper's
// evaluation (Sections 4 and 5). Each experiment is a pure function from a
// Config to a Report; cmd/rtreebench renders reports as aligned text or
// CSV, and the repository-level benchmarks regenerate each artifact under
// `go test -bench`.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Table is one rectangular result: a figure's data series (first column =
// x axis) or a literal table.
type Table struct {
	Name    string
	Caption string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// F formats a float for table cells: fixed 4 decimals for small
// magnitudes, trimmed, so columns align and diffs stay stable.
func F(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	return s
}

// FPct formats a ratio as a signed percentage.
func FPct(v float64) string {
	return fmt.Sprintf("%+.2f%%", 100*v)
}

// FInt formats an integer cell.
func FInt(v int) string { return fmt.Sprintf("%d", v) }

// Text renders the table as aligned monospace text.
func (t *Table) Text() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Name != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Name)
	}
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells are numeric or
// simple identifiers; no quoting is needed and none is applied).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Report is the output of one experiment.
type Report struct {
	ID     string // registry key, e.g. "fig6"
	Title  string // the paper artifact it reproduces
	Tables []Table
	Notes  []string // observations to check against the paper's claims
}

// Text renders the full report.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	for i := range r.Tables {
		b.WriteString(r.Tables[i].Text())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner produces a report for one paper artifact.
type Runner func(cfg Config) (*Report, error)

var registry = map[string]struct {
	title string
	run   Runner
}{}

// register is called from each experiment file's init.
func register(id, title string, run Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = struct {
		title string
		run   Runner
	}{title, run}
}

// IDs returns every registered experiment id, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	// The keys are sorted below, so the map order cannot leak.
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns the paper artifact name of an experiment id.
func Title(id string) (string, bool) {
	e, ok := registry[id]
	return e.title, ok
}

// Run executes one experiment by id.
func Run(id string, cfg Config) (*Report, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return e.run(cfg)
}
