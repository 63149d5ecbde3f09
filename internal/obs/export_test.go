package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// goldenRegistry builds the fixed registry every exporter golden test
// renders: one counter family with two label sets, a gauge, and a
// histogram with observations spanning several buckets.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("buffer_hits_total", L("policy", "lru"), L("level", "0")).Add(42)
	r.Counter("buffer_hits_total", L("policy", "lru"), L("level", "1")).Add(7)
	r.Gauge("sim_fill_query").Set(1234)
	h := r.Histogram("query_nodes")
	h.Observe(0.5)
	h.Observe(1)
	h.Observe(3)
	h.Observe(3)
	return r
}

func TestWriteTextGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteText(&b, goldenRegistry()); err != nil {
		t.Fatal(err)
	}
	want := `buffer_hits_total{level="0",policy="lru"}  42
buffer_hits_total{level="1",policy="lru"}  7
query_nodes                                count=4 sum=7.5 mean=1.875 p50=2 p95=3.73 p99=3.94
sim_fill_query                             1234
`
	if b.String() != want {
		t.Errorf("text export:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWriteTextEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteText(&b, nil); err != nil {
		t.Fatal(err)
	}
	if b.String() != "(no metrics)\n" {
		t.Errorf("empty text export = %q", b.String())
	}
}

func TestWriteJSONGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteJSON(&b, goldenRegistry()); err != nil {
		t.Fatal(err)
	}
	want := `[
  {
    "name": "buffer_hits_total",
    "labels": {
      "level": "0",
      "policy": "lru"
    },
    "kind": "counter",
    "value": 42
  },
  {
    "name": "buffer_hits_total",
    "labels": {
      "level": "1",
      "policy": "lru"
    },
    "kind": "counter",
    "value": 7
  },
  {
    "name": "query_nodes",
    "kind": "histogram",
    "count": 4,
    "sum": 7.5,
    "buckets": [
      {
        "le": "1",
        "count": 1
      },
      {
        "le": "2",
        "count": 1
      },
      {
        "le": "4",
        "count": 2
      }
    ]
  },
  {
    "name": "sim_fill_query",
    "kind": "gauge",
    "value": 1234
  }
]
`
	if b.String() != want {
		t.Errorf("json export:\n%s\nwant:\n%s", b.String(), want)
	}
	// And it must round-trip as valid JSON.
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(parsed) != 4 {
		t.Errorf("parsed %d metrics, want 4", len(parsed))
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, goldenRegistry()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE buffer_hits_total counter
buffer_hits_total{level="0",policy="lru"} 42
buffer_hits_total{level="1",policy="lru"} 7
# TYPE query_nodes histogram
query_nodes_bucket{le="1"} 1
query_nodes_bucket{le="2"} 2
query_nodes_bucket{le="4"} 4
query_nodes_bucket{le="+Inf"} 4
query_nodes_sum 7.5
query_nodes_count 4
# TYPE sim_fill_query gauge
sim_fill_query 1234
`
	if b.String() != want {
		t.Errorf("prometheus export:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestWritePrometheusLabelOrderStable renders a counter with six labels
// 20 times: every render is the same bytes, with the labels in key order
// (here also the order they were registered in). A renderer that ranged
// a map of the labels would change the order from render to render.
func TestWritePrometheusLabelOrderStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("six_total", L("a", "1"), L("b", "2"), L("c", "3"), L("d", "4"), L("e", "5"), L("f", "6")).Add(9)
	const want = `# TYPE six_total counter
six_total{a="1",b="2",c="3",d="4",e="5",f="6"} 9
`
	for i := 0; i < 20; i++ {
		var b strings.Builder
		if err := WritePrometheus(&b, r); err != nil {
			t.Fatal(err)
		}
		if b.String() != want {
			t.Fatalf("render %d:\n%s\nwant:\n%s", i, b.String(), want)
		}
	}
}

// TestPromEscapeHostileValues pins the exact escaping of every character
// class the text-exposition 0.0.4 spec requires in label values —
// backslash, double quote, and newline — including combinations where a
// wrong replacement order would double-escape.
func TestPromEscapeHostileValues(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{`plain`, `plain`},
		{"line1\nline2", `line1\nline2`},
		{`say "hi"`, `say \"hi\"`},
		{`back\slash`, `back\\slash`},
		{`trailing\`, `trailing\\`},
		// A literal backslash-n must not collapse into an escaped newline.
		{`already\n`, `already\\n`},
		// A backslash before a quote: escape each independently.
		{`\"`, `\\\"`},
		{"\"\n\\", `\"\n\\`},
		{"", ``},
	}
	for _, c := range cases {
		if got := promEscape(c.in); got != c.want {
			t.Errorf("promEscape(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestWritePrometheusHostileLabelsGolden renders a registry whose label
// values contain every escape-worthy character and pins the exact
// exposition output.
func TestWritePrometheusHostileLabelsGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("hostile_total", L("path", `C:\temp\x`)).Inc()
	r.Counter("hostile_total", L("path", "two\nlines")).Add(2)
	r.Counter("hostile_total", L("path", `quote "q" end`)).Add(3)
	r.Counter("hostile_total", L("path", "mix\\\"\n")).Add(4)
	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE hostile_total counter
hostile_total{path="C:\\temp\\x"} 1
hostile_total{path="mix\\\"\n"} 4
hostile_total{path="quote \"q\" end"} 3
hostile_total{path="two\nlines"} 2
`
	if b.String() != want {
		t.Errorf("hostile-label exposition:\n%s\nwant:\n%s", b.String(), want)
	}
	// No raw newline may survive inside a sample line.
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.Contains(line, "hostile_total{") {
			t.Errorf("label newline leaked into exposition line %q", line)
		}
	}
}

// TestPrometheusFormatValidity asserts structural invariants of the
// exposition format on a richer registry: every non-comment line is
// `name{labels} value`, bucket counts are cumulative, and each family has
// exactly one TYPE line.
func TestPrometheusFormatValidity(t *testing.T) {
	r := goldenRegistry()
	r.Counter("odd_value_total", L("path", `C:\x "q"`)).Inc()
	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			types[parts[2]]++
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("unterminated label set: %q", line)
			}
			name = name[:i]
		}
		for _, c := range name {
			if !(c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
				t.Errorf("invalid metric name char %q in %q", c, name)
			}
		}
	}
	for fam, n := range types {
		if n != 1 {
			t.Errorf("family %s has %d TYPE lines, want 1", fam, n)
		}
	}
	if !strings.Contains(b.String(), `path="C:\\x \"q\""`) {
		t.Errorf("label escaping missing:\n%s", b.String())
	}
}
