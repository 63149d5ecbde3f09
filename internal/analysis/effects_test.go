package analysis

import (
	"strings"
	"testing"
)

// effNode builds a single-package fixture module and returns its effect
// store plus the named function's node.
func effNode(t *testing.T, src, fn string) (*Effects, *FuncNode) {
	t.Helper()
	m := NewModule(fixtureModule(t, []fixtureFile{{path: "fixture/" + t.Name(), src: src}}))
	ns := m.Graph.ResolveName(fn)
	if len(ns) != 1 {
		t.Fatalf("ResolveName(%s) = %d nodes, want 1", fn, len(ns))
	}
	return m.Effects(), ns[0]
}

// traceStrings renders traces for order-insensitive containment checks.
func traceStrings(ts []EffTrace) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

func wantTrace(t *testing.T, ts []EffTrace, want string) {
	t.Helper()
	for _, s := range traceStrings(ts) {
		if s == want {
			return
		}
	}
	t.Errorf("no trace %q among %v", want, traceStrings(ts))
}

func rejectTrace(t *testing.T, ts []EffTrace, reject string) {
	t.Helper()
	for _, s := range traceStrings(ts) {
		if s == reject {
			t.Errorf("unwanted trace %q present", reject)
		}
	}
}

// TestEffectTraceShapes pins the scanner's path model: loops contribute
// zero, one, and two iterations; deferred calls land at every return
// (error returns included).
func TestEffectTraceShapes(t *testing.T) {
	e, n := effNode(t, `package efffix

type Dev struct{}

func (d *Dev) WritePage(page int, b []byte) error { return nil }
func (d *Dev) Sync() error                        { return nil }

func flush(d *Dev, n int) error {
	defer d.Sync()
	for i := 0; i < n; i++ {
		if err := d.WritePage(i, nil); err != nil {
			return err
		}
	}
	return nil
}
`, "flush")
	ts := e.BodyTraces(n)
	wantTrace(t, ts, "Sync")                       // zero iterations
	wantTrace(t, ts, "PageWrite Sync")             // one or more iterations, or a failed write: the defer still runs
	rejectTrace(t, ts, "Sync PageWrite")           // defers run at returns, not eagerly
	rejectTrace(t, ts, "PageWrite PageWrite Sync") // adjacent identical effects collapse
	if got := e.EffectSet(n); got != effects(EffPageWrite, EffSync) {
		t.Errorf("EffectSet(flush) = %s, want PageWrite|Sync", got)
	}
}

// TestEffectContractVsBody pins the two views of a table function: the
// summary callers compose is the contract, the body traces stay the
// implementation (here: one that never syncs).
func TestEffectContractVsBody(t *testing.T) {
	e, n := effNode(t, `package efffix

type Mgr struct{}

func (m *Mgr) writeHeader() error { return nil }

func (m *Mgr) WriteMeta(b []byte) error {
	return m.writeHeader()
}
`, "WriteMeta")
	sum := e.Summary(n)
	if len(sum) != 1 || sum[0].String() != "Sync MetaWrite" {
		t.Errorf("Summary(WriteMeta) = %v, want the [Sync MetaWrite] contract", traceStrings(sum))
	}
	wantTrace(t, e.BodyTraces(n), "MetaWrite")
	rejectTrace(t, e.BodyTraces(n), "Sync MetaWrite")
}

// TestEffectFuncLitInline pins closure inlining: effects inside a func
// literal are credited at its definition point, so retry-style wrappers
// keep their inner call's effects visible.
func TestEffectFuncLitInline(t *testing.T) {
	e, n := effNode(t, `package efffix

type Dev struct{ dirty bool }

func (d *Dev) Sync() error              { d.dirty = false; return nil }
func (d *Dev) WriteMeta(b []byte) error { return nil }

type Retrier struct{ inner *Dev }

func (r *Retrier) retry(f func() error) error { return f() }

func (r *Retrier) WriteMeta(b []byte) error {
	return r.retry(func() error { return r.inner.WriteMeta(b) })
}
`, "(*Retrier).WriteMeta")
	wantTrace(t, e.BodyTraces(n), "Sync MetaWrite")
	rejectTrace(t, e.BodyTraces(n), "(no effects)")
}

// TestEffectWitnessChain pins interprocedural composition: an effect
// reached through a helper renders a multi-hop chain ending at the
// effect-table boundary.
func TestEffectWitnessChain(t *testing.T) {
	e, n := effNode(t, `package efffix

type Dev struct{}

func (d *Dev) WritePage(page int, b []byte) error { return nil }

func helper(d *Dev) error { return d.WritePage(0, nil) }

func top(d *Dev) error { return helper(d) }
`, "top")
	ts := e.BodyTraces(n)
	wantTrace(t, ts, "PageWrite")
	var chain []string
	for _, tr := range ts {
		for _, ev := range tr.Events {
			if ev.Eff == EffPageWrite {
				chain = EventChain(ev)
			}
		}
	}
	if len(chain) != 2 {
		t.Fatalf("EventChain = %v, want 2 hops (top -> helper)", chain)
	}
	if !strings.Contains(chain[0], "top") || !strings.Contains(chain[0], "calls") {
		t.Errorf("outer hop %q should name top calling helper", chain[0])
	}
	if !strings.Contains(chain[1], "helper") || !strings.Contains(chain[1], "PageWrite") {
		t.Errorf("inner hop %q should anchor the PageWrite in helper", chain[1])
	}
}

// TestEffectRecursionClump pins the recursion fallback: a cycle degrades
// to an approximate unordered clump rather than diverging, and universal
// rules will skip it.
func TestEffectRecursionClump(t *testing.T) {
	e, n := effNode(t, `package efffix

type Dev struct{}

func (d *Dev) WritePage(page int, b []byte) error { return nil }

func ping(d *Dev, n int) error {
	if n == 0 {
		return nil
	}
	if err := d.WritePage(n, nil); err != nil {
		return err
	}
	return ping(d, n-1)
}
`, "ping")
	if got := e.EffectSet(n); !got.Has(EffPageWrite) {
		t.Fatalf("EffectSet(ping) = %s, want PageWrite", got)
	}
	var sawApprox bool
	for _, tr := range e.BodyTraces(n) {
		if tr.Approx {
			sawApprox = true
		}
	}
	if !sawApprox {
		t.Error("recursive function produced no approximate trace")
	}
}

// TestTracesIndependentOfQueryOrder: within a recursive pair, each call
// into the pair is an approximate clump, so f's and g's traces do not
// depend on which of the two was asked for first.
func TestTracesIndependentOfQueryOrder(t *testing.T) {
	const src = `package efffix

type Dev struct{}

func (d *Dev) WritePage(page int, b []byte) error { return nil }
func (d *Dev) Sync() error                        { return nil }

func f(d *Dev, n int) error {
	if n == 0 {
		return d.Sync()
	}
	if err := d.WritePage(n, nil); err != nil {
		return err
	}
	return g(d, n-1)
}

func g(d *Dev, n int) error {
	if err := f(d, n); err != nil {
		return err
	}
	return d.Sync()
}
`
	traces := func(first, second string) map[string][]string {
		m := NewModule(fixtureModule(t, []fixtureFile{{path: "fixture/" + t.Name(), src: src}}))
		out := map[string][]string{}
		for _, name := range []string{first, second} {
			out[name] = traceStrings(m.Effects().BodyTraces(one(t, m.Graph, name)))
		}
		return out
	}
	fg, gf := traces("f", "g"), traces("g", "f")
	for _, name := range []string{"f", "g"} {
		if strings.Join(fg[name], "; ") != strings.Join(gf[name], "; ") {
			t.Errorf("BodyTraces(%s) depends on query order:\n f first: %v\n g first: %v", name, fg[name], gf[name])
		}
	}
}
