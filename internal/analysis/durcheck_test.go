package analysis

import (
	"strings"
	"testing"
)

// protoPrelude is the shared protocol model the durcheck fixtures build
// on: a disk manager, a WAL, and a pool whose well-known methods carry
// the effect-table contracts, mirroring the real storage/buffer shapes.
const protoPrelude = `package protofix

type Dev struct{ dirty bool }

func (d *Dev) WritePage(page int, b []byte) error { d.dirty = true; return nil }
func (d *Dev) WriteMeta(b []byte) error           { return nil }
func (d *Dev) Sync() error                        { d.dirty = false; return nil }

type Batch struct {
	pages []int
	meta  []byte
}

type WAL struct{ batches []Batch }

func (w *WAL) AppendBatch(pages []int, meta []byte) (uint64, error) { return 1, nil }
func (w *WAL) Checkpoint(batch uint64) error                        { return nil }

type Pool struct{ dev *Dev }

func (p *Pool) Put(page int, b []byte) error { return nil }
func (p *Pool) FlushDirty() error            { return nil }

func syncManager(d *Dev) error { return d.Sync() }

type Tree struct {
	dm      *Dev
	wal     *WAL
	pool    *Pool
	due     bool
	ckptErr error
}
`

// goodCommit is the faithful §7e step order; fixtures append it or a
// mutated copy to the prelude.
const goodCommit = `
func (t *Tree) commitUpdate(pages []int, meta []byte) error {
	if _, err := t.wal.AppendBatch(pages, meta); err != nil {
		return err
	}
	for _, pg := range pages {
		if err := t.pool.Put(pg, nil); err != nil {
			return err
		}
	}
	if err := t.pool.FlushDirty(); err != nil {
		return err
	}
	if err := t.dm.WriteMeta(meta); err != nil {
		return err
	}
	if t.due {
		if err := syncManager(t.dm); err != nil {
			t.ckptErr = err
		} else if err := t.wal.Checkpoint(1); err != nil {
			t.ckptErr = err
		} else {
			t.ckptErr = nil
		}
	}
	return nil
}
`

const goodRecover = `
func Recover(d *Dev, w *WAL) error {
	for _, b := range w.batches {
		for _, pg := range b.pages {
			if err := d.WritePage(pg, nil); err != nil {
				return err
			}
		}
		if err := d.WriteMeta(b.meta); err != nil {
			return err
		}
	}
	return nil
}
`

func analyzerNamed(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer %q", name)
	return nil
}

// TestDurcheckCleanProtocol is the negative control: the faithful commit
// protocol and recovery order raise nothing.
func TestDurcheckCleanProtocol(t *testing.T) {
	runModuleFixture(t, analyzerNamed(t, "durcheck"), []fixtureFile{
		{path: "fixture/protofix", src: protoPrelude + goodCommit + goodRecover},
	})
}

// TestDurcheckEarlyWriteBack seeds the hoisted-write-back mutation: a
// helper flushes the pool before AppendBatch, so the commit-before-
// writeback violation must surface interprocedurally at the helper call.
func TestDurcheckEarlyWriteBack(t *testing.T) {
	runModuleFixture(t, analyzerNamed(t, "durcheck"), []fixtureFile{
		{path: "fixture/protofix", src: protoPrelude + `
func stage(p *Pool) error { return p.FlushDirty() }

func (t *Tree) commitUpdate(pages []int, meta []byte) error {
	if err := stage(t.pool); err != nil { // WANT
		return err
	}
	if _, err := t.wal.AppendBatch(pages, meta); err != nil {
		return err
	}
	if err := t.dm.WriteMeta(meta); err != nil {
		return err
	}
	return nil
}
`},
	})
}

// TestDurcheckEarlyWriteBackWitness pins the witness chain of the
// interprocedural finding: it must thread commitUpdate -> stage ->
// the pool write-back.
func TestDurcheckEarlyWriteBackWitness(t *testing.T) {
	pkgs := fixtureModule(t, []fixtureFile{
		{path: "fixture/protofix", src: protoPrelude + `
func stage(p *Pool) error { return p.FlushDirty() }

func (t *Tree) commitUpdate(pages []int, meta []byte) error {
	if err := stage(t.pool); err != nil {
		return err
	}
	if _, err := t.wal.AppendBatch(pages, meta); err != nil {
		return err
	}
	return nil
}
`},
	})
	findings := Run(pkgs, []*Analyzer{analyzerNamed(t, "durcheck")})
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the early write-back", findings)
	}
	msg := findings[0].Message
	for _, needle := range []string{"commit-before-writeback", "calls protofix.stage", "FlushDirty", "witness:"} {
		if !strings.Contains(msg, needle) {
			t.Errorf("finding message missing %q: %s", needle, msg)
		}
	}
}

// TestDurcheckCheckpointBeforeSync seeds the checkpoint misorder: the
// WAL is truncated while the catalog publish is not yet covered by a
// sync.
func TestDurcheckCheckpointBeforeSync(t *testing.T) {
	runModuleFixture(t, analyzerNamed(t, "durcheck"), []fixtureFile{
		{path: "fixture/protofix", src: protoPrelude + `
func (t *Tree) commitUpdate(pages []int, meta []byte) error {
	if _, err := t.wal.AppendBatch(pages, meta); err != nil {
		return err
	}
	if err := t.pool.FlushDirty(); err != nil {
		return err
	}
	if err := t.dm.WriteMeta(meta); err != nil {
		return err
	}
	if t.due {
		if err := t.wal.Checkpoint(1); err != nil { // WANT
			t.ckptErr = err
		} else if err := syncManager(t.dm); err != nil {
			t.ckptErr = err
		}
	}
	return nil
}
`},
	})
}

// TestDurcheckPoolWritesCatalog seeds a layering violation: a pool
// write-back path publishing the catalog.
func TestDurcheckPoolWritesCatalog(t *testing.T) {
	runModuleFixture(t, analyzerNamed(t, "durcheck"), []fixtureFile{
		{path: "fixture/poolfix", src: `package poolfix

type Dev struct{}

func (d *Dev) WritePage(page int, b []byte) error { return nil }
func (d *Dev) WriteMeta(b []byte) error           { return nil }

type Pool struct {
	dev    *Dev
	frames [][]byte
}

func (p *Pool) FlushDirty() error {
	for pg, b := range p.frames {
		if err := p.dev.WritePage(pg, b); err != nil {
			return err
		}
	}
	return p.dev.WriteMeta(nil) // WANT
}
`},
	})
}

// TestDurcheckRulesResolve guards the rule scopes against silent rot the
// same way TestHotRootsExist guards the fact roots: every scoped rule
// must match at least one real-repo function, and the rule registry must
// stay consistent.
func TestDurcheckRulesResolve(t *testing.T) {
	m := loadRepoModule(t)
	for _, r := range Rules() {
		if r.Name == "" || r.Doc == "" || r.Step == "" || r.Witness == "" {
			t.Errorf("rule %q has empty documentation fields", r.Name)
		}
		if RuleByName(r.Name) == nil {
			t.Errorf("RuleByName(%q) does not resolve", r.Name)
		}
		if len(r.Scope) == 0 {
			continue
		}
		matched := false
		for _, n := range m.Graph.Nodes() {
			if r.inScope(n.Fn) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("rule %s scopes %v match no repository function", r.Name, r.Scope)
		}
	}
}

// repoEffNode resolves one real-repo function for the protocol
// assertions.
func repoEffNode(t *testing.T, m *Module, name string) *FuncNode {
	t.Helper()
	ns := m.Graph.ResolveName(name)
	if len(ns) != 1 {
		t.Fatalf("ResolveName(%s) = %d nodes, want 1", name, len(ns))
	}
	return ns[0]
}

// ruleNamed fetches a rule for direct evaluation.
func ruleNamed(t *testing.T, name string) *Rule {
	t.Helper()
	r := RuleByName(name)
	if r == nil {
		t.Fatalf("no rule %q", name)
	}
	return r
}

// TestRepoCommitUpdateSatisfiesRules is the real-repo assertion for
// commitUpdate: its traces actually reach every protocol effect (the
// rules are not vacuously true) and every commitUpdate-scoped rule
// passes.
func TestRepoCommitUpdateSatisfiesRules(t *testing.T) {
	m := loadRepoModule(t)
	e := m.Effects()
	n := repoEffNode(t, m, "storage.(*PagedTree).commitUpdate")

	set := e.EffectSet(n)
	for _, eff := range []Effect{EffLogAppend, EffCommit, EffWriteBack, EffSync, EffMetaWrite, EffCheckpoint} {
		if !set.Has(eff) {
			t.Errorf("commitUpdate effect set %s lacks %s — the protocol rules would be vacuous", set, eff)
		}
	}
	var sawFullTrace bool
	for _, tr := range e.BodyTraces(n) {
		s := tr.Set()
		if !tr.Approx && s.Has(EffCommit) && s.Has(EffWriteBack) && s.Has(EffMetaWrite) && s.Has(EffCheckpoint) {
			sawFullTrace = true
		}
	}
	if !sawFullTrace {
		t.Error("no precise commitUpdate trace covers commit, write-back, catalog, and checkpoint")
	}
	for _, name := range []string{
		"commit-before-writeback", "commit-before-catalog",
		"commit-before-checkpoint", "checkpoint-after-sync", "sync-before-publish",
	} {
		if vs := evalRule(ruleNamed(t, name), e, n); len(vs) != 0 {
			t.Errorf("rule %s violated by commitUpdate: %v", name, vs[0].Finding())
		}
	}
}

// TestRepoFlushDirtySatisfiesRules is the real-repo assertion for the
// pool write-back paths: they move pages and never touch the commit
// protocol's effects.
func TestRepoFlushDirtySatisfiesRules(t *testing.T) {
	m := loadRepoModule(t)
	e := m.Effects()
	r := ruleNamed(t, "writeback-pages-only")
	for _, name := range []string{"buffer.(*Pool).FlushDirty"} {
		n := repoEffNode(t, m, name)
		var movesPages bool
		for _, tr := range e.BodyTraces(n) {
			s := tr.Set()
			if s.Has(EffWriteBack) || s.Has(EffPageWrite) {
				movesPages = true
			}
		}
		if !movesPages {
			t.Errorf("%s traces never move a page — writeback-pages-only is vacuous", name)
		}
		if vs := evalRule(r, e, n); len(vs) != 0 {
			t.Errorf("writeback-pages-only violated by %s: %v", name, vs[0].Finding())
		}
	}
}

// TestRepoInsertComposesCommitTrace pins bottom-up composition on the
// real repo: Insert's traces include commitUpdate's commit effect with a
// multi-hop witness chain through the call.
func TestRepoInsertComposesCommitTrace(t *testing.T) {
	m := loadRepoModule(t)
	e := m.Effects()
	n := repoEffNode(t, m, "storage.(*PagedTree).Insert")
	for _, tr := range e.BodyTraces(n) {
		for _, ev := range tr.Events {
			if ev.Eff == EffCommit && ev.Inner != nil {
				chain := EventChain(ev)
				if len(chain) < 2 {
					t.Fatalf("commit event chain %v, want >= 2 hops", chain)
				}
				return
			}
		}
	}
	t.Fatal("no Insert trace carries a composed Commit event from commitUpdate")
}

// BenchmarkDurcheck measures the durcheck+errflow analysis phase on the
// real repository (graph construction excluded — BenchmarkLoadModule and
// the BENCH_PR8.json wall-time entry cover the full pipeline).
func BenchmarkDurcheck(b *testing.B) {
	root := repoRoot(b)
	pkgs, err := LoadModule(root)
	if err != nil {
		b.Fatal(err)
	}
	g := NewCallGraph(pkgs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &Module{Pkgs: pkgs, Graph: g}
		if fs := checkDur(m); len(fs) != 0 {
			b.Fatalf("unexpected findings: %v", fs)
		}
		if fs := checkErrFlow(m); len(fs) != 0 {
			b.Fatalf("unexpected findings: %v", fs)
		}
	}
}
