package analysis

import "testing"

// one resolves exactly one node by name (bare or display form).
func one(t *testing.T, g *CallGraph, name string) *FuncNode {
	t.Helper()
	nodes := g.ResolveName(name)
	if len(nodes) != 1 {
		t.Fatalf("ResolveName(%q) = %d nodes, want 1", name, len(nodes))
	}
	return nodes[0]
}

// TestFactsMutualRecursionSCC puts the lock evidence outside a
// two-function cycle: both members must inherit it from the callee that
// holds it, and a self-recursive pure function must stay pure.
func TestFactsMutualRecursionSCC(t *testing.T) {
	pkg := fixturePkg(t, `package scc

import "sync"

var mu sync.Mutex

func ping(n int) int {
	if n == 0 {
		return touch()
	}
	return pong(n - 1)
}

func pong(n int) int {
	return ping(n - 1)
}

func touch() int {
	mu.Lock()
	defer mu.Unlock()
	return 1
}

func pure(n int) int {
	if n <= 0 {
		return 0
	}
	return n + pure(n-1)
}
`)
	g := NewModule([]*Package{pkg}).Graph
	for _, name := range []string{"ping", "pong", "touch"} {
		if n := one(t, g, name); n.Facts != FactAcquiresLock {
			t.Errorf("%s facts = %s, want acquiresLock", name, n.Facts)
		}
	}
	if p := one(t, g, "pure"); p.Facts.String() != "pure" {
		t.Errorf("pure facts = %s, want pure", p.Facts)
	}
	if s := (FactAcquiresLock | FactUsesAtomic).String(); s != "acquiresLock|usesAtomic" {
		t.Errorf("FactSet.String = %q, want acquiresLock|usesAtomic", s)
	}
	ping, pong := one(t, g, "ping"), one(t, g, "pong")
	if ping.Intrinsics != 0 || pong.Intrinsics != 0 {
		t.Errorf("cycle intrinsics = %s, %s: the fact must come from touch", ping.Intrinsics, pong.Intrinsics)
	}
}

// TestFactsMethodValueReference checks the conservative reference edge: a
// method handed around as a value taints the function forming the value,
// because the graph cannot see where the value is invoked.
func TestFactsMethodValueReference(t *testing.T) {
	pkg := fixturePkg(t, `package mv

import (
	"sync"
	"sync/atomic"
)

type sink struct {
	mu sync.Mutex
	n  atomic.Int64
}

func (s *sink) flush() {
	s.mu.Lock()
	s.n.Add(1)
	s.mu.Unlock()
}

func holder(s *sink) func() {
	return s.flush
}

func bystander(n int) int {
	return n * 2
}
`)
	g := NewModule([]*Package{pkg}).Graph
	h := one(t, g, "holder")
	if want := FactAcquiresLock | FactUsesAtomic; h.Facts != want {
		t.Errorf("holder facts = %s, want %s through the method value", h.Facts, want)
	}
	if b := one(t, g, "bystander"); b.Facts != 0 {
		t.Errorf("bystander facts = %s, want pure", b.Facts)
	}
}

// TestDispatchTargetsOverInterface checks CHA resolution: a call through
// an interface must list every module implementer as a target and union
// their facts.
func TestDispatchTargetsOverInterface(t *testing.T) {
	pkg := fixturePkg(t, `package ifd

import "sync"

type device interface {
	read(p []byte) (int, error)
}

type lockedDev struct {
	mu   sync.Mutex
	data []byte
}

func (d *lockedDev) read(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return copy(p, d.data), nil
}

type memDev struct{ data []byte }

func (d *memDev) read(p []byte) (int, error) { return copy(p, d.data), nil }

func drain(d device, p []byte) (int, error) {
	return d.read(p)
}
`)
	g := NewModule([]*Package{pkg}).Graph
	n := one(t, g, "drain")
	var dispatch *Call
	for _, c := range n.Calls {
		if c.Dispatch {
			if dispatch != nil {
				t.Fatalf("drain has more than one dispatch site")
			}
			dispatch = c
		}
	}
	if dispatch == nil {
		t.Fatal("drain has no dispatch call site")
	}
	if len(dispatch.Targets) != 2 {
		t.Errorf("dispatch targets = %d, want 2 (lockedDev and memDev)", len(dispatch.Targets))
	}
	if n.Facts&FactAcquiresLock == 0 {
		t.Errorf("drain facts = %s, want acquiresLock from the lockedDev implementer", n.Facts)
	}
}

// TestFactsCrossPackageDispatch: the lock evidence sits in another
// package, behind an interface, and reaches the caller whichever way the
// caller's body is shaped; a function that dispatches nothing stays
// pure, and a goroutine spawned in the other package shows as its own
// fact.
func TestFactsCrossPackageDispatch(t *testing.T) {
	pkgs := fixtureModule(t, []fixtureFile{
		{
			path: "fixture/TestFactsCrossPackageDispatch/dev",
			src: `package dev

import "sync"

// Dev abstracts the page source, mirroring buffer.PagePool.
type Dev interface {
	Read(p []byte) int
}

type Shared struct {
	mu   sync.Mutex
	data []byte
}

func (d *Shared) Read(p []byte) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return copy(p, d.data)
}

type Prefetch struct{ data []byte }

func (d *Prefetch) Read(p []byte) int {
	go func() { _ = len(d.data) }()
	return copy(p, d.data)
}
`,
		},
		{
			path: "fixture/TestFactsCrossPackageDispatch/pool",
			src: `package pool

import "fixture/TestFactsCrossPackageDispatch/dev"

type Pool struct {
	d dev.Dev
}

func (p *Pool) Fill(buf []byte) int {
	return p.d.Read(buf)
}

func (p *Pool) FillTwice(buf []byte) int {
	n := 0
	for i := 0; i < 2; i++ {
		n += p.Fill(buf)
	}
	return n
}

func (p *Pool) Size(buf []byte) int {
	return len(buf)
}
`,
		},
	})
	g := NewModule(pkgs).Graph
	want := FactAcquiresLock | FactSpawnsGoroutine
	for _, name := range []string{"pool.(*Pool).Fill", "pool.(*Pool).FillTwice"} {
		if n := one(t, g, name); n.Facts != want {
			t.Errorf("%s facts = %s, want %s", name, n.Facts, want)
		}
	}
	if n := one(t, g, "pool.(*Pool).Size"); n.Facts != 0 {
		t.Errorf("Size facts = %s, want pure", n.Facts)
	}
	if n := one(t, g, "dev.(*Prefetch).Read"); n.Intrinsics != FactSpawnsGoroutine {
		t.Errorf("Prefetch.Read intrinsics = %s, want spawnsGoroutine", n.Intrinsics)
	}
}
