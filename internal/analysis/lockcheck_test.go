package analysis

import "testing"

// lockcheckAnalyzer is the module-wide lockcheck entry as Run sees it.
func lockcheckAnalyzer() *Analyzer {
	return &Analyzer{Name: "lockcheck", CheckModule: checkLock}
}

func TestLockCheckLeaks(t *testing.T) {
	runModuleFixture(t, lockcheckAnalyzer(), []fixtureFile{{
		path: "fixture/TestLockCheckLeaks",
		src: `package fix

import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) earlyReturn(flag bool) int {
	b.mu.Lock()
	if flag {
		return -1 // WANT
	}
	b.mu.Unlock()
	return b.n
}

func (b *box) endLeak() {
	b.mu.Lock()
	b.n++
} // WANT

func (b *box) doubleLock() {
	b.mu.Lock()
	b.mu.Lock() // WANT
	b.mu.Unlock()
	b.mu.Unlock()
}

func (b *box) deferOK() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

func (b *box) branchesOK(flag bool) int {
	b.mu.Lock()
	if flag {
		b.mu.Unlock()
		return -1
	}
	b.mu.Unlock()
	return b.n
}
`,
	}})
}

func TestLockCheckHeldAcrossIO(t *testing.T) {
	runModuleFixture(t, lockcheckAnalyzer(), []fixtureFile{{
		path: "fixture/TestLockCheckHeldAcrossIO",
		src: `package fix

import (
	"os"
	"sync"
)

type store struct {
	mu sync.Mutex
}

// load's doesIO fact comes from os.ReadFile, one call deep.
func load(path string) ([]byte, error) {
	return os.ReadFile(path)
}

func (s *store) bad(path string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return load(path) // WANT
}

func (s *store) good(path string) ([]byte, error) {
	s.mu.Lock()
	s.mu.Unlock()
	return load(path)
}
`,
	}})
}

func TestLockCheckChannelOps(t *testing.T) {
	runModuleFixture(t, lockcheckAnalyzer(), []fixtureFile{{
		path: "fixture/TestLockCheckChannelOps",
		src: `package fix

import "sync"

type q struct {
	mu sync.Mutex
	ch chan int
}

func (x *q) recvUnderLock() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	v := <-x.ch // WANT
	return v
}

func (x *q) sendUnderLock(v int) {
	x.mu.Lock()
	x.ch <- v // WANT
	x.mu.Unlock()
}

func (x *q) recvOutsideLock() int {
	v := <-x.ch
	x.mu.Lock()
	defer x.mu.Unlock()
	return v
}
`,
	}})
}

// TestLockCheckCrossPackage is the acceptance fixture for fact flow: the
// blocking evidence is an os call two hops away, reached through an
// interface dispatch in another package.
func TestLockCheckCrossPackage(t *testing.T) {
	runModuleFixture(t, lockcheckAnalyzer(), []fixtureFile{
		{
			path: "fixture/TestLockCheckCrossPackage/dev",
			src: `package dev

import "os"

// Dev abstracts the page source, mirroring storage.DiskManager.
type Dev interface {
	Read(p []byte) (int, error)
}

type File struct {
	f *os.File
}

func (d *File) Read(p []byte) (int, error) {
	return d.f.Read(p)
}
`,
		},
		{
			path: "fixture/TestLockCheckCrossPackage/pool",
			src: `package pool

import (
	"sync"

	"fixture/TestLockCheckCrossPackage/dev"
)

type Pool struct {
	mu sync.Mutex
	d  dev.Dev
}

// Fill holds mu across an interface dispatch whose only implementer
// does real I/O: the doesIO fact crosses the package boundary.
func (p *Pool) Fill(buf []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.d.Read(buf) // WANT
}

func (p *Pool) FillUnlocked(buf []byte) (int, error) {
	p.mu.Lock()
	p.mu.Unlock()
	return p.d.Read(buf)
}
`,
		},
	})
}

// TestLockCheckLoopIterations: a loop body runs again on the state its
// last iteration left, so a Lock with no Unlock in the body meets
// itself.
func TestLockCheckLoopIterations(t *testing.T) {
	runModuleFixture(t, lockcheckAnalyzer(), []fixtureFile{{
		path: "fixture/TestLockCheckLoopIterations",
		src: `package fix

import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) lockInLoop(xs []int) {
	for range xs {
		b.mu.Lock() // WANT
	}
}

func (b *box) lockPerIteration(xs []int) {
	for _, x := range xs {
		b.mu.Lock()
		if x < 0 {
			b.mu.Unlock()
			continue
		}
		b.n += x
		b.mu.Unlock()
	}
}
`,
	}})
}
