package analysis

import "testing"

func TestErrCheckFlagsDiscardedErrors(t *testing.T) {
	runFixture(t, checkErrCheck, "errcheck", `
package fixture

import "errors"

func fail() error          { return errors.New("boom") }
func pair() (int, error)   { return 0, errors.New("boom") }
func clean() int           { return 0 }

func drops() {
	fail() // WANT
	pair() // WANT
	clean()
}
`)
}

func TestErrCheckFlagsMethodCalls(t *testing.T) {
	runFixture(t, checkErrCheck, "errcheck", `
package fixture

import "os"

func closeTwice(f *os.File) {
	f.Close() // WANT
	f.Sync()  // WANT
}
`)
}

func TestErrCheckAllowsHandledAndExcluded(t *testing.T) {
	runFixture(t, checkErrCheck, "errcheck", `
package fixture

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
)

func fail() error { return errors.New("boom") }

func handled() error {
	_ = fail()
	if err := fail(); err != nil {
		return err
	}
	defer fail()
	fmt.Println("progress")
	fmt.Fprintf(os.Stderr, "progress")
	var b strings.Builder
	b.WriteByte('x')
	crc32.NewIEEE().Write([]byte("x"))
	fail() //lint:allow errcheck best effort by design
	return fail()
}
`)
}

func TestErrCheckFlagsFprintfToRealWriters(t *testing.T) {
	runFixture(t, checkErrCheck, "errcheck", `
package fixture

import (
	"fmt"
	"os"
)

func report(f *os.File) {
	fmt.Fprintf(f, "header %d\n", 1) // WANT
	fmt.Fprintln(os.Stdout, "fine")
}
`)
}

// TestErrCheckFprintByWriterType: fmt.Fprint* cannot fail into a
// *strings.Builder or *bytes.Buffer, which the first argument's static
// type says; through an io.Writer the concrete writer is unknown and the
// dropped error stays a finding.
func TestErrCheckFprintByWriterType(t *testing.T) {
	runFixture(t, checkErrCheck, "errcheck", `
package fixture

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

func render(w io.Writer) string {
	var sb strings.Builder
	var buf bytes.Buffer
	fmt.Fprintf(&sb, "n=%d", 1)
	fmt.Fprintln(&buf, "x")
	fmt.Fprintf(w, "n=%d", 1) // WANT
	return sb.String() + buf.String()
}
`)
}

// TestErrCheckHonorsAllowAnnotation: an annotation excuses its own line
// or the line below it, may list several analyzers, and excuses nothing
// for an analyzer it does not name.
func TestErrCheckHonorsAllowAnnotation(t *testing.T) {
	runFixture(t, checkErrCheck, "errcheck", `
package fixture

import "errors"

func fail() error { return errors.New("boom") }

func excused() {
	fail() //lint:allow errcheck best effort by design
	//lint:allow errcheck the caller retries
	fail()
	fail() //lint:allow lockcheck,errcheck both excused
	fail() //lint:allow lockcheck wrong analyzer  // WANT
}
`)
}
