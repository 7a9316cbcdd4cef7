package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func check(t *testing.T, name, src string) []Diag {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := checkFiles([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func TestFlagsUnguardedWorkListLoop(t *testing.T) {
	diags := check(t, "a.go", `package glr

func drain(work []int) {
	for len(work) > 0 {
		work = work[1:]
	}
}
`)
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "guard.Budget checkpoint") {
		t.Errorf("message = %q", diags[0].Message)
	}
	if !strings.Contains(diags[0].Pos, "a.go:4") {
		t.Errorf("pos = %q, want line 4", diags[0].Pos)
	}
}

func TestFlagsInfiniteLoop(t *testing.T) {
	diags := check(t, "b.go", `package ambig

func spin() {
	for {
	}
}
`)
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic, got %v", diags)
	}
}

func TestCheckpointSatisfies(t *testing.T) {
	for _, call := range []string{"w.bud.Check()", "bud.Limit(1)"} {
		diags := check(t, "c.go", `package digraph

func drain(work []int) error {
	for len(work) > 0 {
		if err := `+call+`; err != nil {
			return err
		}
		work = work[1:]
	}
	return nil
}
`)
		if len(diags) != 0 {
			t.Errorf("%s: loop with checkpoint flagged: %v", call, diags)
		}
	}
}

func TestWaiverComment(t *testing.T) {
	// Waiver on the line above and on the for line itself.
	for _, src := range []string{
		`package treecount

func f(n int) {
	//guardloop:ok — bounded by caller
	for n > 0 {
		n--
	}
}
`,
		`package treecount

func f(n int) {
	for n > 0 { //guardloop:ok — bounded by caller
		n--
	}
}
`,
	} {
		if diags := check(t, "d.go", src); len(diags) != 0 {
			t.Errorf("waived loop flagged: %v", diags)
		}
	}
}

func TestBoundedAndRangeLoopsExempt(t *testing.T) {
	diags := check(t, "e.go", `package glr

func f(xs []int) int {
	total := 0
	for i := 0; i < len(xs); i++ {
		total += xs[i]
	}
	for _, x := range xs {
		total += x
	}
	return total
}
`)
	if len(diags) != 0 {
		t.Errorf("bounded loops flagged: %v", diags)
	}
}

// TestGrammarPackageChecked: the front end's saturation worklist is
// governed like the other engines — unguarded it is flagged, with a
// checkpoint it passes.
func TestGrammarPackageChecked(t *testing.T) {
	const unguarded = `package grammar

func derive(work []int32) {
	for len(work) > 0 {
		work = work[:len(work)-1]
	}
}
`
	if diags := check(t, "derive.go", unguarded); len(diags) != 1 {
		t.Fatalf("want 1 diagnostic for the unguarded worklist, got %v", diags)
	}
	guarded := strings.Replace(unguarded, "\t\twork = ",
		"\t\tif err := bud.Check(); err != nil {\n\t\t\treturn\n\t\t}\n\t\twork = ", 1)
	if diags := check(t, "derive.go", guarded); len(diags) != 0 {
		t.Errorf("checkpointed worklist flagged: %v", diags)
	}
}

func TestOtherPackagesIgnored(t *testing.T) {
	diags := check(t, "f.go", `package server

func spin() {
	for {
	}
}
`)
	if len(diags) != 0 {
		t.Errorf("ungoverned package flagged: %v", diags)
	}
}

func TestTestFilesIgnored(t *testing.T) {
	diags := check(t, "g_test.go", `package glr

func spin() {
	for {
	}
}
`)
	if len(diags) != 0 {
		t.Errorf("test file flagged: %v", diags)
	}
}

func TestProtocolFlags(t *testing.T) {
	if run([]string{"-V=full"}) != 0 {
		t.Error("-V=full must exit 0")
	}
	if run([]string{"-flags"}) != 0 {
		t.Error("-flags must exit 0")
	}
	if run([]string{}) != 2 {
		t.Error("no args must be a usage error")
	}
}
