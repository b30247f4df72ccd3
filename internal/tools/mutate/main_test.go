package main

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixture runs the tool on testdata/fixture, a module of its own, and
// checks each mutant's class, that the one survivor without a verdict fails
// the run, and that the fixture's bytes are unchanged.
func TestFixture(t *testing.T) {
	const dir = "testdata/fixture"
	before := snapshot(t, dir)
	tmp := t.TempDir()
	table, surv := filepath.Join(tmp, "table.txt"), filepath.Join(tmp, "survivors.txt")
	write(t, table, "# file package selector\nfixture.go . ^Test(Max|Label)$\n")
	write(t, surv, "fixture.go\tNeg zero: return -x -> return 0 #1\tmissing test: nothing calls Neg\n")
	var report, log bytes.Buffer
	c := &config{dir: dir, table: table, survivors: surv, jobs: 2, out: &report, log: &log}
	code, err := c.main(nil)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit code %d with a survivor the verdicts do not list, want 1\n%s", code, log.String())
	}
	want := map[string]string{
		"Max negate: if b > m -> if !(b > m) #1":            killed,
		"Max cmp: b > m -> b >= m #1":                       survived,
		"Max delete: m = b -> (deleted) #1":                 killed,
		"Max zero: return m -> return 0 #1":                 killed,
		"Label delete: s = strconv.Itoa(x) -> (deleted) #1": unbuildable,
		"Neg zero: return -x -> return 0 #1":                uncovered,
	}
	got := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(report.String()), "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		class, rest, _ := strings.Cut(l, " ")
		_, id, _ := strings.Cut(rest, "\t")
		got[id] = class
	}
	if len(got) != len(want) {
		t.Errorf("%d mutants, want %d:\n%s", len(got), len(want), report.String())
	}
	for id, class := range want {
		if got[id] != class {
			t.Errorf("%s: %q, want %q", id, got[id], class)
		}
	}
	if !strings.Contains(log.String(), "new survivor: fixture.go\tMax cmp: b > m -> b >= m #1") {
		t.Errorf("the unlisted survivor is not reported as new:\n%s", log.String())
	}
	if after := snapshot(t, dir); after != before {
		t.Error("the run changed the fixture's files")
	}
}

// TestRefusesEmptySelector: a table row whose selector matches no test is
// an error, not a run in which every mutant survives.
func TestRefusesEmptySelector(t *testing.T) {
	tmp := t.TempDir()
	table := filepath.Join(tmp, "table.txt")
	write(t, table, "fixture.go . ^TestGone$\n")
	c := &config{dir: "testdata/fixture", table: table, survivors: filepath.Join(tmp, "none.txt"), jobs: 1, out: io.Discard, log: io.Discard}
	if _, err := c.main(nil); err == nil || !strings.Contains(err.Error(), "selects no test") {
		t.Fatalf("err = %v, want a refusal of the selector", err)
	}
}

func write(t *testing.T, path, s string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
}

// snapshot is every file under dir with its bytes.
func snapshot(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		b.WriteString(p + "\n" + string(data) + "\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}
