// Command mutate is the repository's mutation tester: it makes small
// changes to a Go source file, one at a time, and reports which ones the
// file's tests notice.
//
// Each mutant is built with `go test -c -overlay`, so the tree is never
// edited, and its test binary runs with the -run selector that table.txt
// gives the file, from the package directory, under a timeout of three
// times the unmutated run (timed as many at once as mutants run) plus 2 s.
// A mutant is killed (a test failed), timed out, unbuildable, survived,
// or uncovered: a coverage run of the unmutated tests never executed its
// statement, so it survives without being run. The operators are <↔<=,
// >↔>=, ==↔!=, &&↔||, an integer literal ±1, a dropped +1/-1 offset, a
// negated if condition, a deleted assignment or call statement,
// break↔continue, and a zero-value return.
//
// survivors.txt records a verdict for every known survivor: equivalent,
// perf-only or missing test. A survivor it does not list is new, and the
// run exits 1. From the module root:
//
//	go run ./internal/tools/mutate internal/core/simprovsweep.go > mutants.txt
//	go run ./internal/tools/mutate > mutants.txt        # every file of table.txt
//
// The per-mutant report goes to standard output, progress and new
// survivors to standard error. -only reruns just the mutants a file lists
// as file<TAB>mutant lines: to compare a test change with its parent,
// copy this directory into a checkout of the parent and rerun there the
// mutants the change did not kill.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// row is one line of the table: a target file, a package whose tests
// guard it, and the -run selector of those tests.
type row struct {
	file, pkg, run string
}

// Outcomes.
const (
	killed      = "killed"
	timedOut    = "timeout"
	unbuildable = "unbuildable"
	survived    = "survived"
	uncovered   = "uncovered"
)

// verdictKinds are the accepted starts of a survivor's verdict.
var verdictKinds = []string{"equivalent", "perf-only", "missing test"}

// The table and the verdict file, relative to the module root.
const (
	tablePath     = "internal/tools/mutate/table.txt"
	survivorsPath = "internal/tools/mutate/survivors.txt"
)

func main() {
	c := config{dir: ".", table: tablePath, survivors: survivorsPath,
		jobs: runtime.GOMAXPROCS(0), out: os.Stdout, log: os.Stderr}
	flag.StringVar(&c.only, "only", "", "run only the mutants this file lists, as file<TAB>mutant lines")
	flag.Parse()
	code, err := c.main(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutate:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// config is one run: the module root, the table and verdict files, the
// mutants built and run at once, and where the report and progress go.
type config struct {
	dir, table, survivors, only string
	jobs                        int
	out, log                    io.Writer
}

// main runs the named files (every file of the table when none is named)
// and returns 1 when one has a survivor that the verdict file does not list.
func (c *config) main(files []string) (int, error) {
	rows, err := readTable(c.table)
	if err != nil {
		return 0, err
	}
	if len(files) > 0 {
		rows = slices.DeleteFunc(rows, func(r row) bool { return !slices.Contains(files, r.file) })
		for _, f := range files {
			if !slices.ContainsFunc(rows, func(r row) bool { return r.file == f }) {
				return 0, fmt.Errorf("%s: not in %s", f, c.table)
			}
		}
	}
	verdicts, err := readVerdicts(c.survivors)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, err
	}
	var only map[string]bool
	if c.only != "" {
		lines, err := readLines(c.only)
		if err != nil {
			return 0, err
		}
		only = map[string]bool{}
		for _, l := range lines {
			f := strings.Split(l.text, "\t")
			if len(f) < 2 {
				return 0, fmt.Errorf("%s:%d: want file<TAB>mutant", c.only, l.n)
			}
			only[f[0]+"\t"+f[1]] = true
		}
	}
	code := 0
	for _, file := range uniqueFiles(rows) {
		ms, err := c.mutants(file)
		if err != nil {
			return 0, err
		}
		if only != nil {
			ms = slices.DeleteFunc(ms, func(m *mutant) bool { return !only[m.file+"\t"+m.id()] })
		}
		res, err := c.runFile(file, ms, rowsOf(rows, file))
		if err != nil {
			return 0, err
		}
		if report(c.out, c.log, file, ms, res, verdicts[file]) {
			code = 1
		}
	}
	return code, nil
}

func (c *config) mutants(file string) ([]*mutant, error) {
	src, err := os.ReadFile(filepath.Join(c.dir, file))
	if err != nil {
		return nil, err
	}
	return generate(file, src)
}

// readTable parses the table: "file package selector" per line, # comments.
func readTable(path string) ([]row, error) {
	lines, err := readLines(path)
	if err != nil {
		return nil, err
	}
	var rows []row
	for _, l := range lines {
		f := strings.Fields(l.text)
		if len(f) != 3 {
			return nil, fmt.Errorf("%s:%d: want file, package and -run selector", path, l.n)
		}
		rows = append(rows, row{f[0], f[1], f[2]})
	}
	return rows, nil
}

// readVerdicts parses the verdict file: "file<TAB>mutant id<TAB>verdict".
func readVerdicts(path string) (map[string]map[string]string, error) {
	lines, err := readLines(path)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]string{}
	for _, l := range lines {
		f := strings.Split(l.text, "\t")
		if len(f) != 3 || !slices.ContainsFunc(verdictKinds, func(k string) bool { return strings.HasPrefix(f[2], k) }) {
			return nil, fmt.Errorf("%s:%d: want file<TAB>mutant<TAB>verdict, the verdict one of %q", path, l.n, verdictKinds)
		}
		if out[f[0]] == nil {
			out[f[0]] = map[string]string{}
		}
		out[f[0]][f[1]] = f[2]
	}
	return out, nil
}

type line struct {
	n    int
	text string
}

// readLines returns a file's lines that are neither blank nor # comments.
func readLines(path string) ([]line, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []line
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		if t := strings.TrimSpace(sc.Text()); t != "" && !strings.HasPrefix(t, "#") {
			out = append(out, line{n, sc.Text()})
		}
	}
	return out, sc.Err()
}

func uniqueFiles(rows []row) []string {
	var out []string
	for _, r := range rows {
		if !slices.Contains(out, r.file) {
			out = append(out, r.file)
		}
	}
	return out
}

func rowsOf(rows []row, file string) []row {
	return slices.DeleteFunc(slices.Clone(rows), func(r row) bool { return r.file != file })
}

// guard is one row made ready to run: its unmutated test binary's time and
// the source lines its coverage run executed.
type guard struct {
	row
	pkgDir  string
	timeout time.Duration
	covered blocks
}

// runFile classifies every mutant of one file.
func (c *config) runFile(file string, ms []*mutant, rows []row) ([]string, error) {
	abs, err := filepath.Abs(filepath.Join(c.dir, file))
	if err != nil {
		return nil, err
	}
	src, err := os.ReadFile(abs)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "mutate-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var gs []*guard
	for i, r := range rows {
		g, err := c.prepare(r, abs, filepath.Join(tmp, fmt.Sprintf("base%d", i)))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(c.log, "%s: %s -run %s: %d mutants, baseline %v, timeout %v\n",
			file, r.pkg, r.run, len(ms), (g.timeout-2*time.Second)/3, g.timeout)
		gs = append(gs, g)
	}
	res := make([]string, len(ms))
	next := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	for w := range c.jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res[i] = c.classify(ms[i], src, abs, gs, filepath.Join(tmp, fmt.Sprintf("w%d", w)))
				mu.Lock()
				done++
				if done%25 == 0 || done == len(ms) {
					fmt.Fprintf(c.log, "%s: %d/%d\n", file, done, len(ms))
				}
				mu.Unlock()
			}
		}()
	}
	for i := range ms {
		next <- i
	}
	close(next)
	wg.Wait()
	return res, nil
}

// prepare builds and runs a row's unmutated tests, which must pass and
// must select a test, then runs them again under coverage. A mutant's
// timeout is three times the slowest of c.jobs unmutated runs made at
// once, as the mutants run, plus 2 s.
func (c *config) prepare(r row, abs, base string) (*guard, error) {
	pkgDir, err := c.goOut("list", "-f", "{{.Dir}}", r.pkg)
	if err != nil {
		return nil, err
	}
	g := &guard{row: r, pkgDir: strings.TrimSpace(pkgDir)}
	bin := base + ".test"
	if _, err := c.goOut("test", "-c", "-o", bin, r.pkg); err != nil {
		return nil, err
	}
	names, err := runOut(g.pkgDir, bin, "-test.list", r.run)
	if err != nil {
		return nil, fmt.Errorf("%s -test.list %s: %v", r.pkg, r.run, err)
	}
	if strings.TrimSpace(names) == "" {
		return nil, fmt.Errorf("%s: -run %s selects no test", r.pkg, r.run)
	}
	var slowest time.Duration
	var fail error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range c.jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			out, err := runOut(g.pkgDir, bin, "-test.run", r.run, "-test.count", "1")
			mu.Lock()
			defer mu.Unlock()
			slowest = max(slowest, time.Since(start))
			if err != nil && fail == nil {
				fail = fmt.Errorf("%s -run %s fails unmutated: %v\n%s", r.pkg, r.run, err, out)
			}
		}()
	}
	wg.Wait()
	if fail != nil {
		return nil, fail
	}
	g.timeout = 3*slowest + 2*time.Second
	imp, err := c.goOut("list", "-f", "{{.ImportPath}}", "./"+filepath.Dir(r.file))
	if err != nil {
		return nil, err
	}
	covBin, prof := base+".cover.test", base+".cover.out"
	if _, err := c.goOut("test", "-c", "-o", covBin, "-covermode", "set", "-coverpkg", strings.TrimSpace(imp), r.pkg); err != nil {
		return nil, err
	}
	if out, err := runOut(g.pkgDir, covBin, "-test.run", r.run, "-test.count", "1", "-test.coverprofile", prof); err != nil {
		return nil, fmt.Errorf("%s -run %s fails under coverage: %v\n%s", r.pkg, r.run, err, out)
	}
	g.covered, err = readCover(prof, filepath.Base(abs))
	return g, err
}

// classify builds one mutant against each guard whose tests execute it and
// runs them until one notices.
func (c *config) classify(m *mutant, src []byte, abs string, gs []*guard, base string) string {
	res := uncovered
	for _, g := range gs {
		if !g.covered.runs(m.line, m.col) {
			continue
		}
		res = survived
		if err := writeOverlay(base, abs, m.apply(src)); err != nil {
			return unbuildable
		}
		bin := base + ".test"
		if _, err := c.goOut("test", "-c", "-overlay", base+".json", "-o", bin, g.pkg); err != nil {
			return unbuildable
		}
		ctx, cancel := context.WithTimeout(context.Background(), g.timeout)
		cmd := exec.CommandContext(ctx, bin, "-test.run", g.run, "-test.count", "1", "-test.failfast")
		cmd.Dir = g.pkgDir
		err := cmd.Run()
		timeout := ctx.Err() != nil
		cancel()
		switch {
		case timeout:
			return timedOut
		case err != nil:
			return killed
		}
	}
	return res
}

func writeOverlay(base, abs string, src []byte) error {
	if err := os.WriteFile(base+".go", src, 0o644); err != nil {
		return err
	}
	ov, err := json.Marshal(map[string]map[string]string{"Replace": {abs: base + ".go"}})
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", ov, 0o644)
}

// report writes one line per mutant and a summary, prints the survivors
// that have no verdict, and says whether there were any.
func report(w, log io.Writer, file string, ms []*mutant, res []string, verdicts map[string]string) bool {
	count := map[string]int{}
	var fresh []string
	seen := map[string]bool{}
	for i, m := range ms {
		count[res[i]]++
		fmt.Fprintf(w, "%-11s %s:%d:%d\t%s\n", res[i], m.file, m.line, m.col, m.id())
		if res[i] == survived || res[i] == uncovered {
			seen[m.id()] = true
			if _, ok := verdicts[m.id()]; !ok {
				fresh = append(fresh, fmt.Sprintf("%s\t%s\tTODO (line %d, %s)", m.file, m.id(), m.line, res[i]))
			}
		}
	}
	sum := fmt.Sprintf("%s: %d mutants: %d killed, %d timeout, %d unbuildable, %d survived, %d uncovered; %d new survivors",
		file, len(ms), count[killed], count[timedOut], count[unbuildable], count[survived], count[uncovered], len(fresh))
	fmt.Fprintln(w, "#", sum)
	fmt.Fprintln(log, sum)
	for _, f := range fresh {
		fmt.Fprintln(log, "new survivor:", f)
	}
	for id := range verdicts {
		if !seen[id] {
			fmt.Fprintf(log, "%s: listed survivor no longer survives: %s\n", file, id)
		}
	}
	return len(fresh) > 0
}

// block is a coverage profile block: a span of statements and whether any ran.
type block struct {
	l0, c0, l1, c1 int
	ran            bool
}

// blocks are the coverage profile's blocks of one file.
type blocks []block

// runs reports whether a position lies in a block that ran, or in no block
// at all (a package-level declaration, which may be read at any time).
func (b blocks) runs(l, c int) bool {
	for _, x := range b {
		if (l > x.l0 || l == x.l0 && c >= x.c0) && (l < x.l1 || l == x.l1 && c <= x.c1) {
			return x.ran
		}
	}
	return true
}

// readCover reads the blocks of the file named base from a set-mode
// coverage profile.
func readCover(path, base string) (blocks, error) {
	lines, err := readLines(path)
	if err != nil {
		return nil, err
	}
	var out blocks
	for _, l := range lines[1:] { // the first line is "mode: set"
		name, rest, ok := strings.Cut(l.text, ":")
		if !ok || filepath.Base(name) != base {
			continue
		}
		var b block
		var stmts, cnt int
		if _, err := fmt.Sscanf(rest, "%d.%d,%d.%d %d %d", &b.l0, &b.c0, &b.l1, &b.c1, &stmts, &cnt); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, l.n, err)
		}
		b.ran = cnt > 0
		out = append(out, b)
	}
	return out, nil
}

func (c *config) goOut(args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = c.dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return string(out), fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out), nil
}

func runOut(dir, bin string, args ...string) (string, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}
