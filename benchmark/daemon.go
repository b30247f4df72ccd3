package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the module root (the
// directory whose go.mod declares module repro), so the benchmark runs the
// same from the root (`go run ./benchmark`) and from its own directory
// (`go test`).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: not inside the repro module (no go.mod declaring module repro above the working directory)")
		}
		dir = parent
	}
}

// env is where one benchmark process keeps its files: everything under
// benchmark/out/, which benchmark/.gitignore covers.
type env struct {
	root  string // module root
	out   string // benchmark/out
	provd string // built daemon
}

// prepare builds cmd/provd once (untimed) into benchmark/out/.
func prepare() (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, out: filepath.Join(root, "benchmark", "out")}
	e.provd = filepath.Join(e.out, "provd")
	if err := os.MkdirAll(filepath.Join(e.out, "tmp"), 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", e.provd, "./cmd/provd")
	build.Dir = root
	if outp, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/provd: %w\n%s", err, outp)
	}
	return e, nil
}

// tempDir makes a fresh directory under benchmark/out/tmp (the repo's disk,
// so rw_mixed's fsyncs hit the same device the repo lives on).
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(filepath.Join(e.out, "tmp"), prefix)
}

// daemon is one running provd child.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port

	logDone  chan struct{}
	killOnce sync.Once
	mu       sync.Mutex
	log      []string // stderr lines, for error reports and the recovery line
}

// live tracks every child so the signal handler can reap them.
var live = struct {
	sync.Mutex
	procs map[*daemon]bool
}{procs: map[*daemon]bool{}}

func track(d *daemon, on bool) {
	live.Lock()
	defer live.Unlock()
	if on {
		live.procs[d] = true
	} else {
		delete(live.procs, d)
	}
}

// reapAll kills every tracked child and then removes every temp dir (they all
// live under out/tmp); the signal handler's half of the hygiene — the other
// half is deferred calls.
func (e *env) reapAll() {
	live.Lock()
	procs := make([]*daemon, 0, len(live.procs))
	for d := range live.procs {
		procs = append(procs, d)
	}
	live.Unlock()
	for _, d := range procs {
		d.kill()
	}
	os.RemoveAll(filepath.Join(e.out, "tmp"))
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// spawn starts provd on a kernel-chosen loopback port (so there is no port
// to find free) and returns once it has announced its address.
func (e *env) spawn(args ...string) (*daemon, error) {
	cmd := exec.Command(e.provd, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Dir = e.out
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	track(d, true)
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log = append(d.log, line)
			d.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.logDone:
		d.kill()
		return nil, fmt.Errorf("provd exited before listening:\n%s", d.logText())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("provd did not listen within 60s:\n%s", d.logText())
	}
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, "\n")
}

// kill SIGKILLs the child and waits until it and its log reader have ended.
// Safe to call twice and from the signal handler.
func (d *daemon) kill() {
	d.killOnce.Do(func() {
		_ = d.cmd.Process.Kill() // already-exited is fine: Wait below reaps either way
		<-d.logDone
		_ = d.cmd.Wait() // the exit status of a killed child carries nothing
		track(d, false)
	})
}

// --- /proc readings of the child ---

// clockTicks is USER_HZ: the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// cpuMillis returns the child's utime+stime so far.
func (d *daemon) cpuMillis() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ")".
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("unparseable /proc stat %q", b)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc stat times %q %q", f[11], f[12])
	}
	return (ut + st) * 1000 / clockTicks, nil
}

// statusMB returns a kB field of the child's /proc status (VmHWM:, VmRSS:) in MB.
func (d *daemon) statusMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unparseable /proc status line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// selfCPUMillis is the benchmark process's own user+system time: the load
// generator's cost.
func selfCPUMillis() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // Getrusage(RUSAGE_SELF) cannot fail with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1000 + float64(t.Usec)/1000 }
	return tv(ru.Utime) + tv(ru.Stime)
}
