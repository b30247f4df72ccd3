package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"time"

	"repro/internal/server"
)

// client is the load generator: one goroutine, one keep-alive connection,
// closed loop. provd's callers — an analyst at a prompt, an ingest hook
// waiting for its commit ack — each wait for the reply before sending the
// next request.
type client struct {
	http *http.Client
	base string
	buf  []byte // reply buffer, reused across ops

	replyBytes int64

	probe probe // machine-speed samples of the current interval

	// The rw_mixed writer's chain: the last output entity, the last acked
	// epoch and the vertex count that ack reported.
	prevOut  uint32
	epoch    uint64
	vertices int
}

func newClient(base string, k *kernel) *client {
	return &client{
		base:  base,
		probe: probe{k: k},
		http: &http.Client{Transport: &http.Transport{
			DisableCompression:  true,
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
		}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// roundTrip sends one request and reads the whole reply into the client's
// buffer (valid until the next call). Any status but 200 is an error.
func (c *client) roundTrip(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf := c.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			c.buf = buf
			return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
		}
	}
	c.buf = buf
	c.replyBytes += int64(len(buf))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, buf)
	}
	return buf, nil
}

func (c *client) getJSON(path string, v any) error {
	body, err := c.roundTrip("GET", path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// read sends one read of the plan and checks the reply against the oracle.
func (c *client) read(r *readOp, warm bool) error {
	body, err := c.roundTrip("POST", r.path, r.body)
	if err != nil {
		return err
	}
	return r.check(body, warm)
}

// ingest posts one batch and folds the ack into the writer state: the epoch
// must advance by exactly one.
func (c *client) ingest(body []byte) (*server.IngestResponse, error) {
	raw, err := c.roundTrip("POST", "/ingest", body)
	if err != nil {
		return nil, err
	}
	var resp server.IngestResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("ingest reply: %w", err)
	}
	if resp.Epoch != c.epoch+1 {
		return nil, fmt.Errorf("ingest acked epoch %d after %d, want strictly +1", resp.Epoch, c.epoch)
	}
	c.epoch, c.vertices = resp.Epoch, resp.Vertices
	return &resp, nil
}

// write extends the writer's chain by one run.
func (c *client) write() error {
	resp, err := c.ingest(writeBody(c.prevOut))
	if err != nil {
		return err
	}
	if len(resp.Results) != 1 || len(resp.Results[0].Outputs) != 1 {
		return fmt.Errorf("ingest reply has %d results, want one run with one output", len(resp.Results))
	}
	c.prevOut = resp.Results[0].Outputs[0]
	return nil
}

// do runs op i of the plan.
func (c *client) do(pl *plan, i int) error {
	if r := pl.at(i); r != nil {
		return c.read(r, false)
	}
	return c.write()
}

// warmUp is the deterministic pass that ends set-up: the writer's agent and
// chain root (write workloads), warmReads reads in pool order, warmWrites
// chain writes. It is real work the daemon must finish, never a sleep.
func (c *client) warmUp(pl *plan) error {
	w := pl.w
	if w.writesPerRead > 0 {
		resp, err := c.ingest(rootBody)
		if err != nil {
			return err
		}
		if len(resp.Results) != 2 {
			return fmt.Errorf("warm-up ingest reply has %d results, want 2", len(resp.Results))
		}
		c.prevOut = resp.Results[1].ID
	}
	for i := 0; i < w.warmReads; i++ {
		if err := c.read(&pl.reads[i%len(pl.reads)], true); err != nil {
			return fmt.Errorf("warm-up read %d: %w", i, err)
		}
		c.probe.tick()
	}
	for i := 0; i < w.warmWrites; i++ {
		if err := c.write(); err != nil {
			return fmt.Errorf("warm-up write %d: %w", i, err)
		}
		c.probe.tick()
	}
	return nil
}

// session is one warmed-up daemon with its client.
type session struct {
	d       *daemon
	c       *client
	dataDir string        // durable workloads only
	setup   time.Duration // spawn to warm-up done, without the probe's time
	speed   float64       // the probe's factor over the warm-up pass
}

func (s *session) close() {
	if s.d != nil {
		s.c.close()
		s.d.kill()
	}
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

// setUp is the timed set-up: spawn provd, wait until /healthz answers 200,
// run the warm-up pass.
func (e *env) setUp(pl *plan, k *kernel) (*session, error) {
	s := &session{}
	args := []string{"-gen", strconv.Itoa(pl.w.gen), "-seed", "1"}
	if pl.w.durable {
		dir, err := e.tempDir(pl.w.name + "-")
		if err != nil {
			return nil, err
		}
		s.dataDir = dir
		args = append(args, "-data", dir, "-fsync", "always")
	}
	start := time.Now()
	d, err := e.spawn(args...)
	if err != nil {
		s.close()
		return nil, err
	}
	s.d, s.c = d, newClient(d.base, k)
	if err := s.c.healthy(); err != nil {
		s.close()
		return nil, fmt.Errorf("%w\n%s", err, d.logText())
	}
	if err := s.c.warmUp(pl); err != nil {
		s.close()
		return nil, fmt.Errorf("%s: %w", pl.w.name, err)
	}
	s.setup, s.speed = time.Since(start)-s.c.probe.paused, s.c.probe.factor()
	return s, nil
}

// healthy polls /healthz until it answers 200. The daemon announces its
// address right after net.Listen, so the first poll normally succeeds; the
// short sleeps only cover the instant before Serve starts accepting.
func (c *client) healthy() error {
	var err error
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if _, err = c.roundTrip("GET", "/healthz", nil); err == nil {
			return nil
		}
	}
	return fmt.Errorf("provd never became healthy: %w", err)
}

// window is what the measured interval recorded.
type window struct {
	lat       []time.Duration // one per attempted op; a failed op is charged the whole window
	cycleEnd  []time.Duration // when each whole cycle of the plan completed, since the start
	attempted int
	failed    int
	firstErr  error
}

const numSlices = 6

// measure drives the plan closed-loop: no timers, sleeps or pacing. It runs
// whole cycles of the plan (every read of the pool once, with its writes) for
// as long as the next cycle is expected to end inside dur, and at least one.
// Every window therefore holds the same mix of requests whatever the seed or
// the machine's speed: latency quantiles, CPU per op and throughput are not
// moved by which requests a cut-off cycle happened to hold.
func (c *client) measure(pl *plan, dur time.Duration) *window {
	win := &window{lat: make([]time.Duration, 0, 1<<16)}
	cycle := pl.cycleOps()
	c.probe.reset()
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Since(start) - c.probe.paused
		err := c.do(pl, i)
		t1 := time.Since(start) - c.probe.paused
		win.attempted++
		if err != nil {
			win.failed++
			if win.firstErr == nil {
				win.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
			win.lat = append(win.lat, dur)
		} else {
			win.lat = append(win.lat, t1-t0)
		}
		if (i+1)%cycle == 0 {
			win.cycleEnd = append(win.cycleEnd, t1)
			if n := time.Duration(len(win.cycleEnd)); t1+t1/n > dur {
				return win
			}
		}
		c.probe.tick()
	}
}

// sliceRates cuts the window's cycles into (up to) six runs of whole cycles
// and returns each run's ops per second.
func (w *window) sliceRates(cycleOps int) []float64 {
	n := len(w.cycleEnd)
	slices := min(numSlices, n)
	rates := make([]float64, 0, slices)
	var from time.Duration
	for s, done := 0, 0; s < slices; s++ {
		upto := (s + 1) * n / slices // cycles in slices 0..s
		end := w.cycleEnd[upto-1]
		rates = append(rates, float64((upto-done)*cycleOps)/(end-from).Seconds())
		from, done = end, upto
	}
	return rates
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// liveResult is everything one live run measured.
type liveResult struct {
	attempted, failed int
	firstErr          error
	e2e               map[string]float64
	layers            map[string]float64
	serverMsPerOp     float64   // live server-side time per op, for trace.fidelity
	sliceRates        []float64 // ops/s of each slice, for the record
}

// setupRepeats is how many times a timed run sets the daemon up; setup_s is
// the median. A traced run reports no setup_s and sets up once.
const setupRepeats = 3

// runLive sets up (repeats times, keeping the last daemon), measures one
// window and tears down, including the kill-restart check of durable
// workloads.
func (e *env) runLive(pl *plan, dur time.Duration, repeats int) (*liveResult, error) {
	kern := newKernel()
	var setups []float64
	var s *session
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = e.setUp(pl, kern); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds()*s.speed)
	}
	defer s.close()
	c, d := s.c, s.d

	var before, after server.MetricsResponse
	if err := c.getJSON("/metrics", &before); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuMillis()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUMillis()
	bytes0 := c.replyBytes

	win := c.measure(pl, dur)
	speed := c.probe.factor()

	self1 := selfCPUMillis()
	bytes1 := c.replyBytes
	cpu1, err := d.cpuMillis()
	if err != nil {
		return nil, err
	}
	rss, err := d.statusMB("VmHWM:")
	if err != nil {
		return nil, err
	}
	if err := c.getJSON("/metrics", &after); err != nil {
		return nil, err
	}
	var stats server.StoreStats
	if err := c.getJSON("/stats", &stats); err != nil {
		return nil, err
	}

	res := &liveResult{attempted: win.attempted, failed: win.failed, firstErr: win.firstErr}
	if pl.w.durable && (stats.Epoch != c.epoch || stats.Vertices != c.vertices) {
		res.fail(fmt.Errorf("/stats says epoch %d, %d vertices; last ack said %d, %d", stats.Epoch, stats.Vertices, c.epoch, c.vertices))
	}
	ops := float64(max(win.attempted-win.failed, 1))

	sorted := append([]time.Duration(nil), win.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, l := range win.lat {
		sum += l
	}
	res.sliceRates = win.sliceRates(pl.cycleOps())
	lo, hi := math.Inf(1), 0.0
	for _, r := range res.sliceRates {
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	opsPerS := medianFloat(res.sliceRates)

	res.e2e = map[string]float64{
		"setup_s":       medianFloat(setups),
		"ops_per_s":     opsPerS / speed,
		"lat_p50_ms":    ms(quantile(sorted, 0.50)) * speed,
		"lat_p90_ms":    ms(quantile(sorted, 0.90)) * speed,
		"cpu_ms_per_op": (cpu1 - cpu0) / ops * speed,
		"rss_peak_mb":   rss,
	}
	res.layers = layerDeltas(&before, &after)
	res.serverMsPerOp = res.layers["server.http.server_ms_per_op"]
	clientMean := ms(sum) / float64(max(win.attempted, 1))
	res.layers["server.http.client_gap_ms_per_op"] = clientMean - res.serverMsPerOp
	res.layers["server.http.resp_kb_per_op"] = float64(bytes1-bytes0) / 1024 / ops
	res.layers["client.lat_p99_ms"] = ms(quantile(sorted, 0.99))
	res.layers["client.lat_max_ms"] = ms(quantile(sorted, 1))
	res.layers["client.gen_cpu_ms_per_op"] = (self1 - self0 - ms(c.probe.paused)) / ops // the kernel's CPU is the probe's, not the generator's
	res.layers["client.slice_spread"] = (hi - lo) / opsPerS                             // at least one cycle completed, so the median rate is positive
	res.layers["client.speed_factor"] = speed
	res.layers["client.speed_samples"] = float64(len(c.probe.samples))

	if pl.w.durable {
		// The daemon dies by SIGKILL with the log as its only record; what
		// the restart recovers must be exactly what was acked.
		c.close()
		d.kill()
		rec, replayed, err := e.recoverCheck(s.dataDir, c.epoch, c.vertices)
		if err != nil {
			res.fail(fmt.Errorf("kill-restart: %w", err))
		}
		res.layers["wal.recovery_s"] = rec.Seconds()
		res.layers["wal.replayed_records"] = float64(replayed)
	}
	return res, nil
}

// fail marks the whole run incorrect (a failure that is not one op's).
func (r *liveResult) fail(err error) {
	if r.firstErr == nil {
		r.firstErr = err
	}
	if r.failed == 0 {
		r.failed = 1
	}
}

var recoveredRE = regexp.MustCompile(`recovered epoch (\d+) \(checkpoint \d+ \+ (\d+) WAL records`)

// recoverCheck restarts provd on the killed daemon's data directory and
// requires the recovered epoch and vertex count to equal the last ack's.
func (e *env) recoverCheck(dir string, epoch uint64, vertices int) (time.Duration, int, error) {
	start := time.Now()
	d, err := e.spawn("-data", dir, "-fsync", "always")
	if err != nil {
		return 0, 0, err
	}
	defer d.kill()
	c := newClient(d.base, nil)
	defer c.close()
	if err := c.healthy(); err != nil {
		return 0, 0, err
	}
	took := time.Since(start)
	var stats server.StoreStats
	if err := c.getJSON("/stats", &stats); err != nil {
		return took, 0, err
	}
	m := recoveredRE.FindStringSubmatch(d.logText())
	if m == nil {
		return took, 0, errors.New("restart logged no recovery line")
	}
	replayed, _ := strconv.Atoi(m[2]) // the pattern admits digits only
	if got, _ := strconv.ParseUint(m[1], 10, 64); got != epoch || stats.Epoch != epoch || stats.Vertices != vertices {
		return took, replayed, fmt.Errorf("recovered epoch %d (/stats: epoch %d, %d vertices), last ack was epoch %d, %d vertices",
			got, stats.Epoch, stats.Vertices, epoch, vertices)
	}
	return took, replayed, nil
}

// layerDeltas turns two /metrics scrapes into the window's per-layer numbers.
// Every per-layer name a live run owns is set, zero where the workload does
// not touch the layer.
func layerDeltas(before, after *server.MetricsResponse) map[string]float64 {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	nsToMs := func(ns int64) float64 { return float64(ns) / 1e6 }

	var count uint64
	var total int64
	for _, ep := range []string{"segment", "summarize", "ingest"} {
		b, a := before.Endpoints[ep].Latency, after.Endpoints[ep].Latency
		count += a.Count - b.Count
		total += a.TotalNanos - b.TotalNanos
	}
	writes := float64(after.Endpoints["ingest"].Latency.Count - before.Endpoints["ingest"].Latency.Count)

	out := map[string]float64{
		"server.http.server_ms_per_op": ratio(nsToMs(total), float64(count)),
	}

	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	reval := float64(after.Cache.Revalidations - before.Cache.Revalidations)
	inval := float64(after.Cache.Invalidations - before.Cache.Invalidations)
	out["server.cache.lookups"] = hits + misses
	out["server.cache.hit_share"] = ratio(hits, hits+misses)
	out["server.cache.revalidation_share"] = ratio(reval, reval+inval)
	out["server.cache.entries"] = float64(after.Cache.Entries)

	for _, st := range []string{"enqueue", "append", "fsync", "publish"} {
		out["server.commit."+st+"_ms_per_op"] = ratio(nsToMs(after.Stages[st].TotalNanos-before.Stages[st].TotalNanos), writes)
	}

	incr := float64(after.Freeze.Incremental - before.Freeze.Incremental)
	full := float64(after.Freeze.Full - before.Freeze.Full)
	out["graph.freeze.ms_per_op"] = ratio(nsToMs(after.Freeze.TotalNanos-before.Freeze.TotalNanos), incr+full)
	out["graph.freeze.incremental_share"] = ratio(incr, incr+full)

	for _, name := range []string{"wal.bytes_per_op", "wal.fsyncs_per_op", "wal.group_size_mean", "wal.checkpoints", "wal.checkpoint_ms_mean", "wal.recovery_s", "wal.replayed_records"} {
		out[name] = 0
	}
	if b, a := before.WAL, after.WAL; b != nil && a != nil {
		out["wal.bytes_per_op"] = ratio(float64(a.Bytes-b.Bytes), writes)
		out["wal.fsyncs_per_op"] = ratio(float64(a.Fsyncs-b.Fsyncs), writes)
		out["wal.group_size_mean"] = ratio(float64(a.GroupCommit.Records-b.GroupCommit.Records), float64(a.GroupCommit.Groups-b.GroupCommit.Groups))
		ck := float64(a.Checkpoints - b.Checkpoints)
		out["wal.checkpoints"] = ck
		out["wal.checkpoint_ms_mean"] = ratio(nsToMs(a.CheckpointTotalNanos-b.CheckpointTotalNanos), ck)
	}
	return out
}
