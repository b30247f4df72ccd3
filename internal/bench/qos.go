package bench

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/prov"
	"repro/internal/server"
	"repro/internal/wal"
)

// QoS scenario (panel "qos"): hot-neighbor isolation. A cold store sharing
// the device with hot stores sees its commit latency inflated by the
// neighbors' flush traffic — it waits in the same sync windows they fill.
// The rows report the cold store's commit p99 with the hot stores
// unthrottled vs rate-limited through the same Admit() gate the HTTP layer
// uses, on the commit path provd ships (group commit through the registry
// coalescer). (Older `qos` records in BENCH_provd.json open with three
// ingest rows and measured the isolation on private per-store fsyncs; see
// README, "Durability".)
//
// Recorded into BENCH_provd.json via provbench -record.

// qosWorkload returns the hot-neighbor shape: hot store count, writers
// per hot store, timed cold-store samples, and the per-hot-store rate
// limit (ops/sec) applied in the QoS run. The sample count matters: p99
// over a few hundred samples is a single host-I/O hiccup away from the
// maximum, so every scale takes at least 500 to keep the estimate stable.
func qosWorkload(scale Scale) (hotStores, hotWriters, coldSamples int, rate float64) {
	switch scale {
	case ScaleMedium:
		return 10, 3, 800, 2
	case ScalePaper:
		return 10, 4, 1500, 2
	default:
		return 10, 3, 500, 2
	}
}

const coldWarmup = 20

// runHotNeighbor measures the cold store's durable-commit p99 while
// hotStores*hotWriters goroutines hammer the hot stores. rate > 0
// applies a per-hot-store token-bucket limit; rejected writers sleep out
// (a capped slice of) the advertised retry delay, exactly as a polite
// HTTP client would on a 429.
func runHotNeighbor(hotStores, hotWriters, coldSamples int, rate float64) (time.Duration, error) {
	dir, err := os.MkdirTemp("", "provbench-qos-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	extra := []string{"cold"}
	for i := 0; i < hotStores; i++ {
		extra = append(extra, fmt.Sprintf("h%d", i))
	}
	reg, _, err := server.OpenRegistry(server.RegistryOptions{
		DataDir:         dir,
		Fsync:           wal.SyncAlways,
		CheckpointEvery: 1 << 30,
		CacheCap:        16,
	}, extra, nil)
	if err != nil {
		return 0, err
	}
	defer reg.Close()
	cold, err := reg.Get("cold")
	if err != nil {
		return 0, err
	}
	hots := make([]*server.Store, hotStores)
	for i := range hots {
		if hots[i], err = reg.Get(fmt.Sprintf("h%d", i)); err != nil {
			return 0, err
		}
		if rate > 0 {
			if err := hots[i].SetQoS(server.QoSConfig{RatePerSec: rate, Burst: 1}); err != nil {
				return 0, err
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for hi, st := range hots {
		for w := 0; w < hotWriters; w++ {
			hi, w, st := hi, w, st
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					release, retry, ok := st.Admit()
					if !ok {
						if retry > 5*time.Millisecond {
							retry = 5 * time.Millisecond
						}
						time.Sleep(retry)
						continue
					}
					err := st.Update(func(rec *prov.Recorder) error {
						rec.Snapshot(fmt.Sprintf("h%d-%d-%d", hi, w, i))
						return nil
					})
					release()
					if err != nil {
						return
					}
				}
			}()
		}
	}

	lat := make([]time.Duration, 0, coldSamples)
	for i := 0; i < coldWarmup+coldSamples; i++ {
		t0 := time.Now()
		err := cold.Update(func(rec *prov.Recorder) error {
			rec.Snapshot(fmt.Sprintf("c-%d", i))
			return nil
		})
		if err != nil {
			close(stop)
			wg.Wait()
			return 0, err
		}
		if i >= coldWarmup {
			lat = append(lat, time.Since(t0))
		}
		time.Sleep(time.Millisecond) // cold store trickles; hot stores saturate
	}
	close(stop)
	wg.Wait()
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	return lat[len(lat)*99/100], nil
}

// FigQoS measures the cold-store tail-latency isolation bought by per-store
// admission control.
func FigQoS(scale Scale) Figure {
	hotStores, hotWriters, coldSamples, rate := qosWorkload(scale)
	fig := Figure{
		ID: "qos",
		Caption: fmt.Sprintf(
			"qos: hot-neighbor cold-store commit p99 (%d hot stores x %d writers, limit %.0f/s, fsync=always)",
			hotStores, hotWriters, rate),
		XLabel: "configuration",
		YLabel: "p99",
		Series: []string{"cold p99", "isolation"},
	}
	noq, errN := runHotNeighbor(hotStores, hotWriters, coldSamples, 0)
	q, errQ := runHotNeighbor(hotStores, hotWriters, coldSamples, rate)
	p99Row := func(x string, p99 time.Duration, err error, ratio string) {
		row := Row{X: x, Cells: map[string]string{}}
		if err != nil {
			row.Cells["cold p99"] = "err: " + err.Error()
		} else {
			row.Cells["cold p99"] = p99.Round(10 * time.Microsecond).String()
			row.Cells["isolation"] = ratio
		}
		fig.Rows = append(fig.Rows, row)
	}
	p99Row("hot-neighbor unthrottled", noq, errN, "1.00x")
	ratio := ""
	if errN == nil && errQ == nil && q > 0 {
		ratio = fmt.Sprintf("%.2fx", float64(noq)/float64(q))
	}
	p99Row("hot-neighbor rate-limited", q, errQ, ratio)
	return fig
}
