package bench

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/prov"
	"repro/internal/server"
	"repro/internal/wal"
)

// Sharded-ingest scenario (panel "shard"): aggregate durable-ingest
// throughput of provd's store registry as the writer pool fans out over 1,
// 2 and 4 named stores, on the one commit path there is (group commit
// through the registry's device-level fsync coalescer). Concurrent batches
// on one store share a barrier, and so do concurrent stores, so the series
// should hold or rise as the same writers spread across more shards. (Older
// `shard` records in BENCH_provd.json carry a per-batch-fsync series beside
// it; see README, "Durability".)
//
// The batches/sec series is recorded into BENCH_provd.json via
// provbench -record.

// shardWorkload returns the writer pool size and total batch count.
func shardWorkload(scale Scale) (writers, total int) {
	switch scale {
	case ScaleMedium:
		return 16, 1280
	case ScalePaper:
		return 32, 3200
	default:
		return 8, 480
	}
}

// runShardIngest drives total single-op ingest batches from `writers`
// concurrent goroutines round-robined across nStores durable stores and
// returns aggregate committed batches/sec.
func runShardIngest(nStores, writers, total int) (float64, error) {
	dir, err := os.MkdirTemp("", "provbench-shard-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	var extra []string
	for i := 1; i < nStores; i++ {
		extra = append(extra, fmt.Sprintf("s%d", i))
	}
	reg, _, err := server.OpenRegistry(server.RegistryOptions{
		DataDir:         dir,
		Fsync:           wal.SyncAlways,
		CheckpointEvery: 1 << 30, // keep checkpoint cost out of the series
		CacheCap:        16,
	}, extra, nil)
	if err != nil {
		return 0, err
	}
	defer reg.Close()
	stores := reg.List()

	perWriter := total / writers
	// One warm-up pass (~10% of the load, untimed) settles the directory's
	// metadata and the page cache so the timed series isn't skewed by
	// whichever panel ran before this one.
	warmup := perWriter / 10
	if warmup < 2 {
		warmup = 2
	}
	run := func(rounds int, tag string) error {
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			w := w
			st := stores[w%nStores] // writers spread across shards
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					err := st.Update(func(rec *prov.Recorder) error {
						rec.Snapshot(fmt.Sprintf("b%s-%d-%d", tag, w, i))
						return nil
					})
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errs:
			return err
		default:
			return nil
		}
	}
	if err := run(warmup, "w"); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := run(perWriter, ""); err != nil {
		return 0, err
	}
	return float64(writers*perWriter) / time.Since(start).Seconds(), nil
}

// FigShard measures aggregate durable ingest throughput vs shard count.
func FigShard(scale Scale) Figure {
	writers, total := shardWorkload(scale)
	fig := Figure{
		ID: "shard",
		Caption: fmt.Sprintf("sharded ingest: aggregate batches/sec, %d writers, %d batches (fsync=always)",
			writers, total),
		XLabel: "stores",
		YLabel: "batches/sec",
		Series: []string{"b/s"},
	}
	for _, n := range []int{1, 2, 4} {
		bs, err := runShardIngest(n, writers, total)
		cell := fmt.Sprintf("%.0f", bs)
		if err != nil {
			cell = "err: " + err.Error()
		}
		fig.Rows = append(fig.Rows, Row{X: fmt.Sprint(n), Cells: map[string]string{"b/s": cell}})
	}
	return fig
}
