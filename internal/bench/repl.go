package bench

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/server"
)

// Replication scenario (panel "repl"): a leader under sustained multi-writer
// ingest with a follower tailing its wal stream over real HTTP. Per writer
// count the row reports the leader's commit throughput, the follower's apply
// throughput (total epochs over the time from first commit to the follower
// catching up), the per-record publish-to-apply lag p50/p99 from the
// follower's repl panel, and the record lag left when the writers stop —
// which must be zero once WaitEpoch returns.

// replWorkload returns batches per writer for a scale.
func replWorkload(scale Scale) int {
	switch scale {
	case ScaleMedium:
		return 600
	case ScalePaper:
		return 1500
	default:
		return 200
	}
}

// replCatchUp bounds how long the follower may trail the last commit.
const replCatchUp = 60 * time.Second

// runRepl drives writers*perWriter commits into a memory-only leader while
// one follower registry replicates it, and measures both sides.
func runRepl(writers, perWriter int) (commitPerSec, applyPerSec float64, lag obs.LatencySummary, lagRecords int64, err error) {
	leader := server.NewStore(prov.New(), 16)
	defer leader.Close()
	// Enable the hub before the first commit so the whole run streams as
	// deltas rather than opening with a checkpoint re-seed.
	leader.EnableRepl()
	ts := httptest.NewServer(server.NewServer(leader))
	defer func() {
		// Sever the follower's live stream first: Close alone waits for the
		// tailing wal handler, which only returns when its client goes away.
		ts.CloseClientConnections()
		ts.Close()
	}()

	fr, _, err := server.OpenRegistry(server.RegistryOptions{Leader: ts.URL, CacheCap: 16}, nil, nil)
	if err != nil {
		return 0, 0, lag, 0, err
	}
	defer fr.Close()
	fst, err := fr.Get(server.DefaultStore)
	if err != nil {
		return 0, 0, lag, 0, err
	}

	total := uint64(writers * perWriter)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := leader.Update(func(rec *prov.Recorder) error {
					rec.Snapshot(fmt.Sprintf("w%d-%d", w, i))
					return nil
				}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	commitElapsed := time.Since(start)
	select {
	case err := <-errs:
		return 0, 0, lag, 0, err
	default:
	}

	if !fst.WaitEpoch(total, replCatchUp) {
		return 0, 0, lag, 0, fmt.Errorf("follower stuck at epoch %d of %d", fst.Epoch().N, total)
	}
	applyElapsed := time.Since(start)

	rs := fst.ReplStatsSnapshot()
	if rs == nil {
		return 0, 0, lag, 0, fmt.Errorf("follower store has no repl panel")
	}
	return float64(total) / commitElapsed.Seconds(),
		float64(total) / applyElapsed.Seconds(),
		rs.Lag, rs.LagRecords, nil
}

// FigRepl measures follower apply throughput and replication lag against
// leader commit throughput as writer concurrency grows.
func FigRepl(scale Scale) Figure {
	perWriter := replWorkload(scale)
	fig := Figure{
		ID:      "repl",
		Caption: fmt.Sprintf("replication: follower apply throughput and lag vs leader ingest (%d batches/writer)", perWriter),
		XLabel:  "writers",
		YLabel:  "batches/sec | lag",
		Series:  []string{"commit/s", "apply/s", "lag p50", "lag p99", "residual"},
	}
	for _, writers := range []int{1, 4, 8} {
		row := Row{X: fmt.Sprint(writers), Cells: map[string]string{}}
		commit, apply, lag, residual, err := runRepl(writers, perWriter)
		if err != nil {
			row.Cells["commit/s"] = "err: " + err.Error()
		} else {
			row.Cells["commit/s"] = fmt.Sprintf("%.0f", commit)
			row.Cells["apply/s"] = fmt.Sprintf("%.0f", apply)
			row.Cells["lag p50"] = time.Duration(lag.P50Nanos).Round(10 * time.Microsecond).String()
			row.Cells["lag p99"] = time.Duration(lag.P99Nanos).Round(10 * time.Microsecond).String()
			row.Cells["residual"] = fmt.Sprintf("%d rec", residual)
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig
}
