// Command provbench regenerates the paper's experimental evaluation
// (Fig. 5 panels a-h) and prints each panel as a text table.
//
// Usage:
//
//	provbench [-figure 5a|5b|...|all] [-scale small|medium|paper]
//
// Scales: "small" finishes in seconds, "medium" in minutes, "paper"
// approaches the paper's graph sizes (needs ~16 GB like the paper's
// machine). Absolute times differ from the paper's hardware; the series
// shapes are the reproduction target (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	figure := flag.String("figure", "all", "panel to run: 5a..5h, csr, vec, srv, shard, qos, repl or all")
	scale := flag.String("scale", "small", "experiment scale: small, medium, paper")
	record := flag.String("record", "", "append the serving-layer panels (srv, csr, vec, shard, qos, repl) to this JSON history file (e.g. BENCH_provd.json)")
	flag.Parse()

	sc := bench.Scale(*scale)
	switch sc {
	case bench.ScaleSmall, bench.ScaleMedium, bench.ScalePaper:
	default:
		fmt.Fprintf(os.Stderr, "provbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	ids := bench.IDs()
	if *figure != "all" {
		ids = strings.Split(*figure, ",")
	}
	start := time.Now()
	for _, id := range ids {
		fig, ok := bench.ByID(strings.TrimSpace(id), sc)
		if !ok {
			fmt.Fprintf(os.Stderr, "provbench: unknown figure %q (have %v)\n", id, bench.IDs())
			os.Exit(2)
		}
		fig.Render(os.Stdout)
		if *record != "" && (fig.ID == "srv" || fig.ID == "csr" || fig.ID == "vec" || fig.ID == "shard" || fig.ID == "qos" || fig.ID == "repl") {
			if err := bench.RecordFigure(*record, fig, sc); err != nil {
				fmt.Fprintf(os.Stderr, "provbench: record: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("recorded %q into %s\n", fig.ID, *record)
		}
	}
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Millisecond))
}
