// Command provdb is the CLI toolkit of the lifecycle provenance system
// (paper Fig. 1): generate synthetic projects, inspect stored graphs, run
// segmentation and summarization queries, and export DOT / PROV-JSON.
//
// Usage:
//
//	provdb gen   -n 10000 -seed 1 -out project.pg
//	provdb stats -in project.pg
//	provdb seg   -in project.pg -src 0,1 -dst 9000,9001 [-exclude A,D] [-expand 9000:2] [-dot out.dot]
//	provdb sum   -in project.pg -seg "0,1>100,101;0,1>200,201" [-k 1]
//	provdb demo  (runs the paper's Fig. 2 example end to end)
//	provdb export-json -in project.pg
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	provdb "repro"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "seg":
		err = cmdSeg(os.Args[2:])
	case "sum":
		err = cmdSum(os.Args[2:])
	case "demo":
		err = cmdDemo()
	case "export-json":
		err = cmdExportJSON(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "provdb: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: provdb <gen|stats|seg|sum|demo|export-json> [flags]`)
}

func loadGraph(path string) (*provdb.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return provdb.Load(f)
}

func parseIDs(s string) ([]provdb.VertexID, error) {
	if s == "" {
		return nil, fmt.Errorf("empty vertex list")
	}
	parts := strings.Split(s, ",")
	out := make([]provdb.VertexID, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.ParseUint(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad vertex id %q", p)
		}
		out = append(out, provdb.VertexID(n))
	}
	return out, nil
}

func parseRels(s string) ([]provdb.Rel, error) {
	if s == "" {
		return nil, nil
	}
	var out []provdb.Rel
	for _, p := range strings.Split(s, ",") {
		switch strings.ToUpper(strings.TrimSpace(p)) {
		case "U":
			out = append(out, provdb.RelUsed)
		case "G":
			out = append(out, provdb.RelGen)
		case "S":
			out = append(out, provdb.RelAssoc)
		case "A":
			out = append(out, provdb.RelAttr)
		case "D":
			out = append(out, provdb.RelDeriv)
		default:
			return nil, fmt.Errorf("unknown relationship %q (want U,G,S,A,D)", p)
		}
	}
	return out, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	n := fs.Int("n", 10000, "target vertex count")
	seed := fs.Int64("seed", 1, "random seed")
	se := fs.Float64("se", 1.5, "input selection skew")
	li := fs.Float64("li", 2, "activity input mean (lambda_i)")
	out := fs.String("out", "project.pg", "output file")
	fs.Parse(args)

	g := provdb.GeneratePd(provdb.PdConfig{N: *n, Seed: *seed, SelectSkew: *se, LambdaIn: *li})
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := g.Save(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d vertices, %d edges\n", *out, g.NumVertices(), g.NumEdges())
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "project.pg", "input file")
	fs.Parse(args)
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	st := g.Prov().PG().Stats()
	fmt.Printf("vertices: %d  edges: %d\n", st.Vertices, st.Edges)
	printCounts("vertex", st.VertexByLabel)
	printCounts("edge", st.EdgeByLabel)
	fmt.Printf("max out-degree: %d  max in-degree: %d\n", st.MaxOutDegree, st.MaxInDegree)
	return nil
}

// printCounts prints one line per label, in label order (ranging over the
// map would print a different order on every run).
func printCounts(kind string, counts map[string]int) {
	labels := make([]string, 0, len(counts))
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Printf("  %-6s %-6s %d\n", kind, l, counts[l])
	}
}

func cmdSeg(args []string) error {
	fs := flag.NewFlagSet("seg", flag.ExitOnError)
	in := fs.String("in", "project.pg", "input file")
	srcS := fs.String("src", "", "source entity ids, comma separated")
	dstS := fs.String("dst", "", "destination entity ids, comma separated")
	excl := fs.String("exclude", "", "edge types to exclude (e.g. A,D)")
	expand := fs.String("expand", "", "expansion spec id[,id...]:k")
	solver := fs.String("solver", "tst", "VC2 solver: tst, alg, cflrb")
	dot := fs.String("dot", "", "write the segment as DOT to this file")
	fs.Parse(args)

	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	src, err := parseIDs(*srcS)
	if err != nil {
		return fmt.Errorf("-src: %w", err)
	}
	dst, err := parseIDs(*dstS)
	if err != nil {
		return fmt.Errorf("-dst: %w", err)
	}
	rels, err := parseRels(*excl)
	if err != nil {
		return err
	}
	q := provdb.Query{Src: src, Dst: dst, Boundary: provdb.Boundary{ExcludeRels: rels}}
	if *expand != "" {
		parts := strings.SplitN(*expand, ":", 2)
		if len(parts) != 2 {
			return fmt.Errorf("-expand wants id[,id...]:k")
		}
		ids, err := parseIDs(parts[0])
		if err != nil {
			return err
		}
		k, err := strconv.Atoi(parts[1])
		if err != nil {
			return err
		}
		q.Boundary.Expansions = []provdb.Expansion{{Within: ids, K: k}}
	}
	opts := provdb.SegmentOptions{}
	switch *solver {
	case "tst":
		opts.Solver = provdb.SolverTst
	case "alg":
		opts.Solver = provdb.SolverAlg
	case "cflrb":
		opts.Solver = provdb.SolverCflrB
	default:
		return fmt.Errorf("unknown solver %q", *solver)
	}
	seg, err := g.SegmentWith(q, opts)
	if err != nil {
		return err
	}
	seg.Render(os.Stdout)
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		defer f.Close()
		return seg.WriteDOT(f)
	}
	return nil
}

func cmdSum(args []string) error {
	fs := flag.NewFlagSet("sum", flag.ExitOnError)
	in := fs.String("in", "project.pg", "input file")
	segSpec := fs.String("seg", "", `segment queries "src>dst;src>dst" (ids comma separated)`)
	radius := fs.Int("k", 1, "provenance type radius Rk")
	aggA := fs.String("agg-activity", "command", "activity properties to aggregate on (comma separated)")
	aggE := fs.String("agg-entity", "", "entity properties to aggregate on")
	dot := fs.String("dot", "", "write the summary as DOT to this file")
	fs.Parse(args)

	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	var segs []*provdb.Segment
	for _, spec := range strings.Split(*segSpec, ";") {
		parts := strings.SplitN(strings.TrimSpace(spec), ">", 2)
		if len(parts) != 2 {
			return fmt.Errorf(`-seg wants "src>dst;src>dst"`)
		}
		src, err := parseIDs(parts[0])
		if err != nil {
			return err
		}
		dst, err := parseIDs(parts[1])
		if err != nil {
			return err
		}
		seg, err := g.Segment(provdb.Query{Src: src, Dst: dst})
		if err != nil {
			return err
		}
		segs = append(segs, seg)
	}
	opts := provdb.SumOptions{TypeRadius: *radius}
	if *aggA != "" {
		opts.K.Activity = strings.Split(*aggA, ",")
	}
	if *aggE != "" {
		opts.K.Entity = strings.Split(*aggE, ",")
	}
	psg, err := provdb.Summarize(segs, opts)
	if err != nil {
		return err
	}
	psg.Render(os.Stdout)
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		defer f.Close()
		return psg.WriteDOT(f)
	}
	return nil
}

func cmdDemo() error {
	g, names := provdb.Fig2Lifecycle()
	fmt.Println("Fig. 2 lifecycle loaded:", g.NumVertices(), "vertices,", g.NumEdges(), "edges")
	for _, q := range []struct {
		name  string
		query provdb.Query
	}{
		{"Q1 (how is weights-v2 connected to dataset-v1)", provdb.Fig2Q1(names)},
		{"Q2 (how did Bob derive logs-v3)", provdb.Fig2Q2(names)},
	} {
		fmt.Println("--", q.name)
		seg, err := g.Segment(q.query)
		if err != nil {
			return err
		}
		seg.Render(os.Stdout)
	}
	s1, _ := g.Segment(provdb.Fig2Q1(names))
	s2, _ := g.Segment(provdb.Fig2Q2(names))
	psg, err := provdb.Summarize([]*provdb.Segment{s1, s2}, provdb.Fig2Q3Options())
	if err != nil {
		return err
	}
	fmt.Println("-- Q3 (summarize Q1 and Q2)")
	psg.Render(os.Stdout)
	return nil
}

func cmdExportJSON(args []string) error {
	fs := flag.NewFlagSet("export-json", flag.ExitOnError)
	in := fs.String("in", "project.pg", "input file")
	fs.Parse(args)
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	return g.ExportJSON(os.Stdout)
}
