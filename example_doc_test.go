package provdb_test

import (
	"fmt"
	"sort"

	provdb "repro"
)

// Example demonstrates recording a tiny lifecycle and asking how a result
// was generated.
func Example() {
	g := provdb.New()
	data := g.Import("alice", "dataset", "http://data.example/d")
	model := g.Import("alice", "model", "")
	_, out := g.Run("alice", "train", []provdb.VertexID{model, data}, []string{"weights"})

	seg, err := g.Segment(provdb.Query{
		Src: []provdb.VertexID{data},
		Dst: []provdb.VertexID{out[0]},
	})
	if err != nil {
		panic(err)
	}
	names := make([]string, 0, seg.NumVertices())
	for _, v := range seg.Vertices() {
		names = append(names, g.Name(v))
	}
	sort.Strings(names)
	fmt.Println(names)
	// Output: [alice dataset-v1 model-v1 train weights-v1]
}

// ExampleSummarize shows how two similar trails merge into one summary.
func ExampleSummarize() {
	g := provdb.New()
	var segs []*provdb.Segment
	for day := 0; day < 2; day++ {
		data := g.Import("team", fmt.Sprintf("day%d-data", day), "")
		_, out := g.Run("team", "train", []provdb.VertexID{data}, []string{fmt.Sprintf("day%d-weights", day)})
		seg, err := g.Segment(provdb.Query{
			Src: []provdb.VertexID{data},
			Dst: []provdb.VertexID{out[0]},
		})
		if err != nil {
			panic(err)
		}
		segs = append(segs, seg)
	}
	psg, err := provdb.Summarize(segs, provdb.SumOptions{
		K:          provdb.Aggregation{Activity: []string{"command"}},
		TypeRadius: 1,
	})
	if err != nil {
		panic(err)
	}
	// Both days' trains merge, both datasets merge, both weights merge,
	// and the team agent occurrences merge.
	fmt.Printf("%d occurrences -> %d summary nodes\n", psg.InputVertices, len(psg.Nodes))
	// Output: 8 occurrences -> 4 summary nodes
}

// ExampleGraph_Cypher runs a query through the baseline Cypher engine.
func ExampleGraph_Cypher() {
	g := provdb.New()
	data := g.Import("alice", "dataset", "")
	_, _ = g.Run("alice", "train", []provdb.VertexID{data}, []string{"weights"})

	res, err := g.Cypher("match (a:A)-[:U]->(e:E) return id(a), id(e)", provdb.CypherOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Rows), "used-edges")
	// Output: 1 used-edges
}
