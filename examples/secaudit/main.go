// Secaudit: provenance segmentation for system diagnosis, the paper's
// "other provenance applications" claim (Sec. VII): no workflow skeleton,
// verbose ingestion, and a program — not a human — issuing queries where
// Vsrc = Vdst (the paper notes PgSeg allows the two sets to be identical,
// citing the cybersecurity segmentation use case [26]).
package main

import (
	"fmt"
	"log"
	"os"

	provdb "repro"
	"repro/internal/graph"
	"repro/internal/prov"
)

func main() {
	g := provdb.New()

	// A small host-activity trace: a service reads config + input, writes
	// logs and outputs; a suspicious process touches the same files.
	conf := g.Import("system", "service.conf", "")
	input := g.Import("ops", "upload.bin", "")
	_, svc1 := g.Run("service", "handle-request", []provdb.VertexID{conf, input}, []string{"access.log", "result.dat"})
	_, svc2 := g.Run("service", "handle-request", []provdb.VertexID{conf, svc1[1]}, []string{"access.log", "result.dat"})
	_, sus := g.Run("intruder", "exfil", []provdb.VertexID{svc2[1], conf}, []string{"staging.tar"})
	_, _ = g.Run("intruder", "cleanup", []provdb.VertexID{sus[0]}, []string{"staging.tar"})

	if err := g.Validate(); err != nil {
		log.Fatal(err)
	}

	// The detector flags staging.tar. A program segments around it with
	// Vsrc = Vdst = {staging.tar}: the zero-length palindrome anchors the
	// slice, and expansion pulls in the k-activity neighborhood — the
	// "radius" style slicing the paper relates VC2 to.
	flagged, _ := g.Latest("staging.tar")
	seg, err := g.Segment(provdb.Query{
		Src: []provdb.VertexID{flagged},
		Dst: []provdb.VertexID{flagged},
		Boundary: provdb.Boundary{
			Expansions: []provdb.Expansion{{Within: []provdb.VertexID{flagged}, K: 3}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("slice around flagged artifact (src = dst = staging.tar):")
	seg.Render(os.Stdout)

	// Who is implicated? Agents arrive via the VC4 rule.
	fmt.Println("\nimplicated agents:")
	for _, v := range seg.Vertices() {
		if g.Prov().KindOf(v) == provdb.KindAgent {
			fmt.Printf("  %s\n", g.Name(v))
		}
	}

	// Scope the slice down by excluding the service's own activities
	// (adjust step: exclusion boundary over the cached segment, no
	// re-induction).
	service := g.Agent("service")
	only := g.AdjustExclude(seg, provdb.Boundary{
		VertexFilters: []provdb.VertexFilter{
			func(p *prov.Graph, v graph.VertexID) bool {
				if p.KindOf(v) != prov.KindActivity {
					return true
				}
				var buf []graph.VertexID
				for _, u := range p.AgentsOf(v, buf) {
					if u == service {
						return false
					}
				}
				return true
			},
		},
	})
	fmt.Printf("\nafter excluding the service's own activities: %d of %d vertices remain\n",
		only.NumVertices(), seg.NumVertices())
}
