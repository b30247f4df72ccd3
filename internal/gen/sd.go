package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/prov"
)

// SdConfig parameterizes the similar-segment generator (paper Sec. V(b)):
// each segment is a walk of a k-state Markov chain whose transition rows
// are drawn once from a symmetric Dirichlet(alpha) prior; a low alpha
// concentrates the transitions (stable pipelines), a high alpha makes them
// uniform (exploratory project stages). Zero-valued fields take the paper
// defaults (alpha=0.1, k=5, n=20, |S|=10).
type SdConfig struct {
	// States is k, the number of activity types.
	States int
	// Alpha is the Dirichlet concentration parameter.
	Alpha float64
	// Activities is n, the number of activities per segment.
	Activities int
	// Segments is |S|.
	Segments int
	// LambdaIn / LambdaOut are the Poisson means for activity input /
	// output sizes (defaults 2, matching Pd).
	LambdaIn, LambdaOut float64
	// SelectSkew is se for input selection (default 1.5).
	SelectSkew float64
	// Seed drives the deterministic RNG.
	Seed int64
}

func (c SdConfig) withDefaults() SdConfig {
	if c.States == 0 {
		c.States = 5
	}
	if c.Alpha == 0 {
		c.Alpha = 0.1
	}
	if c.Activities == 0 {
		c.Activities = 20
	}
	if c.Segments == 0 {
		c.Segments = 10
	}
	if c.LambdaIn == 0 {
		c.LambdaIn = 2
	}
	if c.LambdaOut == 0 {
		c.LambdaOut = 2
	}
	if c.SelectSkew == 0 {
		c.SelectSkew = 1.5
	}
	return c
}

// Sd generates |S| conceptually similar segments as disjoint subgraphs of
// one provenance graph. Activity vertices carry a "command" property
// naming their state ("op3"), which is what PgSum's property aggregation
// matches on; entity vertices all share one equivalence label, as the
// paper specifies. The segments are over one snapshot of the returned
// graph, taken once it is complete.
func Sd(cfg SdConfig) (*prov.Graph, []*core.Segment) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := prov.New()

	// One transition matrix shared by all segments.
	matrix := make([][]float64, cfg.States)
	for i := range matrix {
		matrix[i] = Dirichlet(rng, cfg.States, cfg.Alpha)
	}
	initial := Dirichlet(rng, cfg.States, 1.0)

	maxEnts := cfg.Activities*(2+int(cfg.LambdaOut))*2 + 8
	rankPick := NewZipfRank(cfg.SelectSkew, maxEnts)
	agent := p.NewAgent("team")

	members := make([][]graph.VertexID, 0, cfg.Segments)
	for si := 0; si < cfg.Segments; si++ {
		var vertices []graph.VertexID
		var entities []graph.VertexID

		newEntity := func() graph.VertexID {
			e := p.NewEntity(fmt.Sprintf("s%d-e%d", si, len(entities)))
			entities = append(entities, e)
			vertices = append(vertices, e)
			return e
		}
		numSeeds := 1 + int(cfg.LambdaIn)
		for i := 0; i < numSeeds; i++ {
			newEntity()
		}

		state := Categorical(rng, initial)
		for ai := 0; ai < cfg.Activities; ai++ {
			cmd := fmt.Sprintf("op%d", state)
			a := p.NewActivity(cmd)
			p.PG().SetVertexProp(a, prov.PropCommand, graph.String(cmd))
			p.WasAssociatedWith(a, agent)
			vertices = append(vertices, a)

			m := 1 + Poisson(rng, cfg.LambdaIn)
			picked := make(map[graph.VertexID]bool, m)
			for len(picked) < m && len(picked) < len(entities) {
				rank := rankPick.Sample(rng, len(entities))
				e := entities[len(entities)-rank]
				if !picked[e] {
					picked[e] = true
					p.Used(a, e)
				}
			}
			n := 1 + Poisson(rng, cfg.LambdaOut)
			for i := 0; i < n; i++ {
				e := newEntity()
				p.WasGeneratedBy(e, a)
			}
			state = Categorical(rng, matrix[state])
		}
		members = append(members, vertices)
	}
	fz := p.Freeze()
	segments := make([]*core.Segment, len(members))
	for i, vs := range members {
		seg, err := core.NewSegment(fz, vs)
		if err != nil {
			panic(err) // every member is a vertex the loop above added
		}
		segments[i] = seg
	}
	return p, segments
}

// SdSumOptions returns the PgSum options the Sd experiments use: activities
// aggregate on their command (state), entities collapse to one label, and
// provenance types are 1-hop (the paper's Fig. 2(e) resolution).
func SdSumOptions() core.SumOptions {
	return core.SumOptions{
		K: core.Aggregation{
			Activity: []string{prov.PropCommand},
		},
		TypeRadius: 1,
	}
}
