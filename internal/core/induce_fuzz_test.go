package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/prov"
)

// Vertex bytes of provFromBytes: the byte mod 3 is the kind (entity,
// activity, agent), and bit 2 puts the vertex in the subset.
const (
	entityOut, activityOut, agentOut = 0, 1, 2
	activityIn, agentIn, entityIn    = 4, 5, 6
)

// provFromBytes decodes fuzz input into a small PROV DAG, a vertex subset
// and a boundary: a 3-byte header (vertex count, relation exclusion mask,
// filter flags: bit 0 refuses odd agents, bits 1-3 a modulus of edge ids to
// refuse), then one byte per vertex and two bytes per edge. An edge runs
// from the higher of its two ids to the lower, so the graph is a DAG, and
// takes the one relation prov.AddRel admits between the two kinds; a pair
// of kinds no relation joins (and a self-loop) adds nothing.
func provFromBytes(data []byte) (p *prov.Graph, vs []graph.VertexID, b core.Boundary, ok bool) {
	if len(data) < 3 {
		return nil, nil, b, false
	}
	n := 1 + int(data[0])%80 // the subset's bitset may span two words
	for r := prov.Rel(0); r <= prov.RelDeriv; r++ {
		if data[1]&(1<<r) != 0 {
			b.ExcludeRels = append(b.ExcludeRels, r)
		}
	}
	if data[2]&1 != 0 {
		b.VertexFilters = []core.VertexFilter{dropAgents}
	}
	if cut := graph.EdgeID(data[2]>>1) % 8; cut != 0 {
		b.EdgeFilters = []core.EdgeFilter{func(_ *prov.Graph, e graph.EdgeID) bool { return e%cut != 0 }}
	}
	data = data[3:]
	p = prov.New()
	for i := 0; i < n; i++ {
		var c byte
		if i < len(data) {
			c = data[i]
		}
		var v graph.VertexID
		switch c % 3 {
		case 0:
			v = p.NewEntity("")
		case 1:
			v = p.NewActivity("")
		default:
			v = p.NewAgent("")
		}
		if c&4 != 0 {
			vs = append(vs, v)
		}
	}
	data = data[min(n, len(data)):]
	for ; len(data) >= 2; data = data[2:] {
		src, dst := graph.VertexID(data[0])%graph.VertexID(n), graph.VertexID(data[1])%graph.VertexID(n)
		if src < dst {
			src, dst = dst, src
		}
		for r := prov.Rel(0); r <= prov.RelDeriv; r++ {
			if ks, kd := r.Endpoints(); src != dst && p.IsKind(src, ks) && p.IsKind(dst, kd) {
				if _, err := p.AddRel(r, src, dst); err != nil {
					panic(err)
				}
			}
		}
	}
	return p.Freeze(), vs, b, true
}

// FuzzInducedEdges: on any decoded graph, subset and boundary, with and
// without VC4, inducedEdges' scan of the edge columns returns the row
// oracle's edges, exact-size, and adds the oracle's agents.
func FuzzInducedEdges(f *testing.F) {
	// Fig. 2's shape in miniature, all in the subset: an agent, two
	// entities, an activity that used one and generated the other, a
	// derivation and an attribution.
	f.Add([]byte{3, 0, 0, agentIn, entityIn, activityIn, entityIn, 2, 1, 3, 2, 2, 0, 3, 1, 1, 0})
	// An activity and two entities in the subset; two agents and an entity
	// outside it. The activity is associated with both agents (the vertex
	// filter refuses the odd one, which also has an A edge) and used the
	// outside entity, from which an entity of the subset derives.
	f.Add([]byte{5, 0, 1, entityIn, agentOut, agentOut, entityOut, activityIn, entityIn, 4, 1, 4, 2, 4, 0, 4, 3, 5, 4, 5, 3, 0, 1})
	f.Add([]byte{79, 0b01100, 0b111, 7, 6, 5, 4, 3, 2, 1, 0, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24})
	f.Add([]byte{30, 0b10011, 0b100, 4, 4, 4, 5, 5, 5, 6, 6, 6, 1, 0, 2, 0, 3, 1, 4, 2, 5, 3, 6, 4, 7, 5, 8, 6, 9, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, vs, b, ok := provFromBytes(data)
		if !ok {
			return
		}
		for _, agents := range []bool{false, true} {
			wantEdges, wantAgents := core.RowOracleInducedEdges(p, b, vs, agents)
			edges, added := core.InducedEdges(p, b, vs, agents)
			if !reflect.DeepEqual(edges, wantEdges) || len(edges) != cap(edges) || !reflect.DeepEqual(added, wantAgents) {
				t.Fatalf("agents=%v: edges %v (cap %d), agents %v; the oracle %v, %v",
					agents, edges, cap(edges), added, wantEdges, wantAgents)
			}
		}
	})
}
