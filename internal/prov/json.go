package prov

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/graph"
)

// JSON interchange format, modeled on the W3C PROV-JSON serialization:
// top-level maps from vertex kind to {id: attributes}, and from relationship
// name to {relation-id: {from, to, attributes}}.

type jsonDoc struct {
	Entity   map[string]map[string]any `json:"entity,omitempty"`
	Activity map[string]map[string]any `json:"activity,omitempty"`
	Agent    map[string]map[string]any `json:"agent,omitempty"`

	Used       map[string]jsonRel `json:"used,omitempty"`
	Generated  map[string]jsonRel `json:"wasGeneratedBy,omitempty"`
	Associated map[string]jsonRel `json:"wasAssociatedWith,omitempty"`
	Attributed map[string]jsonRel `json:"wasAttributedTo,omitempty"`
	Derived    map[string]jsonRel `json:"wasDerivedFrom,omitempty"`
}

type jsonRel struct {
	From string `json:"from"`
	To   string `json:"to"`
}

func vertexKey(v graph.VertexID) string { return fmt.Sprintf("v%d", v) }

func propsToJSON(g *graph.Graph, v graph.VertexID) map[string]any {
	out := make(map[string]any)
	g.VertexProps(v, func(k string, val graph.Value) bool {
		if s, ok := val.Str(); ok {
			out[k] = s
		} else if i, ok := val.IntVal(); ok {
			out[k] = i
		} else if f, ok := val.FloatVal(); ok {
			out[k] = f
		} else if b, ok := val.BoolVal(); ok {
			out[k] = b
		}
		return true
	})
	return out
}

// ExportJSON writes the graph in the PROV-JSON-style interchange format.
func (p *Graph) ExportJSON(w io.Writer) error {
	doc := jsonDoc{
		Entity:     map[string]map[string]any{},
		Activity:   map[string]map[string]any{},
		Agent:      map[string]map[string]any{},
		Used:       map[string]jsonRel{},
		Generated:  map[string]jsonRel{},
		Associated: map[string]jsonRel{},
		Attributed: map[string]jsonRel{},
		Derived:    map[string]jsonRel{},
	}
	for v := 0; v < p.g.NumVertices(); v++ {
		id := graph.VertexID(v)
		props := propsToJSON(p.g, id)
		switch p.KindOf(id) {
		case KindEntity:
			doc.Entity[vertexKey(id)] = props
		case KindActivity:
			doc.Activity[vertexKey(id)] = props
		case KindAgent:
			doc.Agent[vertexKey(id)] = props
		}
	}
	for e := 0; e < p.g.NumEdges(); e++ {
		id := graph.EdgeID(e)
		rel := jsonRel{From: vertexKey(p.g.Src(id)), To: vertexKey(p.g.Dst(id))}
		key := fmt.Sprintf("r%d", e)
		switch p.RelOf(id) {
		case RelUsed:
			doc.Used[key] = rel
		case RelGen:
			doc.Generated[key] = rel
		case RelAssoc:
			doc.Associated[key] = rel
		case RelAttr:
			doc.Attributed[key] = rel
		case RelDeriv:
			doc.Derived[key] = rel
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ImportJSON reads a PROV-JSON-style document into a fresh graph. Vertices
// are created in sorted-key order per kind (entities, then activities, then
// agents) so the import is deterministic; original keys are preserved in the
// "provjson.id" property.
func ImportJSON(r io.Reader) (*Graph, error) {
	var doc jsonDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("prov: import json: %w", err)
	}
	p := New()
	ids := make(map[string]graph.VertexID)

	addAll := func(m map[string]map[string]any, mk func(string) graph.VertexID) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := mk("")
			ids[k] = v
			p.g.SetVertexProp(v, "provjson.id", graph.String(k))
			attrs := m[k]
			akeys := make([]string, 0, len(attrs))
			for a := range attrs {
				akeys = append(akeys, a)
			}
			sort.Strings(akeys)
			for _, a := range akeys {
				switch val := attrs[a].(type) {
				case string:
					p.g.SetVertexProp(v, a, graph.String(val))
				case float64:
					p.g.SetVertexProp(v, a, graph.Float(val))
				case bool:
					p.g.SetVertexProp(v, a, graph.Bool(val))
				}
			}
		}
	}
	addAll(doc.Entity, p.NewEntity)
	addAll(doc.Activity, p.NewActivity)
	addAll(doc.Agent, p.NewAgent)

	addRels := func(m map[string]jsonRel, rel Rel) error {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			jr := m[k]
			from, ok1 := ids[jr.From]
			to, ok2 := ids[jr.To]
			if !ok1 || !ok2 {
				return fmt.Errorf("prov: import json: relation %s references unknown vertex", k)
			}
			if _, err := p.AddRel(rel, from, to); err != nil {
				return err
			}
		}
		return nil
	}
	for _, step := range []struct {
		m   map[string]jsonRel
		rel Rel
	}{
		{doc.Used, RelUsed},
		{doc.Generated, RelGen},
		{doc.Associated, RelAssoc},
		{doc.Attributed, RelAttr},
		{doc.Derived, RelDeriv},
	} {
		if err := addRels(step.m, step.rel); err != nil {
			return nil, err
		}
	}
	return p, nil
}
