package prov

import (
	"bytes"
	"testing"

	"repro/internal/graph"
)

// TestWrapRecorderResumesLifecycle: a recorder rebuilt over a deserialized
// graph must continue artifact versioning and agent identity where the
// original left off — the provd daemon ingests into loaded .pg graphs.
func TestWrapRecorderResumesLifecycle(t *testing.T) {
	rc := NewRecorder()
	alice := rc.Agent("alice")
	v1 := rc.Snapshot("model")
	v2 := rc.Snapshot("model")
	rc.Import("alice", "dataset", "http://example.com/d")

	var buf bytes.Buffer
	if err := rc.P.PG().Save(&buf); err != nil {
		t.Fatal(err)
	}
	pg, err := graph.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rc2 := WrapRecorder(Wrap(pg))

	if got, ok := rc2.Latest("model"); !ok || got != v2 {
		t.Fatalf("Latest(model) = %v, %v; want %v", got, ok, v2)
	}
	if got, ok := rc2.Version("model", 1); !ok || got != v1 {
		t.Fatalf("Version(model, 1) = %v, %v; want %v", got, ok, v1)
	}
	if got := rc2.Agent("alice"); got != alice {
		t.Fatalf("Agent(alice) = %v; want existing vertex %v", got, alice)
	}

	// A new snapshot continues the version sequence and derives from v2.
	v3 := rc2.Snapshot("model")
	if ver, _ := rc2.P.PG().VertexProp(v3, PropVersion).IntVal(); ver != 3 {
		t.Fatalf("new snapshot version = %d; want 3", ver)
	}
	derived, _ := rc2.P.Freeze().PG().Rows(rc2.P.RelLabel(RelDeriv), true).Row(v3)
	if len(derived) != 1 || derived[0] != v2 {
		t.Fatalf("new snapshot derives from %v; want [%v]", derived, v2)
	}
	if err := rc2.P.Validate(); err != nil {
		t.Fatal(err)
	}
}
