package analysis

import (
	"strings"
	"testing"
)

// edgeTo reports whether the node keyed from has any edge to the node
// keyed to.
func edgeTo(g *CallGraph, from, to string) bool {
	n := g.Nodes[from]
	if n == nil {
		return false
	}
	for _, e := range n.Edges {
		if e.Callee == to {
			return true
		}
	}
	return false
}

// TestCallGraphEdges pins the three edge kinds on the snapshotpure
// fixture: static calls, interface-dispatch union, and bound
// function-value expansion.
func TestCallGraphEdges(t *testing.T) {
	l := newFixtureLoader(t)
	pkg, err := l.load("snapshotpure/snap")
	if err != nil {
		t.Fatal(err)
	}
	g := NewProgram([]*Package{pkg}).Graph

	// Static: root → helper → helper → stdlib leaf.
	for _, e := range [][2]string{
		{"snapshotpure/snap.WriteSnapshot", "snapshotpure/snap.encodeHeader"},
		{"snapshotpure/snap.encodeHeader", "snapshotpure/snap.stamp"},
		{"snapshotpure/snap.stamp", "time.Now"},
	} {
		if !edgeTo(g, e[0], e[1]) {
			t.Errorf("missing static edge %s → %s", e[0], e[1])
		}
	}
	if n := g.Nodes["time.Now"]; n == nil || n.HasBody {
		t.Errorf("time.Now should be a body-less leaf, got %+v", n)
	}

	// Interface dispatch: calling encoder.Encode unions in the concrete
	// randEncoder.Encode.
	if !edgeTo(g, "snapshotpure/snap.WriteSnapshot", "(snapshotpure/snap.randEncoder).Encode") {
		t.Error("interface call enc.Encode did not expand to (randEncoder).Encode")
	}

	// Function value: mentioning nowMillis binds it, and calling the
	// value links to it.
	if !edgeTo(g, "snapshotpure/snap.WriteSnapshot", "snapshotpure/snap.nowMillis") {
		t.Error("function-value call did not link WriteSnapshot → nowMillis")
	}
}

// TestReachesWitnessPath pins the rendered witness chain used in
// diagnostics.
func TestReachesWitnessPath(t *testing.T) {
	l := newFixtureLoader(t)
	pkg, err := l.load("snapshotpure/snap")
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram([]*Package{pkg})
	path, ok := prog.Reaches("snapshotpure/snap.encodeHeader", func(n *Node) bool {
		return n.Key == "time.Now"
	})
	if !ok {
		t.Fatal("encodeHeader should reach time.Now")
	}
	if got, want := path.String(), "snap.encodeHeader → snap.stamp → time.Now"; got != want {
		t.Errorf("witness path = %q, want %q", got, want)
	}
	if _, ok := prog.Reaches("snapshotpure/snap.encodeBody", func(n *Node) bool {
		return n.Key == "time.Now"
	}); ok {
		t.Error("encodeBody must not reach time.Now")
	}
}

// TestPollsCtxMarking pins the context-polling detection on the ctxloop
// fixture.
func TestPollsCtxMarking(t *testing.T) {
	l := newFixtureLoader(t)
	pkg, err := l.load("ctxloop/loop")
	if err != nil {
		t.Fatal(err)
	}
	g := NewProgram([]*Package{pkg}).Graph
	for key, want := range map[string]bool{
		"ctxloop/loop.step":              true,
		"(*ctxloop/loop.ctxWorker).Step": true,
		"ctxloop/loop.work":              false,
		"ctxloop/loop.helperNoPoll":      false,
	} {
		n := g.Nodes[key]
		if n == nil {
			t.Errorf("missing node %s", key)
			continue
		}
		if n.PollsCtx != want {
			t.Errorf("%s PollsCtx = %v, want %v", key, n.PollsCtx, want)
		}
	}
}

// TestFuncKeyNormalization pins test-variant stripping.
func TestFuncKeyNormalization(t *testing.T) {
	cases := map[string]string{
		"ffsage/internal/ffs.New": "ffsage/internal/ffs.New",
		"(*ffsage/internal/ffs.FileSystem [ffsage/internal/ffs.test]).PoolStats": "(*ffsage/internal/ffs.FileSystem).PoolStats",
	}
	for in, want := range cases {
		if got := normalizeKey(in); got != want {
			t.Errorf("normalizeKey(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSuppressMalformedStillReported guards the suppression contract on
// the whole-program path: an ignore without a reason is a finding, not
// a silencer. (The per-package path is covered by the nopanic fixture.)
func TestSuppressMalformedStillReported(t *testing.T) {
	l := newFixtureLoader(t)
	pkg, err := l.load("ctxloop/loop")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunProgram(NewProgram([]*Package{pkg}),
		[]*Analyzer{Ctxloop(CtxloopConfig{Packages: []string{"ctxloop/loop"}})})
	for _, d := range diags {
		if !strings.Contains(d.Message, "neither polls") && d.Analyzer != "suppress" {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}
