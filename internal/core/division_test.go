package core

import (
	"math/rand"
	"reflect"
	"testing"

	"locec/internal/graph"
	"locec/internal/wechat"
)

// TestDivideNodesWritesOnlyListedNodes: for a shuffled subset of nodes,
// the scheduler fills exactly the listed entries — each with its own ego —
// and leaves every other entry as it found it.
func TestDivideNodesWritesOnlyListedNodes(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(90, 3))
	if err != nil {
		t.Fatal(err)
	}
	ds := net.Dataset
	n := ds.G.NumNodes()
	sentinel := &EgoResult{}
	egos := make([]*EgoResult, n)
	for u := range egos {
		egos[u] = sentinel
	}
	rng := rand.New(rand.NewSource(5))
	var nodes []graph.NodeID
	listed := make([]bool, n)
	for _, u := range rng.Perm(n)[:n/2] {
		nodes = append(nodes, graph.NodeID(u))
		listed[u] = true
	}
	DivideNodes(ds, egos, nodes, DivisionConfig{Detector: DetectorLabelProp, Seed: 7, Workers: 4})
	for u, er := range egos {
		switch {
		case !listed[u] && er != sentinel:
			t.Fatalf("unlisted node %d was overwritten", u)
		case listed[u] && (er == sentinel || er == nil):
			t.Fatalf("listed node %d was not divided", u)
		case listed[u] && int(er.Ego) != u:
			t.Fatalf("entry %d holds ego %d", u, er.Ego)
		}
	}
}

// TestDivideIdenticalAtAnyWorkerCount: Phase I is a pure per-node job, so
// the scheduler's width must not change a single field of any ego result —
// for a global detector and for a local one (whose growth provenance is
// part of the result).
func TestDivideIdenticalAtAnyWorkerCount(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(90, 3))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.5, 4)
	ds := net.Dataset
	for _, d := range []DetectorKind{DetectorLabelProp, DetectorClauset} {
		t.Run(d.String(), func(t *testing.T) {
			want := Divide(ds, DivisionConfig{Detector: d, Seed: 7, Workers: 1})
			for _, w := range []int{2, 4, 8} {
				got := Divide(ds, DivisionConfig{Detector: d, Seed: 7, Workers: w})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: division differs from workers=1", w)
				}
			}
		})
	}
}
