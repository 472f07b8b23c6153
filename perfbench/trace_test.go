package main

import (
	"math"
	"testing"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "core", Start: 0, End: 100},
		// Two concurrent children overlap on [30, 50]: together they
		// cover [10, 70], 60 units, not 40+40.
		{ID: 2, Parent: 1, Layer: "dmav", Start: 10, End: 50},
		{ID: 3, Parent: 1, Layer: "dmav", Start: 30, End: 70},
		// A child sticking out of its parent only covers its inside part.
		{ID: 4, Parent: 1, Layer: "convert", Start: 90, End: 120},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 2, Layer: "sched", Start: 20, End: 25},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 60 - 10, 2: 40 - 5, 3: 40, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	layers := layerSelf(spans)
	for layer, w := range map[string]float64{"core": 30e-9, "dmav": 75e-9, "convert": 30e-9, "sched": 5e-9} {
		if math.Abs(layers[layer]-w) > 1e-18 {
			t.Errorf("layer %s self = %g s, want %g s", layer, layers[layer], w)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("t1", 0, "root", "core")
	child := tr.begin("t1", root, "child", "dmav")
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Trace != "t1" {
		t.Fatalf("unexpected spans %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	self := selfTimes(spans)
	if self[root]+self[child] != spans[0].End-spans[0].Start {
		t.Errorf("self times %d + %d do not add up to the root's %d", self[root], self[child], spans[0].End-spans[0].Start)
	}
}
