package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	u := time.Millisecond
	recs := []spanRec{
		{name: "parent", start: 0, end: 100 * u, parent: -1},
		{name: "a", start: 10 * u, end: 30 * u, parent: 0},
		{name: "b", start: 20 * u, end: 50 * u, parent: 0},   // overlaps a
		{name: "c", start: 90 * u, end: 120 * u, parent: 0},  // sticks out of the parent
		{name: "a.1", start: 12 * u, end: 18 * u, parent: 1}, // grandchild: a's business only
		{name: "lone", start: 200 * u, end: 205 * u, parent: -1},
	}
	// Children cover 10..50 and 90..100 of the parent: 50 of its 100.
	want := []time.Duration{50 * u, 14 * u, 30 * u, 30 * u, 6 * u, 5 * u}
	got := selfTimes(recs)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self time %v, want %v", recs[i].name, got[i], want[i])
		}
	}
}

func TestPerOpSumsByName(t *testing.T) {
	u := time.Millisecond
	recs := []spanRec{
		{name: "op", start: 0, end: 10 * u, parent: -1, op: 0},
		{name: "x.decode", start: 0, end: 2 * u, parent: 0, op: 0},
		{name: "x.decode", start: 4 * u, end: 7 * u, parent: 0, op: 0},
		{name: "op", start: 20 * u, end: 30 * u, parent: -1, op: 1},
		{name: "x.decode", start: 20 * u, end: 21 * u, parent: 3, op: 1},
		{name: "op", start: 40 * u, end: 50 * u, parent: -1, op: 2}, // no decode: no value
	}
	got := sortedCopy(perOp(recs, selfTimes(recs), func(n string) bool { return n == "x.decode" }))
	if len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("per-op decode self times %v, want [1 5]", got)
	}
	if layerOf("x.decode") != "x" || layerOf("request") != "request" {
		t.Fatal("layerOf does not cut at the first dot")
	}
}
