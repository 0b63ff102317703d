package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestArrivalTimesRepeat(t *testing.T) {
	a := arrivalTimes(7, 200, 10*time.Second)
	b := arrivalTimes(7, 200, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if len(a) != 200 || !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatalf("schedule has %d arrivals or is not in time order", len(a))
	}
	if a[len(a)-1] >= 10*time.Second {
		t.Fatalf("last arrival %v is outside the window", a[len(a)-1])
	}
	if reflect.DeepEqual(a, arrivalTimes(8, 200, 10*time.Second)) {
		t.Fatal("two seeds gave the same schedule")
	}
}

// A server that stalls once must see the stall in the latency of the
// requests that were due while it was stalled: the generator keeps sending on
// schedule and counts from the due time. A generator that waited for the
// stalled reply before sending the next would report them all as fast.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex // one worker
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if first {
			first = false
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := newClient()

	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	win := openLoop(due, func(i int) (int, bool) {
		status, _, _, err := post(client, srv.URL, nil)
		return 0, err == nil && status == http.StatusOK
	})
	for i, s := range win.samples {
		if !s.ok {
			t.Fatalf("request %d failed", i)
		}
		if s.late > 20*time.Millisecond {
			t.Errorf("request %d was sent %v late: the generator itself stalled", i, s.late)
		}
		// Request i was due at i*10ms and could not be answered before the
		// stall ended.
		if want := stall - due[i]; want > 0 && s.latency < want-5*time.Millisecond {
			t.Errorf("request %d: latency %v hides the stall, want at least %v", i, s.latency, want)
		}
	}
	if win.inflightMax < 10 {
		t.Errorf("inflight max %d: requests did not pile up behind the stall", win.inflightMax)
	}
}

// The window's end stops new sends, not the ops in flight: those are waited
// for and counted, so a slow op that straddles the end is not lost.
func TestClosedLoopCountsOpsInFlightAtTheEnd(t *testing.T) {
	const dur = 100 * time.Millisecond
	win := closedLoop(2, dur, func(n int) (int, bool) {
		time.Sleep(30 * time.Millisecond)
		return n % 2, true
	})
	// Each caller starts ops at about 0, 30, 60 and 90 ms.
	if n := len(win.samples); n < 6 || n > 8 {
		t.Fatalf("%d ops of 30 ms by 2 callers in 100 ms, want 8 (6 on a slow machine)", n)
	}
	straddled := 0
	for _, s := range win.samples {
		if s.at-s.latency >= dur {
			t.Errorf("an op was sent at %v, after the window closed", s.at-s.latency)
		}
		if s.at > dur {
			straddled++
		}
	}
	if straddled == 0 {
		t.Error("no op was in flight when the window closed, or it was dropped")
	}
	if win.elapsed <= dur {
		t.Errorf("elapsed %v does not reach the last answer", win.elapsed)
	}
}
