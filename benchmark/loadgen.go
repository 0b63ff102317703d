package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc performs request number n of a loop and reports which key it
// belonged to and whether the answer was correct.
type opFunc func(n int) (key int, ok bool)

// window is what one loop over a timed window observed.
type window struct {
	samples     []sample
	inflightMax int           // most requests ever outstanding at once
	elapsed     time.Duration // window opened -> last answer counted
	open        bool          // sent on a schedule, not by waiting callers
}

// closedLoop runs clients callers for dur; each sends its next op only when
// its previous one has been answered, so the figure is capacity at that
// client count. Ops are numbered from one shared counter, so the callers
// together walk one sequence. The end of the window only stops new sends:
// an op in flight then is waited for and counted, because the slow ops are
// the ones most likely to straddle the end and leaving them out would trim
// the tail. Throughput is taken over the time to the last answer.
func closedLoop(clients int, dur time.Duration, op opFunc) window {
	var next atomic.Int64
	var mu sync.Mutex
	var all []sample
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					break
				}
				key, ok := op(int(next.Add(1) - 1))
				end := time.Now()
				mine = append(mine, sample{at: end.Sub(start), latency: end.Sub(t0), key: key, ok: ok})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	var last time.Duration
	for _, s := range all {
		if s.at > last {
			last = s.at
		}
	}
	return window{samples: all, inflightMax: clients, elapsed: last}
}

// arrivalTimes returns the due times of n open-loop arrivals over dur,
// drawn from the seed once, before the window, so the same seed sends at
// the same instants whatever the server does. Arrivals are paced: one per
// dur/n, each moved by a seeded jitter of up to a quarter gap either way. A
// Poisson schedule of the few hundred arrivals a window holds clusters them
// differently for every seed, and that clustering, not the system, then
// decides the tail; pacing keeps the open loop (requests are sent when due,
// answered or not) and leaves the queueing to the server.
func arrivalTimes(seed int64, n int, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	gap := float64(dur) / float64(n)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration((float64(i) + 0.5 + (rng.Float64()-0.5)/2) * gap)
	}
	return due
}

// openLoopSenders bounds the open loop's outstanding requests. Senders only
// wait on the network, so they are not sized to nproc as the closed loops'
// callers are: they must outnumber the requests a slow answer can hold up,
// or the stall would happen in the generator, where the server cannot be
// charged for it. loadgen.inflight_max reports how many were ever busy.
const openLoopSenders = 32

// openLoop sends arrival i at due[i] whether or not earlier ones have been
// answered. Latency runs from the due time, so the wait a stall imposes on
// later requests is counted; late records how far behind its due time each
// request was actually sent.
func openLoop(due []time.Duration, op opFunc) window {
	samples := make([]sample, len(due))
	var next, inflight, peak atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < openLoopSenders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				n := inflight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				key, ok := op(i)
				inflight.Add(-1)
				done := time.Since(start)
				samples[i] = sample{at: due[i], latency: done - due[i], late: sent - due[i], key: key, ok: ok}
			}
		}()
	}
	wg.Wait()
	return window{samples: samples, inflightMax: int(peak.Load()), elapsed: time.Since(start), open: true}
}
