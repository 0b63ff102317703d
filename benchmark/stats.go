package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile reads the q-th value of an ascending sample (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	return quantile(s, 0.25), quantile(s, 0.75)
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// sample is one completed op of a timed window.
type sample struct {
	at      time.Duration // completion time since the window opened
	latency time.Duration // closed loop: from send; open loop: from due time
	late    time.Duration // open loop: actual send minus due time
	key     int           // which program / module / request class
	ok      bool          // answered and correct
}

// windowStats condenses one timed window into the end-to-end figures.
type windowStats struct {
	attempted, failed int
	opsPerS           float64
	sliceOps          []float64 // the same per slice of the window, for the report
	p50, p95          float64   // ms, over the whole window
	tailBeyond        int       // samples beyond p95
	geomean           float64   // ms, over keys of each key's median
	perKey            map[int]float64
	withinLimit       float64
	lateP99           float64 // ms
}

// slices is how many equal parts a window's throughput is also printed
// over, with quartiles, so a stalled second shows in the report.
const slices = 5

func summarize(w window, dur, limit time.Duration) windowStats {
	ws := windowStats{attempted: len(w.samples), perKey: map[int]float64{}}
	var lat, late []float64
	byKey := map[int][]float64{}
	count := make([]float64, slices)
	lastDone := make([]time.Duration, slices)
	within := 0
	for _, s := range w.samples {
		if !s.ok {
			ws.failed++
			continue
		}
		l := ms(s.latency)
		lat = append(lat, l)
		late = append(late, ms(s.late))
		byKey[s.key] = append(byKey[s.key], l)
		if s.latency <= limit {
			within++
		}
		i := int(int64(s.at) * slices / int64(dur))
		if i >= slices {
			i = slices - 1
		}
		count[i]++
		if s.at > lastDone[i] {
			lastDone[i] = s.at
		}
	}
	// A slice's throughput is its completions over the time from the last
	// completion before it to its own last one, so no op is cut in two.
	prev := time.Duration(0)
	for i := range count {
		if count[i] > 0 {
			ws.sliceOps = append(ws.sliceOps, count[i]/(lastDone[i]-prev).Seconds())
			prev = lastDone[i]
		}
	}
	// Closed loops: what the callers completed inside the window. Open
	// loop: arrivals are fixed by the schedule, so what is measured is how
	// long the system took to have answered them all.
	if w.elapsed > 0 {
		ws.opsPerS = float64(len(lat)) / w.elapsed.Seconds()
	}
	sort.Float64s(lat)
	ws.p50 = quantile(lat, 0.50)
	ws.p95 = quantile(lat, 0.95)
	ws.tailBeyond = len(lat) - int(math.Ceil(0.95*float64(len(lat))))
	var meds []float64
	for k, v := range byKey {
		ws.perKey[k] = median(v)
		meds = append(meds, ws.perKey[k])
	}
	ws.geomean = geomean(meds)
	if ws.attempted > 0 {
		ws.withinLimit = float64(within) / float64(ws.attempted)
	}
	ws.lateP99 = quantile(sortedCopy(late), 0.99)
	return ws
}
