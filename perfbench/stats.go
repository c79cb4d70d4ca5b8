package main

import (
	"math"
	"slices"
	"time"
)

// sample is a set of timings or counts summarised by nearest-rank
// percentiles. A percentile is only as good as the samples behind it, so
// every summary the benchmark prints carries its sample count.
type sample []float64

// percentile returns the nearest-rank p-th percentile (0 < p <= 100): the
// smallest value with at least p% of the sample at or below it. An empty
// sample yields 0.
func (s sample) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// beyond returns how many samples lie strictly above the p-th percentile
// rank: the support a tail percentile rests on.
func (s sample) beyond(p float64) int {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return len(s) - min(max(rank, 1), len(s))
}

func (s sample) median() float64 { return s.percentile(50) }

// openLoopTiming is one request of an open-loop schedule. Latency runs
// from the instant the request was DUE, not the instant it was sent, so a
// stalled generator or a full connection pool charges its wait to every
// request it delayed (the coordinated-omission correction).
type openLoopTiming struct {
	due, sent, done time.Time
}

func (t openLoopTiming) latency() time.Duration { return t.done.Sub(t.due) }

// lag is how late the generator sent the request.
func (t openLoopTiming) lag() time.Duration { return t.sent.Sub(t.due) }

// interval is a closed span of time [start, end] on one clock.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// covered returns the total length of the union of the children,
// clipped to parent: overlapping children (parallel fan-out legs) count
// once.
func covered(parent interval, children []interval) time.Duration {
	var clipped []interval
	for _, c := range children {
		s, e := c.start, c.end
		if s.Before(parent.start) {
			s = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if e.After(s) {
			clipped = append(clipped, interval{s, e})
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return a.start.Compare(b.start) })
	var total time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			total += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

// hull is the smallest interval holding every one of ivs (at least one).
func hull(ivs []interval) interval {
	h := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.start.Before(h.start) {
			h.start = iv.start
		}
		if iv.end.After(h.end) {
			h.end = iv.end
		}
	}
	return h
}

// selfTime is a span's duration minus the part of it its children cover:
// the time the layer spent on its own work or waiting on nothing it
// called.
func selfTime(span interval, children []interval) time.Duration {
	return span.dur() - covered(span, children)
}

// outcomes tallies what happened to the requests of a run. Everything
// that did not end in a correct 200 page is a failure: transport errors,
// non-200 answers (including 429 rate limits and 503 admission sheds —
// a refused request misses every latency limit), and wrong outputs:
// pages whose bytes differ from the reference, 200 pages marked partial,
// and any other output check that failed.
type outcomes struct {
	attempted int64
	transport int64
	non200    int64
	wrong     int64
}

func (o outcomes) failed() int64 { return o.transport + o.non200 + o.wrong }

func (o outcomes) failRatio() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed()) / float64(o.attempted)
}

func (o *outcomes) add(p outcomes) {
	o.attempted += p.attempted
	o.transport += p.transport
	o.non200 += p.non200
	o.wrong += p.wrong
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
