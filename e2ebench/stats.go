package main

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"flexric/internal/telemetry"
)

// samples is a mutex-guarded list of durations in nanoseconds.
type samples struct {
	mu sync.Mutex
	ns []int64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ns = append(s.ns, int64(d))
	s.mu.Unlock()
}

func (s *samples) snapshot() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.ns...)
}

// dist is a sorted sample set.
type dist []int64

func newDist(ns []int64) dist {
	d := append(dist(nil), ns...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// q returns the nearest-rank quantile (0 < p ≤ 1) in nanoseconds, or 0
// for an empty set.
func (d dist) q(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(d[i])
}

func (d dist) ms(p float64) float64 { return d.q(p) / 1e6 }
func (d dist) us(p float64) float64 { return d.q(p) / 1e3 }

// histDelta subtracts an earlier snapshot of the same telemetry
// histogram, leaving the observations made in between.
func histDelta(after, before telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	out := after
	out.Count -= before.Count
	out.SumNS -= before.SumNS
	for i := range out.Buckets {
		out.Buckets[i] -= before.Buckets[i]
	}
	return out
}

// span is one of the benchmark's own spans: a timed call into a public
// function of one layer, or a whole operation from its due time.
type span struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanCap bounds the in-memory span log of a traced run.
const spanCap = 1 << 18

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one branch per call.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	dropped int
	nextID  uint64
}

func (l *spanLog) id() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.nextID
}

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.spans) < spanCap {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// record adds a span with a fresh ID and returns that ID.
func (l *spanLog) record(traceID, parent uint64, name string, start, end time.Time) uint64 {
	if l == nil {
		return 0
	}
	id := l.id()
	if traceID == 0 {
		traceID = id
	}
	l.add(span{Trace: traceID, ID: id, Parent: parent, Name: name,
		StartNS: start.UnixNano(), EndNS: end.UnixNano()})
	return id
}

// writeJSONL writes one span per line.
func (l *spanLog) writeJSONL(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// spanStat summarises the spans of one name: how many, their total
// duration, and their self time — duration minus the part covered by
// their children.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summary aggregates the span log by span name.
func (l *spanLog) summary() map[string]spanStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[uint64]int64{} // parent ID → covered ns
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]spanStat{}
	for _, s := range l.spans {
		d := s.EndNS - s.StartNS
		st := out[s.Name]
		st.Count++
		st.TotalMS += float64(d) / 1e6
		st.SelfMS += float64(d-children[s.ID]) / 1e6
		out[s.Name] = st
	}
	return out
}
