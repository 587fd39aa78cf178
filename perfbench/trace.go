package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"timedice/internal/check"
	"timedice/internal/obs"
	"timedice/internal/telemetry"
)

// span is one traced interval at a layer boundary. Interval spans carry
// Start and End; aggregate spans carry only Agg, the summed duration of many
// short calls (per-event sink work, per-decision Pick time) that would be far
// too numerous to record one by one.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for the root
	Item   int           `json:"item"`   // the item (trial, cell, system) it belongs to; -1 for run-level spans
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns,omitempty"` // since the tracer's origin
	End    time.Duration `json:"end_ns,omitempty"`
	Agg    time.Duration `json:"agg_ns,omitempty"`
	Count  int64         `json:"count,omitempty"` // calls an aggregate span sums
}

func (s span) aggregate() bool { return s.Count != 0 || s.Agg != 0 }

func (s span) dur() time.Duration {
	if s.aggregate() {
		return s.Agg
	}
	return s.End - s.Start
}

// tracer keeps the spans of one traced repetition in memory. It is safe for
// use from the runner's worker goroutines.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	// pickHist accumulates every Pick latency of the repetition (µs); the
	// traced systems share it through engine.Counters.PolicyLatency.
	pickHist *telemetry.Histogram
	// clock holds the host costs of the clock reads that timing adds; they
	// are subtracted from the layers they bracket and reported as
	// trace.clock_s instead. On a campaign the traced sink reads the clock
	// four times per event, so without this the reads would dominate.
	clock clockCosts
}

func newTracer() *tracer {
	clock := calibrateClock()
	return &tracer{
		origin:   time.Now(),
		pickHist: telemetry.NewHistogram(telemetry.LatencyBuckets()),
		clock:    clock,
	}
}

// add records s and returns its id. The tracer methods are no-ops on a nil
// tracer, so one code path serves traced and untraced repetitions.
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// begin opens an interval span and returns its id for end.
func (t *tracer) begin(name string, item, parent int) int {
	if t == nil {
		return 0
	}
	return t.add(span{Parent: parent, Item: item, Name: name, Start: time.Since(t.origin)})
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// agg records an aggregate span of n calls summing to d.
func (t *tracer) agg(name string, item, parent int, d time.Duration, n int64) int {
	return t.add(span{Parent: parent, Item: item, Name: name, Agg: d, Count: n})
}

// selfTimes returns each span's self time: its duration minus the part its
// children cover — the union of its interval children (clipped to it) plus
// the sum of its aggregate children.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]span, len(spans)+1)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		covered := time.Duration(0)
		var ivs []span
		for _, c := range kids[s.ID] {
			if c.aggregate() {
				covered += c.Agg
			} else {
				ivs = append(ivs, c)
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].Start < ivs[b].Start })
		hi := s.Start
		for _, c := range ivs {
			a, b := max(c.Start, hi), min(c.End, s.End)
			if b > a {
				covered += b - a
				hi = b
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeSpans writes the spans as JSON lines to dir/name.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clockBase anchors mono.
var clockBase = time.Now()

// mono is the cheapest clock read: time.Since reads only the monotonic
// clock, where time.Now reads the wall clock as well.
func mono() time.Duration { return time.Since(clockBase) }

// clockCosts are what timing itself costs on this host.
type clockCosts struct {
	read     time.Duration // one mono call; every interval timed with mono carries one
	pickNull time.Duration // what engine MeasureLatency books for an empty Pick
	pickPair time.Duration // what MeasureLatency's two clock reads cost per Pick
}

// calibrateClock measures clockCosts, each the median of several batches.
func calibrateClock() clockCosts {
	const calls, batches = 20000, 7
	typical := func(f func() time.Duration) time.Duration {
		s := make([]time.Duration, batches)
		for b := range s {
			s[b] = f()
		}
		return time.Duration(median(s))
	}
	return clockCosts{
		read: typical(func() time.Duration {
			t0 := mono()
			for i := 0; i < calls; i++ {
				mono()
			}
			return (mono() - t0) / (calls + 1)
		}),
		pickNull: typical(func() time.Duration {
			var sum time.Duration
			for i := 0; i < calls; i++ {
				t0 := time.Now()
				sum += time.Since(t0)
			}
			return sum / calls
		}),
		pickPair: typical(func() time.Duration {
			t0 := mono()
			for i := 0; i < calls; i++ {
				time.Since(time.Now())
			}
			return (mono() - t0) / calls
		}),
	}
}

// timedFanout is the traced stand-in for the telemetry.Multi{suite,
// recorder} fan-out that gen.RunRecorded attaches. It times each member per
// event, and also feeds a check.Digester over the same stream to measure the
// digest's share of the suite's cost (the probe's own digest must equal the
// suite's).
type timedFanout struct {
	suite *check.Suite
	rec   *obs.Recorder
	dig   *check.Digester

	n                  int64
	suiteT, recT, digT time.Duration
}

func (f *timedFanout) Event(e telemetry.Event) {
	t0 := mono()
	f.suite.Event(e)
	t1 := mono()
	f.rec.Event(e)
	t2 := mono()
	f.dig.Event(e)
	t3 := mono()
	f.suiteT += t1 - t0
	f.recT += t2 - t1
	f.digT += t3 - t2
	f.n++
}

// record books the fan-out's sums as aggregate spans under the engine span
// that emitted them, each interval less the one clock read it brackets.
func (f *timedFanout) record(tr *tracer, item, engineSpan int) {
	c := time.Duration(f.n) * tr.clock.read
	sink := tr.agg("telemetry.sink", item, engineSpan, f.suiteT+f.recT-2*c, f.n)
	tr.agg("check.suite", item, sink, f.suiteT-c, f.n)
	tr.agg("obs.recorder", item, sink, f.recT-c, f.n)
	tr.agg("check.digest", item, engineSpan, f.digT-c, f.n)
}

var _ telemetry.Sink = (*timedFanout)(nil)
