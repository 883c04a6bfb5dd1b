package main

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flexric/internal/sm"
	"flexric/internal/telemetry"
	"flexric/internal/tsdb"
)

// window is what one measured interval of the loop produced.
type window struct {
	start, end time.Time
	slots      int64
	ueSlots    float64
	// rates holds the real-time factor of each rateEvery sub-window;
	// their median resists short bursts of interference on the box.
	rates []float64
	// r0 and r1 bound the report indices ticked inside the window;
	// freshness is paired up after the drain, when all are visible.
	r0, r1 int

	tick      []int64 // one sm.TickAll per agent per report slot
	ctrlRTT   []int64 // due time → ack callback
	query     []int64 // due time → return
	querySvc  []int64 // Aggregate batch service time
	ctrlSvc   []int64 // server.Control call → ack callback
	genLate   []int64 // generator start − due
	pacerLate []int64 // paced stepping: slot start − due

	slotP50, slotP99 int64
	ranBusy          time.Duration // Fleet.Step minus the after-slot hook
	indications      uint64
	bytes            uint64
	appends          uint64
	backlogMax       int64
	dispatch         telemetry.HistogramSnapshot
	dropped          uint64
	gcCPU, allCPU    float64
	procCPU          time.Duration // process user+system CPU time
	allocs           uint64

	ctrlSent, ctrlFailed, querySent, queryFailed int
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// rateEvery is the sub-window over which the real-time factor is taken.
const rateEvery = time.Second

// rtFactor is the median sub-window real-time factor (simulated ms per
// wall ms), or the whole window's when it is shorter than one
// sub-window.
func (w *window) rtFactor() float64 {
	if len(w.rates) == 0 {
		return float64(w.slots) / (w.seconds() * 1000)
	}
	r := append([]float64(nil), w.rates...)
	sort.Float64s(r)
	return r[(len(r)-1)/2]
}

// runtimeSample reads the runtime counters a window needs.
func runtimeSample() (gcCPU, allCPU float64, allocs uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

// processCPU returns the user plus system CPU time the process has
// used. Unlike wall time it does not grow while the virtual CPUs are
// descheduled by the host.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (l *loop) totalAppends() uint64 {
	var n uint64
	for _, c := range l.cs {
		for i := range c.streams {
			n += c.streams[i].appends.Load()
		}
	}
	return n
}

// measure runs the loop for at least d and at least minSlots slots and
// returns the window's numbers. The stepping runs on the caller's
// goroutine; the xApp generator runs beside it. The window always ends
// on a report slot so the verifier can compare the last report with
// the cells' state.
func (l *loop) measure(d time.Duration, minSlots int64, closeAgentAfter time.Duration) *window {
	w := &window{}
	l.fleet.ResetSlotStats()
	l.tickNS = l.tickNS[:0]
	l.hookNS = 0
	snap := telemetry.TakeSnapshot()
	disp0 := snap.Histogram("server.dispatch_latency")
	drop0 := snap.Counter("server.indications_dropped")
	ind0, by0 := l.mon.Counters()
	app0 := l.totalAppends()
	gc0, all0, al0 := runtimeSample()
	cpu0 := processCPU()
	slot0 := l.fleet.Now()
	w.r0 = l.reports

	ctx, cancel := context.WithCancel(context.Background())
	var gen genResult
	var wg sync.WaitGroup
	w.start = time.Now()
	deadline := w.start.Add(d)
	wg.Add(1)
	go l.do("gen", func() {
		defer wg.Done()
		l.generate(ctx, w.start, &gen)
	})

	var busy time.Duration
	period := int64(l.w.PeriodMS)
	const chunk = 10 // closed-loop stepping granularity; divides every period
	faulted := closeAgentAfter <= 0
	cp, cpSlot := w.start, slot0 // rate checkpoint
	for k := int64(1); ; k++ {
		atReport := (l.fleet.Now()-1)%period == 0
		if atReport && !time.Now().Before(deadline) && l.fleet.Now()-slot0 >= minSlots {
			break
		}
		n := chunk
		if l.w.Paced {
			// Open loop: one slot per wall millisecond, catching up
			// without sleeping when behind.
			due := w.start.Add(time.Duration(k) * time.Millisecond)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			w.pacerLate = append(w.pacerLate, int64(time.Since(due)))
			n = 1
		}
		t := time.Now()
		h0 := l.hookNS
		l.step(int(n))
		stepped := time.Now()
		busy += stepped.Sub(t) - time.Duration(l.hookNS-h0)
		l.spans.record(0, 0, "ran.Fleet.Step", t, stepped)
		if !l.w.Paced && (l.fleet.Now()-1)%period == 0 {
			// Closed loop: at most one report may be missing from
			// the tsdb while the fleet steps on, so backpressure
			// reaches the stepper through the loop itself and not
			// through autotuned socket buffers.
			l.awaitIngest(l.reports - 1)
			l.spans.record(0, 0, "loop.await_ingest", stepped, time.Now())
		}
		w.backlogMax = max(w.backlogMax, int64(l.emitted)-int64(l.ingested()))
		if !faulted && t.Sub(w.start) >= closeAgentAfter {
			l.agents[0].Close()
			faulted = true
		}
		if now := time.Now(); now.Sub(cp) >= rateEvery {
			w.rates = append(w.rates, float64(l.fleet.Now()-cpSlot)/(float64(now.Sub(cp))/1e6))
			cp, cpSlot = now, l.fleet.Now()
		}
	}
	w.end = time.Now()
	cancel()
	wg.Wait()
	gen.wait(5 * time.Second)

	w.slots = l.fleet.Now() - slot0
	w.ueSlots = float64(w.slots) * float64(cells*l.w.UEsPerCell)
	w.r1 = l.reports
	w.tick = append([]int64(nil), l.tickNS...)
	w.slotP50, w.slotP99, _ = l.fleet.SlotLatencyNS()
	w.ranBusy = busy
	ind1, by1 := l.mon.Counters()
	w.indications, w.bytes = ind1-ind0, by1-by0
	w.appends = l.totalAppends() - app0
	snap = telemetry.TakeSnapshot()
	w.dispatch = histDelta(snap.Histogram("server.dispatch_latency"), disp0)
	w.dropped = snap.Counter("server.indications_dropped") - drop0
	gc1, all1, al1 := runtimeSample()
	w.procCPU = processCPU() - cpu0
	w.gcCPU, w.allCPU, w.allocs = gc1-gc0, all1-all0, al1-al0
	w.ctrlRTT = gen.ctrlRTT.snapshot()
	w.query = gen.query.snapshot()
	w.querySvc = gen.querySvc.snapshot()
	w.ctrlSvc = gen.ctrlSvc.snapshot()
	w.genLate = gen.late.snapshot()
	w.ctrlSent = int(gen.ctrlSent.Load())
	w.ctrlFailed = int(gen.ctrlSent.Load() - gen.ctrlOK.Load())
	w.querySent = int(gen.querySent.Load())
	w.queryFailed = int(gen.queryFailed.Load())
	return w
}

// genResult collects the xApp generator's outcomes.
type genResult struct {
	ctrlRTT, ctrlSvc, query, querySvc, late samples
	ctrlSent, ctrlOK, ctrlDone              atomic.Int64
	querySent, queryFailed                  atomic.Int64
}

// wait blocks until every control sent has been answered, or d passes;
// unanswered controls count as failed.
func (g *genResult) wait(d time.Duration) {
	waitUntil(d, func() bool { return g.ctrlDone.Load() == g.ctrlSent.Load() })
}

// generate is the open-loop xApp: slice-control requests at ctrlPerS
// alternating two capacity splits per cell, and SLA queries at
// queryPerS, each an Aggregate over the trailing window of
// throughput_bps for QueryUEs UEs of one cell. Controls and queries
// run on goroutines of their own, so a query in progress never delays
// a control. It returns when ctx is done and both have stopped.
func (l *loop) generate(ctx context.Context, t0 time.Time, g *genResult) {
	flips := make([]int, cells)
	copy(flips, l.ctrlPhase)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		l.arrivals(ctx, t0, ctrlPerS, l.genSeed, g, func(i int, due time.Time) {
			cell := l.ctrlCells[i%len(l.ctrlCells)]
			split := l.splits[flips[cell]%2]
			flips[cell]++
			l.control(cell, split, due, g)
		})
	}()
	go func() {
		defer wg.Done()
		l.arrivals(ctx, t0, queryPerS, l.genSeed+1, g, func(i int, due time.Time) {
			l.query(l.queryCells[i%len(l.queryCells)], due, g)
		})
	}()
	wg.Wait()
}

// arrivals calls op for Poisson arrivals at perS per second from t0
// (seeded), passing each operation's due time, until ctx is done.
// Arrivals land at every phase of the report cycle; an operation that
// starts late is still timed from its due time, so a stall shows in
// the operations behind it.
func (l *loop) arrivals(ctx context.Context, t0 time.Time, perS int, seed int64, g *genResult, op func(i int, due time.Time)) {
	rng := rand.New(rand.NewSource(seed))
	var next time.Duration
	for i := 0; ; i++ {
		next += time.Duration(rng.ExpFloat64() / float64(perS) * float64(time.Second))
		due := t0.Add(next)
		if !sleepUntil(ctx, due) {
			return
		}
		g.late.add(time.Since(due))
		op(i, due)
	}
}

// sleepUntil waits until due and reports true, or returns false once
// ctx is done. It sleeps until a millisecond before due and then
// yields the processor until due arrives: a Go timer fires up to a
// millisecond late when every P is idle, and that lateness would be
// timed as part of the operation.
func sleepUntil(ctx context.Context, due time.Time) bool {
	if wait := time.Until(due) - time.Millisecond; wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return false
		case <-t.C:
		}
	}
	for ctx.Err() == nil {
		if !time.Now().Before(due) {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// control sends one acked slice configuration to a cell's agent.
func (l *loop) control(cell int, split []sm.SliceParams, due time.Time, g *genResult) {
	payload := sm.EncodeSliceControl(l.w.smScheme(), &sm.SliceControl{Op: sm.OpConfigureSlices, Slices: split})
	g.ctrlSent.Add(1)
	start := time.Now()
	spans := l.spans
	err := l.srv.Control(l.cs[cell].agentID, sm.IDSliceCtrl, nil, payload, true, func(_ []byte, err error) {
		end := time.Now()
		if err == nil {
			g.ctrlOK.Add(1)
			g.ctrlRTT.add(end.Sub(due))
			g.ctrlSvc.add(end.Sub(start))
		}
		g.ctrlDone.Add(1)
		root := spans.record(0, 0, "xapp.control", due, end)
		spans.record(root, root, "server.Control", start, end)
	})
	if err != nil {
		g.ctrlDone.Add(1)
	}
}

// query runs one SLA evaluation: a trailing-window aggregate of
// throughput_bps for every queried UE of a cell. It fails when a UE's
// window is empty or the aggregate is inconsistent.
func (l *loop) query(cell int, due time.Time, g *genResult) {
	g.querySent.Add(1)
	start := time.Now()
	to := start.UnixNano()
	from := to - int64(l.w.QueryWindowMS)*int64(time.Millisecond)
	k := tsdb.SeriesKey{Agent: uint32(l.cs[cell].agentID), Fn: sm.IDMACStats, Field: tsdb.FieldThroughputBps}
	bad := false
	for rnti := 1; rnti <= l.w.QueryUEs; rnti++ {
		k.UE = uint16(rnti)
		agg, ok := l.store.Aggregate(k, from, to)
		if !ok || !aggConsistent(agg) {
			bad = true
		}
	}
	end := time.Now()
	if bad {
		g.queryFailed.Add(1)
	}
	g.query.add(end.Sub(due))
	g.querySvc.add(end.Sub(start))
	root := l.spans.record(0, 0, "xapp.query", due, end)
	l.spans.record(root, root, "tsdb.Aggregate", start, end)
}

func aggConsistent(a tsdb.Agg) bool {
	eps := 1e-9 * (abs(a.Max) + abs(a.Min) + 1)
	return a.Count > 0 && a.Min <= a.Max && a.Mean >= a.Min-eps && a.Mean <= a.Max+eps
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// freshness pairs each report ticked in [r0, r1) with the time it
// became fully visible: report emit → last sample in the tsdb.
func (l *loop) freshness(r0, r1 int) []int64 {
	var out []int64
	for _, c := range l.cs {
		c.mu.Lock()
		for k := r0; k < r1 && k < len(c.visible) && k < len(c.emits); k++ {
			out = append(out, int64(c.visible[k].Sub(c.emits[k])))
		}
		c.mu.Unlock()
	}
	return out
}

// recordReportSpans adds, for a traced window, one "loop.report" span
// per report (emit → visible) with its "sm.TickAll" child.
func (l *loop) recordReportSpans(r0, r1 int) {
	for _, c := range l.cs {
		c.mu.Lock()
		for k := r0; k < r1 && k < len(c.visible) && k < len(c.emits); k++ {
			root := l.spans.record(0, 0, "loop.report", c.emits[k], c.visible[k])
			l.spans.record(root, root, "sm.TickAll", c.emits[k], c.tickEnds[k])
		}
		c.mu.Unlock()
	}
}
