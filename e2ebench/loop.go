package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/nvs"
	"flexric/internal/ran"
	"flexric/internal/server"
	"flexric/internal/sm"
	"flexric/internal/transport"
	"flexric/internal/tsdb"
)

// monFn is one monitoring SM the loop can subscribe to: its function
// ID, the number of tsdb fields the monitor appends per UE entry and
// the last of them, which closes the entry.
type monFn struct {
	layer  ctrl.MonitorLayers
	id     uint16
	fields int
	last   tsdb.Field
}

var monFns = [3]monFn{
	{ctrl.MonMAC, sm.IDMACStats, 5, tsdb.FieldThroughputBps},
	{ctrl.MonRLC, sm.IDRLCStats, 9, tsdb.FieldSojournMS},
	{ctrl.MonPDCP, sm.IDPDCPStats, 2, tsdb.FieldTxBytes},
}

// cellState is the benchmark's view of one cell and its agent.
type cellState struct {
	idx     int
	agentID server.AgentID
	ues     int
	// streams counts tsdb appends per monitoring SM, in monFns order.
	streams [3]streamCount

	mu sync.Mutex
	// emits and tickEnds hold the wall time at which the k-th report
	// tick started and returned; visible holds the time its last sample
	// reached the tsdb.
	emits    []time.Time
	tickEnds []time.Time
	visible  []time.Time
}

// streamCount counts one (agent, SM) stream's tsdb appends: all of
// them, the UE entries whose closing field was appended, and the
// reports whose every entry is in the tsdb. The monitor ingests the
// streams of one cell on different workers, so each streamCount fills
// a cache line of its own.
type streamCount struct {
	appends atomic.Uint64
	entries atomic.Uint64
	done    atomic.Int64
	_       [40]byte
}

// loop is one assembled indication loop: two cells with one agent
// each, a controller with the monitoring iApp, and a tsdb.
type loop struct {
	w      workload
	labels bool     // set pprof layer labels (traced runs)
	spans  *spanLog // nil unless the current window is traced

	store  *tsdb.Store
	srv    *server.Server
	mon    *ctrl.Monitor
	cells  []*ran.Cell
	agents []*agent.Agent
	fns    [][]agent.RANFunction
	fleet  *ran.Fleet
	cs     []*cellState
	// byAgent maps a server.AgentID (the tsdb series agent) to its cell.
	// Written during setup, read-only once the append hook is installed.
	byAgent []*cellState

	subs []*sm.StatsFunction // monitoring SMs, to await subscriptions
	nsm  int                 // monitoring SMs per cell

	// Seeded inputs for the xApp generator and the verifier.
	splits      [2][]sm.SliceParams
	verifySplit []sm.SliceParams
	ctrlCells   []int
	ctrlPhase   []int
	queryCells  []int
	genSeed     int64
	checkRNTIs  [][]uint16

	// progress is signalled whenever a report stream completes.
	progress chan struct{}

	// State owned by the stepping goroutine.
	reports int    // report slots ticked
	emitted uint64 // indications emitted by the SMs
	hookNS  int64  // wall time spent in the after-slot hook
	tickNS  []int64
	ctxRAN  context.Context
	ctxSM   context.Context
}

// instances names pipe listeners uniquely within the process.
var instances atomic.Int64

// newLoop assembles the loop from the public constructors and returns
// once the first report of every cell is visible in the tsdb.
func newLoop(w workload, seed int64, labels bool) (*loop, error) {
	rng := rand.New(rand.NewSource(seed))
	l := &loop{w: w, labels: labels, progress: make(chan struct{}, 1),
		ctxRAN: context.Background(), ctxSM: context.Background()}
	if labels {
		l.ctxRAN = pprof.WithLabels(context.Background(), pprof.Labels("layer", "ran"))
		l.ctxSM = pprof.WithLabels(context.Background(), pprof.Labels("layer", "sm"))
	}
	ok := false
	defer func() {
		if !ok {
			l.close()
		}
	}()

	l.store = tsdb.New(tsdb.Config{Capacity: w.TSDBCapacity})
	l.srv = server.New(server.Config{Scheme: w.e2Scheme(), Transport: w.Transport})
	addr := "127.0.0.1:0"
	if w.Transport == transport.KindPipe {
		addr = fmt.Sprintf("e2ebench-%d-%d", os.Getpid(), instances.Add(1))
	}
	var err error
	l.do("server", func() { addr, err = l.srv.Start(addr) })
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	l.do("monitor", func() {
		l.mon = ctrl.NewMonitor(l.srv, ctrl.MonitorConfig{
			Scheme: w.smScheme(), PeriodMS: uint32(w.PeriodMS), Layers: w.Layers,
			Decode: true, TSDB: l.store, IngestWorkers: ingestWorkers,
		})
	})

	l.splits = [2][]sm.SliceParams{capacitySplit(0.7), capacitySplit(0.4)}
	l.verifySplit = capacitySplit(0.55)
	for ci := 0; ci < cells; ci++ {
		cell, err := l.buildCell(rng)
		if err != nil {
			return nil, err
		}
		l.cells = append(l.cells, cell)
		a := agent.New(agent.Config{
			NodeID: e2ap.GlobalE2NodeID{
				PLMN: e2ap.PLMN{MCC: 208, MNC: 95}, Type: e2ap.NodeENB, NodeID: uint64(ci + 1),
			},
			Scheme:    w.e2Scheme(),
			Transport: w.Transport,
		})
		var fns []agent.RANFunction
		for _, f := range monFns {
			if w.Layers&f.layer == 0 {
				continue
			}
			var st *sm.StatsFunction
			switch f.id {
			case sm.IDMACStats:
				st = sm.NewMACStats(cell, w.smScheme(), a)
			case sm.IDRLCStats:
				st = sm.NewRLCStats(cell, w.smScheme(), a)
			default:
				st = sm.NewPDCPStats(cell, w.smScheme(), a)
			}
			fns = append(fns, st)
			l.subs = append(l.subs, st)
		}
		l.nsm = len(fns)
		fns = append(fns, sm.NewSliceCtrl(cell, w.smScheme()))
		for _, fn := range fns {
			if err := a.RegisterFunction(fn); err != nil {
				return nil, err
			}
		}
		l.agents = append(l.agents, a)
		l.fns = append(l.fns, fns)
		l.do("agent", func() { _, err = a.Connect(addr) })
		if err != nil {
			return nil, fmt.Errorf("connect agent %d: %w", ci, err)
		}
		l.cs = append(l.cs, &cellState{idx: ci, ues: w.UEsPerCell})
	}
	if !waitUntil(10*time.Second, func() bool { return len(l.srv.Agents()) == cells }) {
		return nil, fmt.Errorf("only %d/%d agents connected", len(l.srv.Agents()), cells)
	}
	for _, info := range l.srv.Agents() {
		ci := int(info.NodeID.NodeID) - 1
		for int(info.ID) >= len(l.byAgent) {
			l.byAgent = append(l.byAgent, nil)
		}
		l.cs[ci].agentID = info.ID
		l.byAgent[info.ID] = l.cs[ci]
	}
	if !waitUntil(10*time.Second, func() bool {
		for _, st := range l.subs {
			if st.Subscriptions() == 0 {
				return false
			}
		}
		return true
	}) {
		return nil, fmt.Errorf("monitor subscriptions not admitted")
	}

	// Seeded generator and verifier inputs.
	l.ctrlCells = rng.Perm(cells)
	for range cells {
		l.ctrlPhase = append(l.ctrlPhase, rng.Intn(2))
	}
	l.genSeed = rng.Int63()
	for range 64 {
		l.queryCells = append(l.queryCells, rng.Intn(cells))
	}
	for range cells {
		perm := rng.Perm(w.UEsPerCell)
		var rntis []uint16
		for _, i := range perm[:min(16, len(perm))] {
			rntis = append(rntis, uint16(i+1))
		}
		l.checkRNTIs = append(l.checkRNTIs, rntis)
	}

	l.store.SetAppendHook(l.onAppend)
	l.do("ran", func() { l.fleet = ran.NewFleet(l.cells, 0, l.afterSlot) })
	// Slot 1 is the first report slot; setup ends when it is visible.
	l.step(1)
	if !waitUntil(10*time.Second, func() bool {
		return l.caughtUp(1)
	}) {
		return nil, fmt.Errorf("first report never reached the tsdb")
	}
	ok = true
	return l, nil
}

// buildCell creates one cell and attaches its UEs: IdlePct of them on
// a sparse CBR source with a seeded phase, the rest saturating; which
// UEs saturate is seeded too. The cell starts with the first slice
// split so the xApp's controls only ever swap between two splits.
func (l *loop) buildCell(rng *rand.Rand) (*ran.Cell, error) {
	w := l.w
	cell, err := ran.NewCellWithOptions(ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25, Band: 7},
		ran.CellOptions{Shards: shards})
	if err != nil {
		return nil, err
	}
	saturating := make([]bool, w.UEsPerCell)
	for _, i := range rng.Perm(w.UEsPerCell)[:w.UEsPerCell*(100-w.IdlePct)/100] {
		saturating[i] = true
	}
	for i := 0; i < w.UEsPerCell; i++ {
		u, err := cell.Attach(uint16(i+1), "", "208.95", 20)
		if err != nil {
			return nil, err
		}
		flow := ran.FiveTuple{DstIP: uint32(i + 1), DstPort: 5001, Proto: ran.ProtoUDP}
		if saturating[i] {
			u.AddSource(&ran.Saturating{Flow: flow, PktSize: 1500, RateBytesPerMS: 3000})
		} else {
			u.AddSource(&ran.CBR{Flow: flow, Size: 172, IntervalMS: 200, StartMS: rng.Int63n(200)})
		}
	}
	if err := cell.ConfigureSlices(sm.ToNVS(l.splits[0])); err != nil {
		return nil, err
	}
	return cell, nil
}

// capacitySplit is a two-slice NVS capacity configuration; every UE
// sits in slice 0.
func capacitySplit(share0 float64) []sm.SliceParams {
	return sm.ParamsFromNVS([]nvs.Config{
		{ID: 0, Kind: nvs.KindCapacity, Capacity: share0, UESched: "pf"},
		{ID: 1, Kind: nvs.KindCapacity, Capacity: 1 - share0, UESched: "pf"},
	})
}

// do runs f under a pprof layer label when labels are on, so the
// goroutines f starts inherit it.
func (l *loop) do(layer string, f func()) {
	if !l.labels {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("layer", layer), func(context.Context) { f() })
}

// step advances the fleet n slots on the calling goroutine.
func (l *loop) step(n int) {
	if l.labels {
		pprof.SetGoroutineLabels(l.ctxRAN)
	}
	l.fleet.Step(n)
}

// afterSlot is the fleet's after-slot hook: on every report slot it
// ticks each agent's SMs, timing the call and stamping the report.
func (l *loop) afterSlot(now int64) {
	if (now-1)%int64(l.w.PeriodMS) != 0 {
		return
	}
	t0 := time.Now()
	if l.labels {
		pprof.SetGoroutineLabels(l.ctxSM)
	}
	for i, c := range l.cs {
		start := time.Now()
		sm.TickAll(l.fns[i], now)
		end := time.Now()
		c.mu.Lock()
		c.emits = append(c.emits, start)
		c.tickEnds = append(c.tickEnds, end)
		c.mu.Unlock()
		l.tickNS = append(l.tickNS, int64(end.Sub(start)))
		// Every shard holds UEs and sends one report per SM.
		l.emitted += uint64(shards * l.nsm)
	}
	l.reports++
	if l.labels {
		pprof.SetGoroutineLabels(l.ctxRAN)
	}
	l.hookNS += int64(time.Since(t0))
}

// onAppend is the tsdb append hook: it counts appends per stream and
// marks a report of a stream complete when its closing-field appends
// reach a multiple of the cell's UE count. Completion of a MAC report
// stamps its visibility time and wakes a stepper waiting on ingest.
func (l *loop) onAppend(k tsdb.SeriesKey, _ int64, _ float64) {
	if int(k.Agent) >= len(l.byAgent) {
		return
	}
	c := l.byAgent[k.Agent]
	if c == nil {
		return
	}
	var i int
	switch k.Fn {
	case sm.IDMACStats:
		i = 0
	case sm.IDRLCStats:
		i = 1
	case sm.IDPDCPStats:
		i = 2
	default:
		return
	}
	st := &c.streams[i]
	st.appends.Add(1)
	if k.Field != monFns[i].last || st.entries.Add(1)%uint64(c.ues) != 0 {
		return
	}
	st.done.Add(1)
	if i == 0 {
		now := time.Now()
		c.mu.Lock()
		c.visible = append(c.visible, now)
		c.mu.Unlock()
	}
	select {
	case l.progress <- struct{}{}:
	default:
	}
}

// caughtUp reports whether every stream of every cell has all reports
// up to and including report n in the tsdb.
func (l *loop) caughtUp(n int) bool {
	for _, c := range l.cs {
		for i, f := range monFns {
			if l.w.Layers&f.layer != 0 && c.streams[i].done.Load() < int64(n) {
				return false
			}
		}
	}
	return true
}

// awaitIngest blocks until report n is in the tsdb for every stream,
// or ingest has made no progress for a second (a lost agent).
func (l *loop) awaitIngest(n int) {
	for !l.caughtUp(n) {
		select {
		case <-l.progress:
		case <-time.After(time.Second):
			return
		}
	}
}

// ingested returns the indications the monitor has received.
func (l *loop) ingested() uint64 {
	n, _ := l.mon.Counters()
	return n
}

// close tears the loop down: stop stepping, close agents, then the
// server, then the monitor's ingest pipelines.
func (l *loop) close() {
	if l.fleet != nil {
		l.fleet.Close()
	}
	for _, a := range l.agents {
		a.Close()
	}
	if l.srv != nil {
		l.srv.Close()
	}
	if l.mon != nil {
		l.mon.Close()
	}
	if l.store != nil {
		l.store.SetAppendHook(nil)
	}
}

// waitUntil polls cond until it holds or d passes. It spins, yielding
// the processor, for the first 100 ms: a Go timer sleep fires up to a
// millisecond late when every P is idle, which would add that much
// noise to each set-up step it waits on.
func waitUntil(d time.Duration, cond func() bool) bool {
	start := time.Now()
	for {
		if cond() {
			return true
		}
		waited := time.Since(start)
		if waited > d {
			return false
		}
		if waited < 100*time.Millisecond {
			runtime.Gosched()
		} else {
			time.Sleep(time.Millisecond)
		}
	}
}
