package ctrl_test

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"flexric/internal/agent"
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/ran"
	"flexric/internal/sm"
	"flexric/internal/telemetry"
	"flexric/internal/tsdb"
)

// startShardedBS is startBS with a multi-shard cell, so the monitoring
// SMs emit one report payload per shard.
func startShardedBS(t *testing.T, addr string, nodeID uint64, scheme sm.Scheme, shards int) *bs {
	t.Helper()
	cell, err := ran.NewCellWithOptions(ran.PHYConfig{RAT: ran.RAT4G, NumRB: 25},
		ran.CellOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	a := agent.New(agent.Config{
		NodeID: e2ap.GlobalE2NodeID{PLMN: e2ap.PLMN{MCC: 208, MNC: 95}, Type: e2ap.NodeENB, NodeID: nodeID},
	})
	b := &bs{cell: cell, agent: a, stop: make(chan struct{}), done: make(chan struct{})}
	b.fns = []agent.RANFunction{
		sm.NewMACStats(cell, scheme, a),
		sm.NewRLCStats(cell, scheme, a),
		sm.NewPDCPStats(cell, scheme, a),
	}
	for _, fn := range b.fns {
		if err := a.RegisterFunction(fn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Connect(addr); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(b.done)
		for {
			select {
			case <-b.stop:
				return
			default:
			}
			cell.Step(1)
			sm.TickAll(b.fns, cell.Now())
			time.Sleep(30 * time.Microsecond)
		}
	}()
	t.Cleanup(func() {
		close(b.stop)
		<-b.done
		a.Close()
	})
	return b
}

// TestMonitorMergesShardReports: a 4-shard cell reports each layer as
// one payload per shard; the monitor's latest-report view must merge
// the shards of one cell time back into the full UE list, through the
// ingest pipeline path (IngestWorkers > 0).
func TestMonitorMergesShardReports(t *testing.T) {
	s, addr := startSrv(t)
	db := tsdb.New(tsdb.Config{Capacity: 256})
	mon := ctrl.NewMonitor(s, ctrl.MonitorConfig{
		Scheme: sm.SchemeFB, PeriodMS: 1, Decode: true,
		TSDB: db, IngestWorkers: 2,
	})
	// Shutdown order matters with IngestWorkers: the server must stop
	// delivering before the pipes close. Both Closes are idempotent, so
	// the startSrv cleanup's second s.Close is a no-op.
	defer func() {
		s.Close()
		mon.Close()
	}()
	b := startShardedBS(t, addr, 1, sm.SchemeFB, 4)

	const nUE = 8
	for i := 1; i <= nUE; i++ {
		if _, err := b.cell.Attach(uint16(i), "", "208.95", 20); err != nil {
			t.Fatal(err)
		}
		if err := b.cell.AddTraffic(uint16(i), &ran.Saturating{
			Flow: ran.FiveTuple{DstIP: uint32(i)}, RateBytesPerMS: 500}); err != nil {
			t.Fatal(err)
		}
	}
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	id := s.Agents()[0].ID

	fullReport := func(rep *sm.MACReport) bool {
		if rep == nil || len(rep.UEs) != nUE {
			return false
		}
		seen := map[uint16]bool{}
		for _, u := range rep.UEs {
			if seen[u.RNTI] {
				return false // duplicate: merged across cell times
			}
			seen[u.RNTI] = true
		}
		return true
	}
	await(t, "merged MAC report with all UEs exactly once", func() bool {
		return fullReport(mon.MAC(id))
	})
	await(t, "merged RLC report", func() bool {
		rep := mon.RLC(id)
		return rep != nil && len(rep.UEs) == nUE
	})
	await(t, "merged PDCP report", func() bool {
		rep := mon.PDCP(id)
		return rep != nil && len(rep.UEs) == nUE
	})
	// The pipeline must have ingested every shard's UEs into the store
	// exactly once per report period: every UE has a series.
	await(t, "tsdb series for all UEs", func() bool {
		for i := 1; i <= nUE; i++ {
			k := tsdb.SeriesKey{Agent: uint32(id), Fn: sm.IDMACStats, UE: uint16(i), Field: tsdb.FieldTxBits}
			if len(db.LastK(k, 1, nil)) == 0 {
				return false
			}
		}
		return true
	})
}

// TestMonitorEmptyCellHeartbeat: a cell with no attached UEs still
// reports once per period (the empty heartbeat payload), so liveness
// monitoring keeps working.
func TestMonitorEmptyCellHeartbeat(t *testing.T) {
	s, addr := startSrv(t)
	mon := ctrl.NewMonitor(s, ctrl.MonitorConfig{Scheme: sm.SchemeFB, PeriodMS: 1, Decode: true})
	startShardedBS(t, addr, 1, sm.SchemeFB, 4)
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	id := s.Agents()[0].ID
	await(t, "empty MAC heartbeat", func() bool {
		rep := mon.MAC(id)
		return rep != nil && len(rep.UEs) == 0
	})
}

// TestMonitorCountsDecodeErrors: a report whose SM payload fails to
// decode is dropped, and the drop is counted on
// ctrl.monitor.decode_errors. The agent's MAC function sends one
// corrupt payload (a flat UE count far beyond the payload's bytes)
// ahead of its first valid report; both travel the same ingest
// pipeline in order, so once the valid report is visible the corrupt
// one has been handled.
func TestMonitorCountsDecodeErrors(t *testing.T) {
	if !telemetry.Enabled {
		t.Skip("telemetry compiled out")
	}
	decodeErrors := telemetry.NewCounter("ctrl.monitor.decode_errors")
	before := decodeErrors.Load()

	s, addr := startSrv(t)
	mon := ctrl.NewMonitor(s, ctrl.MonitorConfig{
		Scheme: sm.SchemeFB, PeriodMS: 1, Decode: true, Layers: ctrl.MonMAC,
		TSDB: tsdb.New(tsdb.Config{Capacity: 16}), IngestWorkers: 1,
	})
	defer func() {
		s.Close()
		mon.Close()
	}()

	valid := sm.EncodeMACReport(sm.SchemeFB, &sm.MACReport{CellTimeMS: 1, UEs: []sm.MACUEEntry{{RNTI: 1, CQI: 9}}})
	corrupt := append([]byte(nil), valid...)
	// Follow the flat layout after the scheme byte — root position,
	// root vtable, slot 1's reference — to the UE vector's u32 count.
	body := corrupt[1:]
	root := binary.LittleEndian.Uint32(body)
	vt := binary.LittleEndian.Uint32(body[root:])
	off := binary.LittleEndian.Uint16(body[vt+4:])
	vec := binary.LittleEndian.Uint32(body[root+uint32(off):])
	binary.LittleEndian.PutUint32(body[vec:], 0xFFFFFFFF)
	if _, err := sm.DecodeMACReport(corrupt); err == nil {
		t.Fatal("patched payload still decodes")
	}
	var sent atomic.Bool
	mac := sm.NewStatsFunction(sm.IDMACStats, "1.3.6.1.4.1.53148.1.2.2.142",
		func(agent.ControllerID, int64) [][]byte {
			if sent.CompareAndSwap(false, true) {
				return [][]byte{corrupt, valid}
			}
			return [][]byte{valid}
		})
	a := agent.New(agent.Config{
		NodeID: e2ap.GlobalE2NodeID{PLMN: e2ap.PLMN{MCC: 208, MNC: 95}, Type: e2ap.NodeENB, NodeID: 1},
	})
	if err := a.RegisterFunction(mac); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Connect(addr); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	await(t, "agent", func() bool { return len(s.Agents()) == 1 })
	id := s.Agents()[0].ID
	for now := int64(0); mon.MAC(id) == nil; now++ {
		if now > 10000 {
			t.Fatal("no valid MAC report reached the monitor")
		}
		mac.Tick(now)
		time.Sleep(time.Millisecond)
	}
	if got := decodeErrors.Load() - before; got != 1 {
		t.Fatalf("decode_errors went up by %d, want 1", got)
	}
}
