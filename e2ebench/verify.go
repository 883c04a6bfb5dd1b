package main

import (
	"fmt"
	"math"
	"time"

	"flexric/internal/nvs"
	"flexric/internal/sm"
	"flexric/internal/tsdb"
)

// check is the outcome of the post-run correctness check: operations
// attempted and failed, with a line per mismatch.
type check struct {
	attempted, failed int
	notes             []string
}

func (c *check) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// expectedAppends is the tsdb appends a cell's monitoring SM stream
// must have produced: every UE entry of every report, times the fields
// the monitor stores per entry.
func (l *loop) expectedAppends(c *cellState, f monFn) uint64 {
	return uint64(l.reports) * uint64(c.ues) * uint64(f.fields)
}

// drained reports whether the monitor has received every indication
// the SMs emitted and the tsdb holds every sample they carry.
func (l *loop) drained() bool {
	if l.ingested() != l.emitted {
		return false
	}
	for _, c := range l.cs {
		for i, f := range monFns {
			if l.w.Layers&f.layer != 0 && c.streams[i].appends.Load() != l.expectedAppends(c, f) {
				return false
			}
		}
	}
	return true
}

// drain waits, with stepping stopped, until ingest has caught up or has
// made no progress for two seconds.
func (l *loop) drain() {
	last, idle := l.totalAppends()+l.ingested(), time.Now()
	for !l.drained() && time.Since(idle) < 2*time.Second {
		time.Sleep(5 * time.Millisecond)
		if n := l.totalAppends() + l.ingested(); n != last {
			last, idle = n, time.Now()
		}
	}
}

// verify checks the loop's outputs after the drain:
//   - indications emitted == indications the monitor received;
//   - tsdb appends == Σ UE entries × fields, per agent and SM;
//   - the newest sample of every MAC field, for a seeded sample of UEs,
//     equals that UE's MACStats() at the final report slot;
//   - after an acked slice configuration, cell.Slices() returns it.
func (l *loop) verify() check {
	var ck check
	got := l.ingested()
	ck.attempted += int(l.emitted)
	if got != l.emitted {
		diff := int64(l.emitted) - int64(got)
		ck.failed += int(max(diff, -diff)) - 1
		ck.fail("indications: emitted %d, monitor received %d", l.emitted, got)
	}
	for _, c := range l.cs {
		for i, f := range monFns {
			if l.w.Layers&f.layer == 0 {
				continue
			}
			ck.attempted++
			if n, want := c.streams[i].appends.Load(), l.expectedAppends(c, f); n != want {
				ck.fail("cell %d fn %d: %d tsdb appends, want %d", c.idx, f.id, n, want)
			}
		}
		l.checkLastReport(c, &ck)
	}
	l.checkSliceControl(&ck)
	return ck
}

// checkLastReport compares the newest tsdb sample of each MAC field
// with the cell's state; stepping stopped on a report slot, so the two
// must agree exactly.
func (l *loop) checkLastReport(c *cellState, ck *check) {
	cell := l.cells[c.idx]
	var buf []tsdb.Sample
	for _, rnti := range l.checkRNTIs[c.idx] {
		u := cell.UE(rnti)
		if u == nil {
			ck.attempted++
			ck.fail("cell %d: UE %d missing", c.idx, rnti)
			continue
		}
		m := u.MACStats()
		want := [5]float64{float64(uint8(m.CQI)), float64(uint8(m.MCS)),
			float64(m.RBsUsed), float64(m.TxBits), m.ThroughputBps}
		fields := [5]tsdb.Field{tsdb.FieldCQI, tsdb.FieldMCS, tsdb.FieldRBsUsed,
			tsdb.FieldTxBits, tsdb.FieldThroughputBps}
		for i, f := range fields {
			ck.attempted++
			k := tsdb.SeriesKey{Agent: uint32(c.agentID), Fn: sm.IDMACStats, UE: rnti, Field: f}
			buf = l.store.LastK(k, 1, buf)
			if len(buf) != 1 {
				ck.fail("cell %d UE %d %v: no sample", c.idx, rnti, f)
				continue
			}
			if v := buf[0].V; v != want[i] && !(math.IsNaN(v) && math.IsNaN(want[i])) {
				ck.fail("cell %d UE %d %v: tsdb %v, cell %v", c.idx, rnti, f, v, want[i])
			}
		}
	}
}

// checkSliceControl sends every cell one more acked configuration and
// checks that the cell reports exactly that configuration afterwards.
func (l *loop) checkSliceControl(ck *check) {
	payload := sm.EncodeSliceControl(l.w.smScheme(), &sm.SliceControl{Op: sm.OpConfigureSlices, Slices: l.verifySplit})
	want := sm.ToNVS(l.verifySplit)
	for _, c := range l.cs {
		ck.attempted++
		done := make(chan error, 1)
		if err := l.srv.Control(c.agentID, sm.IDSliceCtrl, nil, payload, true, func(_ []byte, err error) { done <- err }); err != nil {
			ck.fail("cell %d: slice control: %v", c.idx, err)
			continue
		}
		select {
		case err := <-done:
			if err != nil {
				ck.fail("cell %d: slice control: %v", c.idx, err)
				continue
			}
		case <-time.After(5 * time.Second):
			ck.fail("cell %d: slice control never acked", c.idx)
			continue
		}
		if got := l.cells[c.idx].Slices(); !sameSlices(got, want) {
			ck.fail("cell %d: slices %+v after ack, want %+v", c.idx, got, want)
		}
	}
}

func sameSlices(a, b []nvs.Config) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
