package tsdb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// Row shapes of the monitoring SMs, as ctrl.Monitor appends them.
var (
	rowMAC  = []Field{FieldCQI, FieldMCS, FieldRBsUsed, FieldTxBits, FieldThroughputBps}
	rowRLC  = []Field{FieldTxPackets, FieldTxBytes, FieldRxPackets, FieldRxBytes, FieldDropPackets, FieldDropBytes, FieldBufferBytes, FieldBufferPkts, FieldSojournMS}
	rowPDCP = []Field{FieldTxPackets, FieldTxBytes}
)

// hookRec is one AppendHook observation.
type hookRec struct {
	k  SeriesKey
	ts int64
	v  float64
}

// recordHook installs a hook on s that collects every observation.
func recordHook(s *Store) *[]hookRec {
	var mu sync.Mutex
	var got []hookRec
	s.SetAppendHook(func(k SeriesKey, ts int64, v float64) {
		mu.Lock()
		got = append(got, hookRec{k, ts, v})
		mu.Unlock()
	})
	return &got
}

// sortedRecs returns recs ordered by key, then timestamp, then value:
// the multiset in canonical order.
func sortedRecs(recs []hookRec) []hookRec {
	out := append([]hookRec(nil), recs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.k != b.k {
			return keyLess(a.k, b.k)
		}
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		return a.v < b.v
	})
	return out
}

// rowWorkload feeds the same seeded stream of report rows to byRow
// through AppendRow and to byField through one Append per field, and
// returns every series key it wrote. Three agents report MAC, RLC and
// PDCP rows for six UEs each at a jittered 1 ms period; every fourth
// report carries only a prefix of its SM's fields, so rows also gain
// columns after they are created.
func rowWorkload(seed int64, reports int, byRow, byField *Store) []SeriesKey {
	rng := rand.New(rand.NewSource(seed))
	type sm struct {
		fn     uint16
		fields []Field
	}
	sms := []sm{{142, rowMAC}, {143, rowRLC}, {144, rowPDCP}}
	keys := map[SeriesKey]bool{}
	ts := int64(0)
	for r := 0; r < reports; r++ {
		ts += 1e6 + rng.Int63n(2e5)
		agent := uint32(rng.Intn(3))
		m := sms[rng.Intn(len(sms))]
		fields := m.fields
		if r%4 == 0 {
			fields = fields[:1+rng.Intn(len(fields))]
		}
		vs := make([]float64, len(fields))
		for ue := uint16(1); ue <= 6; ue++ {
			for i := range vs {
				vs[i] = math.Round(rng.NormFloat64()*1e4) / 8
			}
			byRow.AppendRow(agent, m.fn, ue, ts, fields, vs)
			for i, f := range fields {
				k := SeriesKey{Agent: agent, Fn: m.fn, UE: ue, Field: f}
				byField.Append(k, ts, vs[i])
				keys[k] = true
			}
		}
	}
	out := make([]SeriesKey, 0, len(keys))
	for k := range keys {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i], out[j]) })
	return out
}

// compareStores checks that every query answers identically on a and
// b for every key in keys.
func compareStores(t *testing.T, label string, a, b *Store, keys []SeriesKey) {
	t.Helper()
	if na, nb := a.NumSeries(), b.NumSeries(); na != nb || na != len(keys) {
		t.Fatalf("%s: NumSeries %d vs %d, want %d", label, na, nb, len(keys))
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("%s: Stats diverge:\n%+v\n%+v", label, sa, sb)
	}
	if la, lb := a.List(-1, 0), b.List(-1, 0); !reflect.DeepEqual(la, lb) {
		t.Fatalf("%s: List diverges (%d vs %d series)", label, len(la), len(lb))
	}
	var end int64
	for _, k := range keys {
		if l := a.LastK(k, 1, nil); len(l) == 1 && l[0].TS > end {
			end = l[0].TS
		}
	}
	for _, k := range keys {
		if la, lb := a.LastK(k, 1<<20, nil), b.LastK(k, 1<<20, nil); !reflect.DeepEqual(la, lb) {
			t.Fatalf("%s %+v: LastK diverges (%d vs %d samples)", label, k, len(la), len(lb))
		}
		if la, lb := a.LastK(k, 7, nil), b.LastK(k, 7, nil); !reflect.DeepEqual(la, lb) {
			t.Fatalf("%s %+v: LastK(7) diverges", label, k)
		}
		if ra, rb := a.Range(k, end/3, end, nil), b.Range(k, end/3, end, nil); !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%s %+v: Range diverges (%d vs %d samples)", label, k, len(ra), len(rb))
		}
		for _, from := range []int64{0, end / 2} {
			aa, oka := a.Aggregate(k, from, end)
			ab, okb := b.Aggregate(k, from, end)
			if oka != okb || aa != ab {
				t.Fatalf("%s %+v: Aggregate[%d,%d] diverges:\n%+v\n%+v", label, k, from, end, aa, ab)
			}
			pa, oka := a.PartialAggregate(k, from, end)
			pb, okb := b.PartialAggregate(k, from, end)
			if oka != okb || !reflect.DeepEqual(pa, pb) {
				t.Fatalf("%s %+v: PartialAggregate[%d,%d] diverges", label, k, from, end)
			}
		}
		if wa, wb := a.Window(k, 0, end+1, 1e8), b.Window(k, 0, end+1, 1e8); !reflect.DeepEqual(wa, wb) {
			t.Fatalf("%s %+v: Window diverges", label, k)
		}
	}
}

// TestAppendRowEquivalence: a store fed report rows through AppendRow
// answers every query exactly like one fed the same samples through
// per-field Append — with compression and age retention each on and
// off — round-trips through a snapshot to the same answers, shows the
// append hook the same multiset of samples, and evicts every row.
func TestAppendRowEquivalence(t *testing.T) {
	for _, cfg := range []Config{
		{Capacity: 64},
		{Capacity: 64, MaxAge: 150 * time.Millisecond},
		{Capacity: 64, Compress: true, MaxChunks: 2, Tier1Cap: 16, Tier2Cap: 4},
		{Capacity: 64, Compress: true, MaxChunks: 2, Tier1Cap: 16, Tier2Cap: 4, MaxAge: 150 * time.Millisecond},
	} {
		label := fmt.Sprintf("compress=%v maxage=%v", cfg.Compress, cfg.MaxAge)
		byRow, byField := New(cfg), New(cfg)
		rowHook, fieldHook := recordHook(byRow), recordHook(byField)
		keys := rowWorkload(11, 2000, byRow, byField)
		byRow.SetAppendHook(nil)
		byField.SetAppendHook(nil)

		compareStores(t, label, byRow, byField, keys)
		if st := byRow.Stats(); cfg.Compress && (st.Chunks == 0 || st.Tier1.Samples == 0) {
			t.Fatalf("%s: workload never sealed or folded: %+v", label, st)
		}
		if len(*rowHook) == 0 || !reflect.DeepEqual(sortedRecs(*rowHook), sortedRecs(*fieldHook)) {
			t.Fatalf("%s: hook multisets differ (%d vs %d samples)", label, len(*rowHook), len(*fieldHook))
		}

		var snap bytes.Buffer
		if _, err := byRow.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		restored := New(cfg)
		if err := restored.ReadSnapshot(&snap); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		compareStores(t, label+" restored", restored, byField, keys)

		for agent := uint32(0); agent < 3; agent++ {
			byRow.EvictAgent(agent)
		}
		if n := byRow.NumSeries(); n != 0 {
			t.Fatalf("%s: %d series survive eviction", label, n)
		}
		if st := byRow.Stats(); st.Series != 0 || st.HeadSamples != 0 {
			t.Fatalf("%s: stats after eviction %+v", label, st)
		}
		if l := byRow.List(-1, 0); len(l) != 0 {
			t.Fatalf("%s: List after eviction has %d series", label, len(l))
		}
		for _, k := range keys {
			if l := byRow.LastK(k, 1, nil); len(l) != 0 {
				t.Fatalf("%s: %+v readable after eviction", label, k)
			}
		}
	}
}

// TestAppendRowHookOrder: the hook sees a row's samples in field-list
// order, after all of them are stored — a hook reading the row back
// already finds the row's last field.
func TestAppendRowHookOrder(t *testing.T) {
	s := New(Config{Capacity: 8})
	var got []Field
	var lastVisible []bool
	last := SeriesKey{Agent: 1, Fn: 142, UE: 2, Field: FieldThroughputBps}
	s.SetAppendHook(func(k SeriesKey, ts int64, v float64) {
		got = append(got, k.Field)
		l := s.LastK(last, 1, nil)
		lastVisible = append(lastVisible, len(l) == 1 && l[0].TS == ts)
	})
	s.AppendRow(1, 142, 2, 10, rowMAC, []float64{1, 2, 3, 4, 5})
	if !reflect.DeepEqual(got, rowMAC) {
		t.Fatalf("hook order %v, want %v", got, rowMAC)
	}
	for i, ok := range lastVisible {
		if !ok {
			t.Fatalf("hook call %d ran before the row's last field was stored", i)
		}
	}
}

// TestAppendRowLengthMismatch: unequal field and value lists are a
// programming error and panic rather than storing a partial row.
func TestAppendRowLengthMismatch(t *testing.T) {
	s := New(Config{Capacity: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("AppendRow with 2 fields and 1 value did not panic")
		}
		if n := s.NumSeries(); n != 0 {
			t.Fatalf("partial row stored: %d series", n)
		}
	}()
	s.AppendRow(1, 142, 1, 0, rowMAC[:2], []float64{1})
}

// TestConcurrentAppendRowWindowEvict is the row path's -race stress:
// writers append overlapping rows — with field lists that grow rows
// column by column — while readers run windowed queries and an evictor
// drops whole agents.
func TestConcurrentAppendRowWindowEvict(t *testing.T) {
	s := New(Config{Capacity: 64, Shards: 4, Compress: true, MaxChunks: 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vs := make([]float64, len(rowRLC))
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fields := rowRLC[:1+int(i)%len(rowRLC)]
				for j := range fields {
					vs[j] = float64(i)
				}
				s.AppendRow(uint32(w%2), 143, uint16(i%8), i, fields, vs[:len(fields)])
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := SeriesKey{Agent: uint32(r), Fn: 143, UE: uint16(i % 8), Field: rowRLC[i%int64(len(rowRLC))]}
				s.Window(k, 0, 1e6, 1e4)
				s.NumSeries()
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.EvictAgent(uint32(i % 2))
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	s.EvictAgent(0)
	s.EvictAgent(1)
	if n := s.NumSeries(); n != 0 {
		t.Fatalf("%d series after evicting every agent", n)
	}
}
