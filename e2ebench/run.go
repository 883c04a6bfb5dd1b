package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"flexric/internal/telemetry"
	"flexric/internal/trace"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	w       workload
	seed    int64
	seconds time.Duration
	trace   bool
	// outDir receives one directory per traced run.
	outDir string
	// setupFor is how long set-up is repeated to time it: at least
	// minSetups and at most maxSetups times. The last loop is measured.
	setupFor time.Duration
	// closeAgentAfter, when positive, closes agent 0 that long into the
	// measured window: a fault the correctness check must catch.
	closeAgentAfter time.Duration
}

// Set-up is timed minSetups to maxSetups times per run. setup_s is the
// median process CPU time of one set-up: on the two-core reference box
// the wall time of the 7 ms xapp-loop set-up, which mostly waits on
// loopback round trips, read 7 ms in quiet sets of runs and 13 ms in
// sets taken under host steal time, and CPU time does not count those
// waits. setup_wall_s is the median wall time.
const (
	minSetups = 5
	maxSetups = 400
)

// metric is one named, unit-carrying number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output: the contract's four keys plus the
// run's context, printed on a line of its own before the result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Info    map[string]any `json:"-"`
	Notes   []string       `json:"-"`
	OutPath string         `json:"-"`
}

// machine describes where the run happened.
func machine() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": model, "os": runtime.GOOS, "arch": runtime.GOARCH,
	}
}

// run assembles the loop, measures it and checks its outputs.
func run(cfg runConfig) (*result, error) {
	var setupNS, setupCPU []int64
	var l *loop
	for start := time.Now(); ; {
		t, c := time.Now(), processCPU()
		var err error
		l, err = newLoop(cfg.w, cfg.seed, cfg.trace)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupCPU = append(setupCPU, int64(processCPU()-c))
		setupNS = append(setupNS, int64(time.Since(t)))
		n := len(setupNS)
		if n >= maxSetups || (n >= minSetups && time.Since(start) >= cfg.setupFor) {
			break
		}
		l.close()
		runtime.GC()
	}
	defer l.close()

	// Warm up in simulated time, so the state the heap is measured in
	// does not depend on how fast the box ran.
	warm := l.measure(0, int64(cfg.w.WarmupSlots), 0)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	var traced *tracedWindow
	base := l.measure(cfg.seconds, 0, cfg.closeAgentAfter)
	if cfg.trace {
		var err error
		if traced, err = l.measureTraced(cfg.seconds); err != nil {
			return nil, err
		}
	}
	l.drain()
	ck := l.verify()

	res := &result{Metrics: map[string]metric{}}
	windows := []*window{warm, base}
	if traced != nil {
		windows = append(windows, traced.window)
	}
	for _, wnd := range windows {
		ck.attempted += wnd.ctrlSent + wnd.querySent
		ck.failed += wnd.ctrlFailed + wnd.queryFailed
		if wnd.ctrlFailed+wnd.queryFailed > 0 {
			ck.notes = append(ck.notes, fmt.Sprintf("%d/%d controls and %d/%d queries failed",
				wnd.ctrlFailed, wnd.ctrlSent, wnd.queryFailed, wnd.querySent))
		}
	}
	res.Attempted, res.Failed, res.Notes = max(ck.attempted, 1), ck.failed, ck.notes
	res.Correct = ck.failed == 0

	e2e := l.endToEnd(base, newDist(setupCPU).q(0.5)/1e9, heapMB, res)
	res.Info = map[string]any{
		"machine": machine(), "seed": cfg.seed, "workload": cfg.w, "shared": sharedParams,
		"seconds": cfg.seconds.Seconds(), "setups": len(setupNS),
		"samples": l.sampleCounts(base),
	}
	if !cfg.trace {
		res.Metrics = e2e
		return res, nil
	}
	res.Metrics = l.perLayer(traced, base, e2e, res)
	res.Metrics["setup_wall_s"] = metric{newDist(setupNS).q(0.5) / 1e9, "s"}
	dir, err := l.writeTraceDir(cfg, traced, res, e2e)
	if err != nil {
		return nil, err
	}
	res.OutPath = dir
	return res, nil
}

func (l *loop) fresh(w *window) dist { return newDist(l.freshness(w.r0, w.r1)) }

// endToEnd computes the user-visible metrics of an untraced window.
func (l *loop) endToEnd(w *window, setupS, heapMB float64, res *result) map[string]metric {
	return map[string]metric{
		"fresh_p50_ms":       {l.fresh(w).ms(0.50), "ms"},
		"ue_slots_per_cpu_s": {safeDiv(w.ueSlots, w.procCPU.Seconds()), "1/s"},
		"setup_s":            {setupS, "s"},
		"heap_mb":            {heapMB, "MB"},
		"success_ratio":      {1 - float64(res.Failed)/float64(res.Attempted), "ratio"},
	}
}

// wallMetrics are the window's wall-clock throughput, the xApp's
// operation latencies and the freshness tail. On the two-core reference
// box, whose virtual CPUs lose up to a third of their time to other
// tenants, their quartile spread over ten seeds exceeded the 0.25 bound
// an end-to-end metric may carry, so they are reported per layer, from
// the traced run's untraced window.
func (l *loop) wallMetrics(w *window) map[string]metric {
	ctrlRTT, query := newDist(w.ctrlRTT), newDist(w.query)
	return map[string]metric{
		"rt_factor":       {w.rtFactor(), "ms/ms"},
		"ue_slots_per_s":  {w.rtFactor() * 1000 * float64(cells*l.w.UEsPerCell), "1/s"},
		"fresh_p99_ms":    {l.fresh(w).ms(0.99), "ms"},
		"ctrl_rtt_p50_ms": {ctrlRTT.ms(0.50), "ms"},
		"ctrl_rtt_p99_ms": {ctrlRTT.ms(0.99), "ms"},
		"query_p50_ms":    {query.ms(0.50), "ms"},
		"query_p99_ms":    {query.ms(0.99), "ms"},
	}
}

// sampleCounts states how many samples stand behind each percentile,
// and the highest quantile that has at least ten samples beyond it.
func (l *loop) sampleCounts(w *window) map[string]any {
	n := map[string]int{
		"fresh": len(l.freshness(w.r0, w.r1)), "ctrl_rtt": len(w.ctrlRTT),
		"query": len(w.query), "sm_tick": len(w.tick), "gen_late": len(w.genLate),
		"pacer_late": len(w.pacerLate), "rate_windows": len(w.rates),
	}
	tail := map[string]float64{}
	for k, c := range n {
		if c > 10 {
			tail[k] = 1 - 10/float64(c)
		}
	}
	return map[string]any{"n": n, "max_tail_quantile": tail,
		"slots": w.slots, "reports": w.r1 - w.r0, "rt_windows": w.rates}
}

// tracedWindow is a window measured with the CPU profiler, the
// program's span sampling and the benchmark's own spans on.
type tracedWindow struct {
	*window
	profile  []byte
	shares   *cpuShares
	spans    *spanLog
	program  []trace.SpanData
	snapshot []byte
}

// programSampleEvery is the program's own span sampling rate in traced
// windows: one indication trace in 64.
const programSampleEvery = 64

func (l *loop) measureTraced(d time.Duration) (*tracedWindow, error) {
	t := &tracedWindow{spans: &spanLog{}}
	var prof bytes.Buffer
	trace.Reset()
	trace.SetSampleEvery(programSampleEvery)
	l.spans = t.spans
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	t.window = l.measure(d, 0, 0)
	pprof.StopCPUProfile()
	trace.SetSampleEvery(0)
	l.spans = nil
	t.program = trace.Snapshot()
	var snap bytes.Buffer
	if err := telemetry.DumpJSON(&snap); err != nil {
		return nil, fmt.Errorf("telemetry snapshot: %w", err)
	}
	t.snapshot = snap.Bytes()
	t.profile = prof.Bytes()
	var err error
	if t.shares, err = parseCPUProfile(t.profile); err != nil {
		return nil, err
	}
	return t, nil
}

// perLayer computes the traced run's per-layer metrics, the wall-clock
// metrics of its untraced window, and the tracing overhead: traced
// minus untraced numbers of the same run.
func (l *loop) perLayer(t *tracedWindow, base *window, baseE2E map[string]metric, res *result) map[string]metric {
	w := t.window
	sec := w.seconds()
	l.spans = t.spans
	l.recordReportSpans(w.r0, w.r1)
	l.spans = nil
	tick, svc, ctrlSvc := newDist(w.tick), newDist(w.querySvc), newDist(w.ctrlSvc)
	late, pacer := newDist(w.genLate), newDist(w.pacerLate)
	m := map[string]metric{
		"ran.slot_p50_us":            {float64(w.slotP50) / 1e3, "us"},
		"ran.slot_p99_us":            {float64(w.slotP99) / 1e3, "us"},
		"ran.busy_share":             {w.ranBusy.Seconds() / sec, "ratio"},
		"sm.tick_p50_us":             {tick.us(0.50), "us"},
		"sm.tick_p99_us":             {tick.us(0.99), "us"},
		"server.dispatch_p50_us":     {float64(w.dispatch.Percentile(50)) / 1e3, "us"},
		"server.dispatch_p99_us":     {float64(w.dispatch.Percentile(99)) / 1e3, "us"},
		"server.indications_dropped": {float64(w.dropped), "count"},
		"transport.mb_per_s":         {float64(w.bytes) / (1 << 20) / sec, "MB/s"},
		"ctrl.ind_per_s":             {float64(w.indications) / sec, "1/s"},
		"ctrl.backlog_max":           {float64(w.backlogMax), "count"},
		"tsdb.appends_per_s":         {float64(w.appends) / sec, "1/s"},
		"tsdb.series":                {float64(l.store.NumSeries()), "count"},
		"tsdb.query_svc_p50_us":      {svc.us(0.50), "us"},
		"tsdb.query_svc_p99_us":      {svc.us(0.99), "us"},
		"xapp.ctrl_svc_p50_ms":       {ctrlSvc.ms(0.50), "ms"},
		"gen.late_p50_ms":            {late.ms(0.50), "ms"},
		"gc.cpu_share":               {safeDiv(w.gcCPU, w.allCPU), "ratio"},
		"gc.allocs_per_ue_slot":      {safeDiv(float64(w.allocs), w.ueSlots), "allocs/ue_slot"},
		"gen.late_p99_ms":            {late.ms(0.99), "ms"},
		"gen.pacer_late_p99_ms":      {pacer.ms(0.99), "ms"},
		"fail_ratio":                 {float64(res.Failed) / float64(res.Attempted), "ratio"},
	}
	for _, mod := range selfShareModules {
		m[mod+".cpu_self_share"] = metric{t.shares.Modules[mod], "ratio"}
	}
	for _, layer := range labelLayers {
		m["layer."+layer+".cpu_share"] = metric{t.shares.Layers[layer], "ratio"}
	}
	untraced, traced := l.wallMetrics(base), l.wallMetrics(w)
	for k, v := range untraced {
		m[k] = v
	}
	for k, v := range baseE2E {
		untraced[k] = v
	}
	for k, v := range l.endToEnd(w, 0, 0, res) {
		traced[k] = v
	}
	for _, name := range overheadMetrics {
		m["overhead."+name] = metric{traced[name].Value - untraced[name].Value, untraced[name].Unit}
	}
	return m
}

// selfShareModules are the repository modules whose self CPU share a
// traced run reports; labelLayers are the pprof layer labels the
// benchmark sets; overheadMetrics are the end-to-end numbers whose
// traced-minus-untraced difference is the tracing overhead.
var (
	selfShareModules = []string{"ran", "sm", "encoding", "e2ap", "agent", "transport", "server", "ctrl", "tsdb", "telemetry", "bench", "runtime"}
	labelLayers      = []string{"ran", "sm", "server", "monitor", "agent", "gen"}
	overheadMetrics  = []string{"rt_factor", "ue_slots_per_cpu_s", "fresh_p50_ms", "ctrl_rtt_p50_ms", "query_p50_ms"}
)

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTraceDir writes the traced run's artefacts to a directory of its
// own: the CPU profile, the benchmark's spans, the program's sampled
// spans, the telemetry snapshot and the full result.
func (l *loop) writeTraceDir(cfg runConfig, t *tracedWindow, res *result, e2e map[string]metric) (string, error) {
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-%s-%d",
		cfg.w.Name, cfg.seed, time.Now().UTC().Format("20060102T150405"), os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var spans bytes.Buffer
	if err := t.spans.writeJSONL(&spans); err != nil {
		return "", err
	}
	program, err := json.Marshal(t.program)
	if err != nil {
		return "", err
	}
	summary, err := json.MarshalIndent(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed,
		"per_layer": res.Metrics, "untraced_end_to_end": e2e, "info": res.Info,
		"cpu": t.shares, "spans": t.spans.summary(), "spans_dropped": t.spans.dropped,
		"notes": res.Notes,
	}, "", "  ")
	if err != nil {
		return "", err
	}
	files := []struct {
		name string
		data []byte
	}{
		{"cpu.pprof", t.profile},
		{"spans.jsonl", spans.Bytes()},
		{"program_spans.json", program},
		{"telemetry.json", t.snapshot},
		{"result.json", summary},
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
