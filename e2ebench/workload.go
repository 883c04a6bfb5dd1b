package main

import (
	"flexric/internal/ctrl"
	"flexric/internal/e2ap"
	"flexric/internal/sm"
	"flexric/internal/transport"
)

// The shape every workload shares: two cells with one agent each, so
// the loop fits a two-core box, and the same xApp beside the loop.
const (
	cells         = 2
	shards        = 4 // UE shards per cell; each emits one report per SM
	ingestWorkers = 2
	// The xApp generator: slice-control requests and SLA queries per
	// wall second, each timed from its due time.
	ctrlPerS  = 100
	queryPerS = 20
)

// sharedParams are the constants above, recorded with every result
// beside the workload's own parameters.
var sharedParams = map[string]int{
	"cells": cells, "shards": shards, "ingest_workers": ingestWorkers,
	"ctrl_per_s": ctrlPerS, "query_per_s": queryPerS,
}

// workload is one benchmark shape. Every field is a property of the
// generated inputs; the seed only picks which UEs saturate, the CBR
// phase offsets, the xApp's arrival times, the order of queried cells
// and of the slice configurations it sends, and the UEs the verifier
// samples.
type workload struct {
	Name       string `json:"name"`
	UEsPerCell int    `json:"ues_per_cell"`
	// IdlePct is the share of UEs on a sparse CBR source; the rest
	// saturate their bearer.
	IdlePct int `json:"idle_pct"`
	// Layers are the monitoring SMs the controller subscribes to.
	Layers   ctrl.MonitorLayers `json:"-"`
	LayerSet string             `json:"layers"`
	PeriodMS int                `json:"period_ms"`
	// Codec is "flat" (FlatBuffers-style SM and E2AP) or "per"
	// (ASN.1-PER-style).
	Codec     string         `json:"codec"`
	Transport transport.Kind `json:"transport"`
	// Paced steps one slot per wall millisecond (open loop); otherwise
	// the fleet is stepped as fast as the loop drains (closed loop).
	Paced bool `json:"paced"`
	// Each SLA query aggregates a trailing window for QueryUEs UEs.
	QueryUEs      int `json:"query_ues"`
	QueryWindowMS int `json:"query_window_ms"`
	TSDBCapacity  int `json:"tsdb_capacity"`
	WarmupSlots   int `json:"warmup_slots"`
}

// workloads are the benchmark's named shapes.
var workloads = []workload{
	{
		// RAN-bound headline gap: most CPU is in the slot loop.
		Name: "fleet16k", UEsPerCell: 8000, IdlePct: 90,
		Layers: ctrl.MonMAC, LayerSet: "mac", PeriodMS: 100,
		Codec: "flat", Transport: transport.KindPipe,
		QueryUEs: 250, QueryWindowMS: 5000,
		TSDBCapacity: 32, WarmupSlots: 300,
	},
	{
		// Ingest-bound: decode and tsdb appends back-pressure the RAN.
		Name: "report-storm", UEsPerCell: 2000, IdlePct: 100,
		Layers: ctrl.MonAll, LayerSet: "mac+rlc+pdcp", PeriodMS: 10,
		Codec: "per", Transport: transport.KindSCTPish,
		QueryUEs: 250, QueryWindowMS: 1000,
		TSDBCapacity: 64, WarmupSlots: 500,
	},
	{
		// The near-RT control loop at real-time pace, well below the knee.
		Name: "xapp-loop", UEsPerCell: 250, IdlePct: 90,
		Layers: ctrl.MonMAC, LayerSet: "mac", PeriodMS: 10,
		Codec: "flat", Transport: transport.KindSCTPish,
		Paced:    true,
		QueryUEs: 250, QueryWindowMS: 1000,
		TSDBCapacity: 128, WarmupSlots: 1500,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) smScheme() sm.Scheme {
	if w.Codec == "per" {
		return sm.SchemeASN
	}
	return sm.SchemeFB
}

func (w workload) e2Scheme() e2ap.Scheme {
	if w.Codec == "per" {
		return e2ap.SchemeASN
	}
	return e2ap.SchemeFB
}

// tiny shrinks a workload to a few UEs per cell, for the self-test.
func (w workload) tiny() workload {
	w.UEsPerCell = 40
	w.QueryUEs = 20
	w.WarmupSlots = 200
	return w
}
