package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"e9patch"
	"e9patch/internal/disasm"
	"e9patch/internal/elf64"
	"e9patch/internal/group"
	"e9patch/internal/loader"
)

// The traced run replays each op in process, calling each layer's
// public entry point in pipeline order with one span per call:
//
//	elf64.Parse+TextRange, disasm.RecoverCancel, the selector,
//	e9patch.Plan, group.Build, loader.Encode, elf64.Compose,
//	e9patch.ApplyTrusted
//
// Plan re-runs the first three, so the patch layer's self time is
// Plan's duration minus theirs; ApplyTrusted re-runs the next three, so
// its replay self time is derived the same way. Both derived spans are
// marked. The recomposed output must be byte-identical to Rewrite's.

// span is one timed call into a layer.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: none
	Op      int    `json:"op"`     // spans of one op share it
	Layer   string `json:"layer"`
	Fn      string `json:"fn"`
	StartNS int64  `json:"start_ns"` // since the traced run began
	DurNS   int64  `json:"dur_ns"`
	Alloc   int64  `json:"alloc_bytes"` // runtime.MemStats.TotalAlloc delta
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0       time.Time
	spans    []span
	op       int
	root     int
	overhead time.Duration // time spent reading MemStats and recording spans
}

// settle runs a garbage collection before a call that repeats or is
// repeated by another, so both start from the same heap; the time is
// counted as tracing overhead.
func (t *tracer) settle() {
	start := time.Now()
	runtime.GC()
	t.overhead += time.Since(start)
}

// call runs f as a span of layer and returns the span.
func (t *tracer) call(layer, fn string, f func()) span {
	t0 := time.Now()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&b)
	s := t.record(span{Layer: layer, Fn: fn, StartNS: start.Sub(t.t0).Nanoseconds(), DurNS: d.Nanoseconds(),
		Alloc: int64(b.TotalAlloc - a.TotalAlloc)})
	t.overhead += time.Since(t0) - d
	return s
}

// derive records a span whose duration and allocation are a parent
// span's minus those of separately timed calls it repeats.
func (t *tracer) derive(layer, fn string, of span, minus ...span) span {
	s := span{Layer: layer, Fn: fn, StartNS: of.StartNS, DurNS: of.DurNS, Alloc: of.Alloc, Derived: true}
	for _, m := range minus {
		s.DurNS -= m.DurNS
		s.Alloc -= m.Alloc
	}
	return t.record(s)
}

func (t *tracer) record(s span) span {
	s.ID, s.Parent, s.Op = len(t.spans)+1, t.root, t.op
	t.spans = append(t.spans, s)
	return s
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
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

// sums accumulates the per-layer figures over the traced ops.
type sums struct {
	ops                                               int
	rewrite, traced                                   time.Duration // untraced Rewrite; traced pipeline wall
	parse, recover, sel, plan, build, encode, compose time.Duration
	apply, stream                                     time.Duration
	recoverAlloc, patchAlloc                          int64
	patchSelf, replaySelf                             time.Duration
	textBytes, insts, decoded, sites                  int64
	tactics                                           map[string]int64
	tramps, trampBytes, virt, phys, mappings          int64
	blobBytes, outBytes                               int64
	runs                                              []emuRun
}

func dur(s span) time.Duration { return time.Duration(s.DurNS) }

// traceOp runs one op's layers in pipeline order and checks that the
// recomposed, applied and streamed outputs equal Rewrite's output want.
func (t *tracer) traceOp(o *op, data []byte, want string, acc *sums) error {
	cfg := o.config()
	var (
		f                        *elf64.File
		textOff, textAddr, tsize uint64
		err                      error
	)
	t.settle()
	sParse := t.call("elf64", "Parse+TextRange", func() {
		if f, err = elf64.Parse(data); err == nil {
			textOff, textAddr, tsize, err = f.TextRange()
		}
	})
	if err != nil {
		return err
	}
	var bias uint64
	if f.IsPIE() {
		bias = e9patch.PIEBase
	}
	mode, err := disasm.ParseMode(o.Disasm)
	if err != nil {
		return err
	}
	text := data[textOff : textOff+tsize]
	var (
		dres   disasm.Result
		dstats *disasm.SupersetStats
		ok     bool
	)
	sRecover := t.call("disasm", "RecoverCancel", func() {
		dres, dstats, ok = disasm.RecoverCancel(mode, text[o.Skip:], textAddr+bias+o.Skip, runtime.GOMAXPROCS(0), nil, nil)
	})
	if !ok {
		return fmt.Errorf("disasm.RecoverCancel did not complete")
	}
	var selected []int
	sSel := t.call("match", "Select", func() { selected = cfg.Select(dres.Insts) })
	var p *e9patch.PatchPlan
	t.settle()
	sPlan := t.call("e9patch", "Plan", func() { p, err = e9patch.Plan(data, cfg) })
	if err != nil {
		return err
	}
	sPatch := t.derive("patch", "Plan self (Plan minus Parse, RecoverCancel, Select)", sPlan, sParse, sRecover, sSel)
	if p.Granularity < 1 {
		return fmt.Errorf("plan granularity %d: only grouped output is traced", p.Granularity)
	}

	// The inputs of the emit layers, taken from the plan as
	// ApplyTrusted takes them.
	code := append([]byte(nil), text...)
	var chunks []group.Chunk
	sig := map[uint64]uint64{}
	for i := range p.Sites {
		s := &p.Sites[i]
		acc.tactics[s.Tactic]++
		for _, wr := range s.Writes {
			copy(code[wr.Addr-p.TextAddr:], wr.Data)
		}
		for _, tr := range s.Trampolines {
			chunks = append(chunks, group.Chunk{Addr: tr.Addr - bias, Data: tr.Code})
			acc.trampBytes += int64(len(tr.Code))
		}
		for _, se := range s.SigTab {
			sig[se.Int3-bias] = se.Trampoline - bias
		}
	}
	acc.tramps += int64(len(chunks))
	for _, inj := range p.Injections {
		chunks = append(chunks, group.Chunk{Addr: inj.Addr - bias, Data: inj.Data})
	}
	var gres *group.Result
	t.settle()
	sBuild := t.call("group", "Build", func() { gres, err = group.Build(chunks, p.Granularity) })
	if err != nil {
		return err
	}
	var blob []byte
	sEncode := t.call("loader", "Encode", func() { blob = loader.Encode(gres, p.Granularity, sig, f.Header.Entry) })
	var out []byte
	sCompose := t.call("elf64", "Compose", func() { out = elf64.Compose(data, textOff, code, blob) })
	if digest(out) != want {
		return fmt.Errorf("recomposed output differs from Rewrite's")
	}
	var ares *e9patch.Result
	t.settle()
	sApply := t.call("plan", "e9patch.ApplyTrusted", func() { ares, err = e9patch.ApplyTrusted(data, p) })
	if err != nil {
		return err
	}
	sReplay := t.derive("plan", "ApplyTrusted self (minus Build, Encode, Compose)", sApply, sBuild, sEncode, sCompose)
	if digest(ares.Output) != want {
		return fmt.Errorf("ApplyTrusted output differs from Rewrite's")
	}

	var sres *e9patch.Result
	var in *elf64.Input
	sStream := t.call("stream", "OpenInput+Stream", func() {
		if in, err = elf64.OpenInput(o.Path); err != nil {
			return
		}
		var st *e9patch.Stream
		if st, err = e9patch.NewStream(context.Background(), in.Data, cfg); err == nil {
			sres, err = st.Finish(context.Background())
		}
	})
	if in != nil {
		defer in.Close()
	}
	if err != nil {
		return err
	}
	if digest(sres.Output) != want {
		return fmt.Errorf("Stream output differs from Rewrite's")
	}

	acc.ops++
	acc.parse += dur(sParse)
	acc.recover += dur(sRecover)
	acc.sel += dur(sSel)
	acc.plan += dur(sPlan)
	acc.patchSelf += dur(sPatch)
	acc.build += dur(sBuild)
	acc.encode += dur(sEncode)
	acc.compose += dur(sCompose)
	acc.apply += dur(sApply)
	acc.replaySelf += dur(sReplay)
	acc.stream += dur(sStream)
	acc.recoverAlloc += sRecover.Alloc
	acc.patchAlloc += sPatch.Alloc
	acc.textBytes += int64(len(text)) - int64(o.Skip)
	acc.insts += int64(len(dres.Insts))
	acc.decoded += int64(len(dres.Insts)) // linear mode decodes each kept instruction once
	if dstats != nil {
		acc.decoded += int64(dstats.Decoded - len(dres.Insts))
	}
	acc.sites += int64(len(selected))
	acc.virt += int64(gres.Stats.VirtBlocks)
	acc.phys += int64(gres.Stats.PhysBlocks)
	acc.mappings += int64(gres.Stats.Mappings)
	acc.blobBytes += int64(len(blob))
	acc.outBytes += int64(len(out))
	return nil
}

// traced is the traced run: the same seed and inputs, in process, in
// whole passes until the run's seconds are spent.
func (r *runner) traced(w workloadSpec, spansPath string) (*result, *report, error) {
	if err := freshDir(r.dir); err != nil {
		return nil, nil, err
	}
	ops, err := r.build(w)
	if err != nil {
		return nil, nil, err
	}
	t := &tracer{t0: time.Now()}
	acc := &sums{tactics: map[string]int64{}}
	shas := make([]string, len(ops))
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	start := time.Now()
	passes := 0
	for ; passes == 0 || time.Since(start).Seconds() < r.seconds; passes++ {
		for i := range ops {
			o := &ops[i]
			r.attempts++
			if err := r.traceOne(t, o, i, shas, acc); err != nil {
				r.fail(o.Label, err)
			}
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&gc1)
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return nil, nil, err
	}
	if err := t.write(spansPath); err != nil {
		return nil, nil, err
	}
	metrics := layerMetrics(acc, t, &gc0, &gc1)
	rep := &report{
		Workload: w.name,
		Mode:     "traced",
		Envelope: r.envelope(ops, passes, elapsed),
		Samples:  map[string]int{"rewrites": acc.ops, "emu_runs": len(acc.runs), "spans": len(t.spans)},
		Extra:    map[string]*extra{"failed_ratio": r.failedRatio()},
		Shares:   shares(acc, ops[0].Verify),
		Spans:    spansPath,
		Failures: r.failures,
	}
	return r.newResult(metrics), rep, nil
}

// traceOne measures one op untraced, checks its output, and traces it.
func (r *runner) traceOne(t *tracer, o *op, i int, shas []string, acc *sums) error {
	data, err := os.ReadFile(o.Path)
	if err != nil {
		return err
	}
	cfg := o.config()
	runtime.GC() // the same heap the traced calls start from
	start := time.Now()
	res, err := e9patch.Rewrite(data, cfg)
	rewrite := time.Since(start)
	if err != nil {
		return fmt.Errorf("rewrite: %w", err)
	}
	want := digest(res.Output)
	first := shas[i] == ""
	if first {
		shas[i] = want
	} else if want != shas[i] {
		return fmt.Errorf("output differs from this input's first rewrite in the run")
	}
	t.op++
	t.root = 0
	root := t.record(span{Layer: "op", Fn: o.Label, StartNS: time.Since(t.t0).Nanoseconds()})
	t.root = root.ID
	var runs []emuRun
	var checkErr error
	switch {
	case o.Verify:
		if runs, err = verdict(data, res.Output, o.App == "A2+LowFat"); err != nil {
			return err
		}
	case first:
		var sites []uint64
		if o.App == "A1" {
			sites = sampleSites(res.Locations, siteSample, o.Seed)
		}
		sres, err := checkOutput(data, res.Output, sites, o.Seed)
		if sres != nil {
			runs = sres.runs
		}
		checkErr = err // the layers are traced whether or not the checks pass
	}
	if o.Verify {
		for _, run := range runs {
			t.record(span{Layer: "emu", Fn: "Machine.Run", StartNS: time.Since(t.t0).Nanoseconds(), DurNS: int64(run.MS * 1e6)})
		}
	} else if len(runs) > 0 {
		var d float64
		for _, run := range runs {
			d += run.MS
		}
		t.record(span{Layer: "emu", Fn: fmt.Sprintf("Machine.Step: %d site runs", len(runs)),
			StartNS: time.Since(t.t0).Nanoseconds(), DurNS: int64(d * 1e6)})
	}
	res = nil
	traced := time.Now()
	if err := t.traceOp(o, data, want, acc); err != nil {
		return err
	}
	acc.traced += time.Since(traced)
	acc.rewrite += rewrite
	acc.runs = append(acc.runs, runs...)
	t.spans[root.ID-1].DurNS = time.Since(t.t0).Nanoseconds() - root.StartNS
	return checkErr
}

// layerMetrics turns the sums into the per-layer metrics: times and
// counts are means per traced rewrite, emulator figures means per run.
func layerMetrics(a *sums, t *tracer, g0, g1 *runtime.MemStats) map[string]*metric {
	n := float64(max(a.ops, 1))
	per := func(d time.Duration) float64 { return ms(d) / n }
	cnt := func(v int64) float64 { return float64(v) / n }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	var emuMS, emuInsts, emuCycles, emuFar float64
	for _, r := range a.runs {
		emuMS += r.MS
		emuInsts += float64(r.Insts)
		emuCycles += float64(r.Cycles)
		emuFar += float64(r.FarJumps)
	}
	runs := float64(max(len(a.runs), 1))
	return map[string]*metric{
		"elf64.parse_ms":        {per(a.parse), "ms"},
		"elf64.compose_ms":      {per(a.compose), "ms"},
		"elf64.compose_mb":      {cnt(a.outBytes) / mb, "MB"},
		"disasm.recover_ms":     {per(a.recover), "ms"},
		"disasm.mbps":           {ratio(float64(a.textBytes)/mb, a.recover.Seconds()), "MB/s"},
		"disasm.insts":          {cnt(a.insts), "count"},
		"disasm.decoded":        {cnt(a.decoded), "count"},
		"disasm.keep_ratio":     {ratio(float64(a.insts), float64(a.decoded)), "ratio"},
		"disasm.alloc_mb":       {cnt(a.recoverAlloc) / mb, "MB"},
		"match.select_ms":       {per(a.sel), "ms"},
		"match.sites":           {cnt(a.sites), "count"},
		"match.ns_per_inst":     {ratio(float64(a.sel.Nanoseconds()), float64(a.insts)), "ns"},
		"patch.self_ms":         {per(a.patchSelf), "ms"},
		"patch.us_per_site":     {ratio(float64(a.patchSelf.Nanoseconds())/1e3, float64(a.sites)), "us"},
		"patch.b1":              {cnt(a.tactics["B1"]), "count"},
		"patch.b2":              {cnt(a.tactics["B2"]), "count"},
		"patch.t1":              {cnt(a.tactics["T1"]), "count"},
		"patch.t2":              {cnt(a.tactics["T2"]), "count"},
		"patch.t3":              {cnt(a.tactics["T3"]), "count"},
		"patch.b0":              {cnt(a.tactics["B0"]), "count"},
		"patch.failed":          {cnt(a.tactics["none"]), "count"},
		"patch.alloc_mb":        {cnt(a.patchAlloc) / mb, "MB"},
		"trampoline.count":      {cnt(a.tramps), "count"},
		"trampoline.mb":         {cnt(a.trampBytes) / mb, "MB"},
		"plan.apply_ms":         {per(a.apply), "ms"},
		"plan.replay_self_ms":   {per(a.replaySelf), "ms"},
		"group.build_ms":        {per(a.build), "ms"},
		"group.virt_blocks":     {cnt(a.virt), "count"},
		"group.phys_blocks":     {cnt(a.phys), "count"},
		"group.merge_ratio":     {ratio(float64(a.virt), float64(a.phys)), "ratio"},
		"group.mappings":        {cnt(a.mappings), "count"},
		"loader.encode_ms":      {per(a.encode), "ms"},
		"loader.blob_mb":        {cnt(a.blobBytes) / mb, "MB"},
		"stream.rewrite_ms":     {per(a.stream), "ms"},
		"emu.run_ms":            {emuMS / runs, "ms"},
		"emu.minst_per_s":       {ratio(emuInsts/1e6, emuMS/1000), "Minst/s"},
		"emu.insts":             {emuInsts / runs, "count"},
		"emu.cycles":            {emuCycles / runs, "count"},
		"emu.far_jumps":         {emuFar / runs, "count"},
		"gc.cycles":             {float64(g1.NumGC - g0.NumGC), "count"},
		"gc.pause_ms":           {float64(g1.PauseTotalNs-g0.PauseTotalNs) / 1e6, "ms"},
		"gc.alloc_mb":           {float64(g1.TotalAlloc-g0.TotalAlloc) / mb, "MB"},
		"trace.unexplained_pct": {100 * ratio(float64(a.rewrite-a.plan-a.apply), float64(a.rewrite)), "%"},
		"trace.overhead_pct":    {100 * ratio(float64(t.overhead), float64(a.traced)), "%"},
	}
}

// shares is each layer's share of the summed self time; the emulator
// counts only where its runs are part of the op (Verify ops).
func shares(a *sums, withEmu bool) map[string]float64 {
	self := map[string]time.Duration{
		"elf64":  a.parse + a.compose,
		"disasm": a.recover,
		"match":  a.sel,
		"patch":  a.patchSelf,
		"group":  a.build,
		"loader": a.encode,
		"plan":   a.replaySelf,
	}
	if withEmu {
		var d time.Duration
		for _, r := range a.runs {
			d += time.Duration(r.MS * 1e6)
		}
		self["emu"] = d
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	out := map[string]float64{}
	for k, d := range self {
		out[k] = float64(d) / float64(max(total, 1))
	}
	return out
}
