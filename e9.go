// Package e9patch is a static binary rewriter for x86-64 ELF binaries
// that needs no control-flow recovery, reproducing the system from
// "Binary Rewriting without Control Flow Recovery" (Duck, Gao,
// Roychoudhury — PLDI 2020).
//
// The rewriter replaces selected instructions with (possibly punned,
// padded, or evicted) jumps to trampolines, strictly in place,
// preserving the set of jump targets. New content — trampoline pages
// merged by physical page grouping, the mmap table, and the SIGTRAP
// dispatch table — is appended at end-of-file without moving a byte of
// the original binary.
//
// Typical use:
//
//	res, err := e9patch.Rewrite(binary, e9patch.Config{
//	        Select:   e9patch.SelectHeapWrites,
//	        Template: trampoline.Empty{},
//	})
package e9patch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"e9patch/internal/disasm"
	"e9patch/internal/e9err"
	"e9patch/internal/elf64"
	"e9patch/internal/emu"
	"e9patch/internal/group"
	"e9patch/internal/loader"
	"e9patch/internal/match"
	"e9patch/internal/patch"
	"e9patch/internal/plan"
	"e9patch/internal/trampoline"
	"e9patch/internal/va"
	"e9patch/internal/work"
	"e9patch/internal/x86"
)

// PIEBase is the deterministic load bias applied to ET_DYN binaries
// (the address the Linux loader picks for PIE executables when ASLR is
// disabled; our simulated loader is deterministic by design).
const PIEBase uint64 = 0x5555_5555_4000

// Pool is a bounded worker pool shared across rewrites: when several
// concurrent rewrites are handed the same pool, the sum of their
// helper goroutines never exceeds the pool size, no matter how many
// rewrites run at once.
type Pool = work.Pool

// NewPool creates a worker pool with n slots (n <= 0: GOMAXPROCS).
func NewPool(n int) *Pool { return work.NewPool(n) }

// DisasmMode selects the instruction-recovery frontend the rewriter
// runs before matching. Every mode feeds the same downstream pipeline;
// they differ only in which candidate instructions they recover.
type DisasmMode = disasm.Mode

// The available recovery frontends.
const (
	// DisasmLinear is the classic linear sweep (the default; the zero
	// value of Config.Disasm selects it). Byte-identical to releases
	// that predate pluggable modes, at every parallelism width.
	DisasmLinear = disasm.ModeLinear
	// DisasmSuperset decodes at every byte offset and keeps the
	// refined superset — for binaries whose instruction boundaries are
	// unknown (stripped, or with data interleaved in text).
	DisasmSuperset = disasm.ModeSuperset
	// DisasmSupersetCET prunes the superset to the forward closure of
	// endbr64 landing pads, classifying reachable code on CET-enabled
	// binaries without control-flow recovery.
	DisasmSupersetCET = disasm.ModeSupersetCET
)

// ParseDisasmMode validates a mode name from a flag or wire protocol
// ("" selects DisasmLinear).
func ParseDisasmMode(s string) (DisasmMode, error) { return disasm.ParseMode(s) }

// DisasmStats describes what a superset-family frontend recovered;
// see disasm.SupersetStats.
type DisasmStats = disasm.SupersetStats

// Selector chooses patch locations among the disassembled instructions.
type Selector func(insts []x86.Inst) []int

// ParallelSafe marks a custom selector as safe for sharded matching
// and returns it. A selector is shard-safe when its decision for
// instruction i depends on insts[i] alone — no neighbour inspection,
// no internal state, no dependence on slice positions. Selectors not
// marked safe are simply evaluated sequentially.
func ParallelSafe(sel Selector) Selector {
	match.RegisterShardable(sel)
	return sel
}

func init() {
	// The built-in selectors are all per-instruction predicates.
	match.RegisterShardable(SelectJumps)
	match.RegisterShardable(SelectHeapWrites)
	match.RegisterShardable(SelectAll)
	match.RegisterShardable(disasm.SelectJumps)
	match.RegisterShardable(disasm.SelectHeapWrites)
	match.RegisterShardable(disasm.SelectAll)
}

// SelectJumps is the paper's application A1: instrument all jmp/jcc.
func SelectJumps(insts []x86.Inst) []int { return disasm.SelectJumps(insts) }

// SelectHeapWrites is the paper's application A2: instrument all
// instructions that may write through heap pointers.
func SelectHeapWrites(insts []x86.Inst) []int { return disasm.SelectHeapWrites(insts) }

// SelectAll selects every instruction (stress-tests limitation L3).
func SelectAll(insts []x86.Inst) []int { return disasm.SelectAll(insts) }

// SelectAddresses selects the instructions starting at exactly the
// given virtual addresses (runtime coordinates, i.e. including PIEBase
// for PIE binaries) — the binary-patching use case, where the patch
// targets a handful of known locations.
func SelectAddresses(addrs ...uint64) Selector {
	want := make(map[uint64]bool, len(addrs))
	for _, a := range addrs {
		want[a] = true
	}
	sel := func(insts []x86.Inst) []int {
		var out []int
		for i := range insts {
			if want[insts[i].Addr] {
				out = append(out, i)
			}
		}
		return out
	}
	match.RegisterShardable(sel)
	return sel
}

// SelectMatch compiles an E9Tool-style matcher expression into a
// selector, e.g. "jcc & short", "heapwrite | call",
// "mnemonic=mov & !memwrite". See the match package for the grammar.
func SelectMatch(expr string) (Selector, error) {
	pred, err := match.Compile(expr)
	if err != nil {
		return nil, err
	}
	return match.Select(pred), nil
}

// Template builds trampoline code for displaced instructions; see the
// trampoline package for the built-in templates (Empty, Counter, Raw,
// Call) and the lowfat package for the hardening check.
type Template = trampoline.Template

// Injection is one extra memory image mapped into the rewritten
// binary's address space at load time, in runtime coordinates — how
// spec-language call patches ship their payload ELF segments. The
// pipeline validates that injections never overlap the input's own
// segments (page-rounded) or each other, and reserves their pages so
// no trampoline lands inside them.
type Injection = plan.Injection

// injectDefaultBase is where pipeline-allocated injections (the call
// template's argument tables) go when the configuration injects
// nothing of its own. It sits far above both link bases and PIEBase,
// and below the stack region.
const injectDefaultBase uint64 = 0xA_0000_0000

// RawTemplate adapts a code-emitting callback into a trampoline
// template, for arbitrary binary patches (the paper's Example 3.1).
// The callback receives the displaced instruction and the resume
// address (its original successor) and emits the full patch body.
func RawTemplate(code func(a *x86.Asm, inst *x86.Inst, resume uint64) error) Template {
	return trampoline.Raw{Code: code}
}

// Config controls a rewrite.
type Config struct {
	// Select picks the patch locations (required).
	Select Selector
	// Template builds the patch trampolines (default: empty
	// instrumentation that re-executes the displaced instruction).
	Template trampoline.Template
	// Patch carries tactic switches (DisableT1/T2/T3, B0Fallback, …).
	// Its Template fields are overridden by Template above.
	Patch patch.Options
	// Granularity is the physical-page-grouping block size in pages
	// (default 1 = most aggressive; <0 disables grouping entirely,
	// emitting a naïve one-to-one physical image).
	Granularity int
	// ReserveVA lists extra [lo, hi) ranges trampolines must avoid
	// (e.g. runtime-call addresses).
	ReserveVA [][2]uint64
	// Inject lists extra memory images to map into the output binary
	// (payload ELF segments for spec-language call patches). Addresses
	// are runtime coordinates; pages are reserved against trampoline
	// placement and recorded in the PatchPlan.
	Inject []Injection
	// SkipPrefix disassembles only after the first SkipPrefix bytes of
	// .text (the paper's ChromeMain workaround for data-in-text).
	SkipPrefix uint64
	// Disasm selects the instruction-recovery frontend (DisasmLinear,
	// DisasmSuperset, DisasmSupersetCET; the zero value is
	// DisasmLinear). The recovered set is the instruction universe
	// selectors match over and plans are bound to: a PatchPlan records
	// the mode plus a digest of the recovered set, and Apply rejects a
	// plan replayed under a different universe.
	Disasm DisasmMode
	// Parallelism bounds the worker goroutines used by the sharded
	// disassembly, matching and region-parallel patching phases
	// (default: GOMAXPROCS; 1 runs everything sequentially). The output
	// is byte-identical for every value — parallelism only changes
	// scheduling, never placement decisions.
	Parallelism int
	// Pool, when non-nil, is a shared bounded worker pool: concurrent
	// rewrites handed the same pool never exceed its size in total
	// helper goroutines, even while each also shards internally.
	Pool *Pool
	// Limits bounds the resources this rewrite may consume (input and
	// text size, patch sites, trampoline bytes, per-phase deadlines).
	// The zero value disables every bound; violations surface as
	// ErrResourceLimit.
	Limits Limits
}

// Result is the outcome of a rewrite.
type Result struct {
	// Output is the rewritten binary (original bytes + appended blob).
	Output []byte
	// Stats are the per-tactic patching statistics (Table 1).
	Stats patch.Stats
	// Group reports the physical page grouping outcome.
	Group group.Stats
	// Mappings is the number of load-time mmap calls required.
	Mappings int
	// InputSize and OutputSize are the file sizes in bytes.
	InputSize, OutputSize int
	// Insts is the number of recovered instructions; BadBytes the count
	// of undecodable bytes (offsets, for the superset modes) the
	// frontend skipped.
	Insts, BadBytes int
	// Disasm names the instruction-recovery mode the rewrite ran with
	// ("linear", "superset" or "superset-cet").
	Disasm string
	// Recovery carries the superset frontend's decode/prune statistics.
	// It is nil for linear mode and whenever recovery did not run in
	// this call: ApplyTrusted, and Apply of a plan without a universe
	// digest, replay the plan's decisions without re-disassembling.
	Recovery *DisasmStats
	// Bias is the load bias used during patching (PIEBase for PIE).
	Bias uint64
	// Trampolines is the number of trampolines emitted.
	Trampolines int
	// InjectedBytes is the total size of injected memory images
	// (payload segments and argument tables; 0 without injections).
	InjectedBytes int
	// Locations records the per-location outcome (address in runtime
	// coordinates and the tactic that succeeded), in patch order.
	Locations []patch.LocResult
	// Warnings lists non-fatal anomalies detected during the rewrite,
	// e.g. an address-based selector that matched nothing because its
	// addresses looked file-relative for a PIE binary.
	Warnings []string
}

// SizePercent returns the output/input file size ratio in percent
// (Table 1's Size% column, 0 when the input size is unknown).
func (r *Result) SizePercent() float64 {
	if r.InputSize == 0 {
		return 0
	}
	return 100 * float64(r.OutputSize) / float64(r.InputSize)
}

// PatchPlan is the serializable decision record produced by Plan and
// consumed by Apply: one entry per patch location carrying the chosen
// tactic, the committed byte edits, the trampoline layout (eviction
// chains included) and any B0 dispatch bindings. See internal/plan for
// the JSON schema and DESIGN.md §9 for the architecture.
type PatchPlan = plan.PatchPlan

// DecodePlan parses a plan previously rendered with PatchPlan.Encode,
// rejecting unknown schema versions.
func DecodePlan(data []byte) (*PatchPlan, error) { return plan.Decode(data) }

// Rewrite statically rewrites the binary according to cfg. The input
// slice is not modified.
//
// Rewrite is a one-selection Stream: it parses and disassembles the
// input once, runs cfg.Select, decides every patch location and
// composes the output straight from the live rewriter's state, with no
// PatchPlan in between. Callers that want the intermediate artefact (to
// cache, audit or ship it) use Plan and Apply, which reproduce
// Rewrite's output byte-for-byte.
func Rewrite(input []byte, cfg Config) (*Result, error) {
	return RewriteContext(context.Background(), input, cfg)
}

// ctxErr converts a context cancellation into the rewrite error
// returned at phase boundaries.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("e9patch: rewrite aborted: %w", err)
	}
	return nil
}

// phaseDeadline derives a per-phase context when Limits.PhaseTimeout is
// set; with no timeout the parent context is returned unchanged with a
// no-op cancel, so callers can treat both shapes uniformly.
func phaseDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// RewriteContext is Rewrite with cancellation: the pipeline checks ctx
// at every phase boundary (parse → disasm → match → patch →
// trampoline/group → emit) and inside the patching loop, so a rewrite
// whose caller has gone away stops early instead of emitting an output
// nobody will read. The returned error wraps ctx.Err() when aborted.
// Like PlanContext it is a recovery boundary: an escaped panic comes
// back as ErrInternal.
func RewriteContext(ctx context.Context, input []byte, cfg Config) (_ *Result, err error) {
	defer e9err.Recover("rewrite", &err)
	st, selected, warnings, err := openSelected(ctx, input, &cfg)
	if err != nil {
		return nil, err
	}
	return st.finish(ctx, input, &cfg, selected, warnings)
}

// Plan runs the decision phase only: disassemble, match, run the S1
// reverse-order tactic selection and allocate every trampoline against
// the binary's address space — without materializing an output. The
// returned plan is deterministic (planning twice yields byte-identical
// encodings), bound to the input by SHA-256, and Apply(input, plan)
// reproduces Rewrite(input, cfg) byte-for-byte. The input slice is not
// modified.
func Plan(input []byte, cfg Config) (*PatchPlan, error) {
	return PlanContext(context.Background(), input, cfg)
}

// PlanContext is Plan with cancellation (see RewriteContext). It is a
// recovery boundary: a panic escaping the pipeline — a rewriter bug
// tripped by unforeseen input — is contained and returned as
// ErrInternal with the stack attached, never propagated to the caller.
func PlanContext(ctx context.Context, input []byte, cfg Config) (_ *PatchPlan, err error) {
	defer e9err.Recover("plan", &err)
	st, selected, warnings, err := openSelected(ctx, input, &cfg)
	if err != nil {
		return nil, err
	}
	rw, inject, err := finishPlanPhase(ctx, st, &cfg, selected, false)
	if err != nil {
		return nil, err
	}
	p := &plan.PatchPlan{
		Version:      plan.Version,
		Bias:         st.bias,
		TextAddr:     st.textAddr + st.bias,
		TextLen:      len(st.text),
		Granularity:  cfg.Granularity,
		SkipPrefix:   cfg.SkipPrefix,
		Disasm:       string(st.mode),
		DisasmDigest: st.universeDigest(),
		Insts:        len(st.insts),
		BadBytes:     st.badBytes,
		Warnings:     warnings,
		Injections:   inject,
		Sites:        rw.Sites(),
	}
	p.BindInput(input)
	return p, nil
}

// Apply materializes a plan onto input: replay the recorded byte
// edits, group the recorded trampolines and append the loader blob.
// No decision logic runs — a plan produced on one machine can be
// audited and applied on another. The input must be the binary the
// plan was made for (checked via the bound SHA-256 and the text
// geometry); the input slice is not modified.
func Apply(input []byte, p *PatchPlan) (*Result, error) {
	return ApplyContext(context.Background(), input, p)
}

// ApplyContext is Apply with cancellation. Like PlanContext it is a
// recovery boundary: hostile plans are validated up front, and any
// residual panic is contained and returned as ErrInternal.
//
// When the plan carries a disassembly-universe digest, ApplyContext
// re-runs instruction recovery under the plan's recorded mode and
// requires the digests to match: a plan emitted under one mode (or
// against a different binary revision) is rejected instead of silently
// replaying byte edits into a universe the planner never saw.
func ApplyContext(ctx context.Context, input []byte, p *PatchPlan) (_ *Result, err error) {
	defer e9err.Recover("apply", &err)
	return applyContext(ctx, input, p, true)
}

// ApplyTrusted is ApplyTrustedContext without cancellation.
func ApplyTrusted(input []byte, p *PatchPlan) (*Result, error) {
	return ApplyTrustedContext(context.Background(), input, p)
}

// ApplyTrustedContext materializes a plan from a trusted producer —
// this process, or a cluster peer running the same build — without
// re-deriving the disassembly-universe digest that ApplyContext checks.
//
// It only accepts input-bound plans (non-empty InputSHA256, still
// verified against input): for a bound plan the recorded universe is a
// deterministic function of the mode and text bytes the hash already
// pins, so re-derivation can only re-prove what the binding
// established — at full instruction-recovery cost, which dominates
// Apply on large binaries. Every structural validation (text geometry,
// write bounds, injection ranges, tactic names) still runs; what is
// skipped is purely the redundant recovery pass. Plans from untrusted
// sources should keep going through ApplyContext, whose digest check
// rejects a plan that lies about its recovery mode.
func ApplyTrustedContext(ctx context.Context, input []byte, p *PatchPlan) (_ *Result, err error) {
	defer e9err.Recover("apply", &err)
	if p != nil && p.InputSHA256 == "" {
		return nil, e9err.Malformed("apply", "e9patch: ApplyTrusted requires an input-bound plan (empty inputSha256): use Apply")
	}
	return applyContext(ctx, input, p, false)
}

// applyContext materializes a plan. verifyUniverse selects whether the
// recorded disassembly digest is re-derived and checked (the public
// Apply surface) or trusted (ApplyTrusted).
func applyContext(ctx context.Context, input []byte, p *PatchPlan, verifyUniverse bool) (*Result, error) {
	if p == nil {
		return nil, e9err.Malformed("apply", "e9patch: nil plan")
	}
	if p.Version != plan.Version {
		return nil, e9err.Unsupported("apply", "e9patch: unsupported plan version %d (this build understands %d)", p.Version, plan.Version)
	}
	if p.Granularity > MaxGranularity {
		return nil, e9err.Unsupported("apply", "e9patch: plan granularity %d exceeds the maximum %d", p.Granularity, MaxGranularity)
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := p.CheckInput(input); err != nil {
		return nil, err
	}

	// Parse the input read-only: the compose path below never writes to
	// the parsed image, so no private copy is needed — input may be a
	// read-only mmap view.
	f, err := elf64.Parse(input)
	if err != nil {
		return nil, err
	}
	var bias uint64
	if f.IsPIE() {
		bias = PIEBase
	}
	if bias != p.Bias {
		return nil, e9err.Malformed("apply", "e9patch: plan load bias %#x does not match binary (%#x)", p.Bias, bias)
	}
	textOff, textAddr, textSize, err := f.TextRange()
	if err != nil {
		return nil, err
	}
	text := input[textOff : textOff+textSize]
	if textAddr+bias != p.TextAddr || len(text) != p.TextLen {
		return nil, e9err.Malformed("apply", "e9patch: plan text geometry %#x+%d does not match binary %#x+%d",
			p.TextAddr, p.TextLen, textAddr+bias, len(text))
	}
	mode, err := disasm.ParseMode(p.Disasm)
	if err != nil {
		return nil, e9err.Unsupported("apply", "e9patch: plan %v", err)
	}
	var sstats *disasm.SupersetStats
	if verifyUniverse && p.DisasmDigest != "" {
		// Re-derive the instruction universe under the plan's recorded
		// mode and bind it to the recorded digest: replaying under a
		// different mode (or a drifted binary) is a mismatch, not a
		// silent mispatch. Recovery is deterministic in width, so any
		// parallelism reproduces the planner's digest.
		if p.SkipPrefix > uint64(len(text)) {
			return nil, e9err.Malformed("apply", "e9patch: plan skip prefix %d exceeds .text size %d", p.SkipPrefix, len(text))
		}
		dres, stats, dok := disasm.RecoverCancel(mode, text[p.SkipPrefix:], textAddr+bias+p.SkipPrefix,
			runtime.GOMAXPROCS(0), nil, ctx.Done())
		if !dok {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			return nil, e9err.Internal("apply", "e9patch: disassembly aborted without a cancellation cause")
		}
		if got := disasm.UniverseDigest(mode, dres); got != p.DisasmDigest {
			return nil, e9err.Malformed("apply",
				"e9patch: plan's recorded %s-mode instruction universe does not match this binary (digest mismatch): replan, or apply under the mode the plan was emitted with", mode)
		}
		sstats = stats
	}
	// Injections come from the (possibly hostile) plan; revalidate them
	// against this binary before mapping anything.
	if err := validateInjections(p.Injections, f, bias, "apply"); err != nil {
		return nil, err
	}

	// Replay the decision stream: byte edits into a fresh text image,
	// trampolines and dispatch entries into the emit inputs, tactics
	// into the statistics. The accumulators are sized from the plan up
	// front — replay is decision-free, so the counts are exact.
	code := make([]byte, len(text))
	copy(code, text)
	nsig := 0
	for i := range p.Sites {
		nsig += len(p.Sites[i].SigTab)
	}
	var trs []patch.Trampoline
	var locs []patch.LocResult
	if n := p.TrampolineCount(); n > 0 {
		trs = make([]patch.Trampoline, 0, n)
	}
	if len(p.Sites) > 0 {
		locs = make([]patch.LocResult, 0, len(p.Sites))
	}
	sig := make(map[uint64]uint64, nsig)
	var stats patch.Stats
	for i := range p.Sites {
		s := &p.Sites[i]
		tac, ok := patch.TacticFromName(s.Tactic)
		if !ok {
			return nil, e9err.MalformedAt("apply", s.Addr, "e9patch: plan site: unknown tactic %q", s.Tactic)
		}
		stats.Total++
		if tac == patch.TacticNone {
			stats.Failed++
		} else {
			stats.ByTactic[tac]++
		}
		locs = append(locs, patch.LocResult{Addr: s.Addr, Tactic: tac})
		for _, wr := range s.Writes {
			o := int64(wr.Addr) - int64(p.TextAddr)
			if o < 0 || o+int64(len(wr.Data)) > int64(len(code)) {
				return nil, e9err.MalformedAt("apply", wr.Addr, "e9patch: plan write of %d bytes outside .text", len(wr.Data))
			}
			copy(code[o:], wr.Data)
		}
		for _, tr := range s.Trampolines {
			trs = append(trs, patch.Trampoline{Addr: tr.Addr, Code: tr.Code, ForAddr: tr.For, Evictee: tr.Evictee})
		}
		for _, se := range s.SigTab {
			sig[se.Int3] = se.Trampoline
		}
	}

	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	out, gres, err := materializeCompose(input, f, bias, textOff, code, trs, sig, p.Granularity, p.Injections)
	if err != nil {
		return nil, err
	}
	return &Result{
		Output:        out,
		Stats:         stats,
		Group:         gres.Stats,
		Mappings:      gres.Stats.Mappings,
		InputSize:     len(input),
		OutputSize:    len(out),
		Insts:         p.Insts,
		BadBytes:      p.BadBytes,
		Disasm:        string(mode),
		Recovery:      sstats,
		Bias:          bias,
		Trampolines:   len(trs),
		InjectedBytes: injectedBytes(p.Injections),
		Locations:     locs,
		Warnings:      p.Warnings,
	}, nil
}

// pipelineState is the parse+disassembly outcome shared by Rewrite,
// Plan and the streaming session: the decision phases that follow
// (selection, injections, patching) all run against it.
type pipelineState struct {
	f        *elf64.File
	bias     uint64
	textOff  uint64 // file offset of .text
	textAddr uint64 // link-time .text address
	text     []byte
	insts    []x86.Inst
	badBytes int
	width    int
	mode     disasm.Mode
	sstats   *disasm.SupersetStats // nil for linear mode
}

// universeDigest fingerprints the recovered instruction universe for
// plan binding.
func (st *pipelineState) universeDigest() string {
	return disasm.UniverseDigest(st.mode, disasm.Result{Insts: st.insts, BadBytes: st.badBytes})
}

// openPipeline runs the front half of the decision pipeline: normalize
// the configuration, enforce the input-side limits, parse the ELF and
// disassemble .text. cfg is normalized in place (template and
// granularity defaults). The pipeline only ever reads input, so it may
// be a read-only mmap view.
func openPipeline(ctx context.Context, input []byte, cfg *Config) (*pipelineState, error) {
	if cfg.Template == nil {
		cfg.Template = trampoline.Empty{}
	}
	if cfg.Granularity == 0 {
		cfg.Granularity = 1
	}
	if cfg.Granularity > MaxGranularity {
		return nil, e9err.Unsupported("plan", "e9patch: granularity %d exceeds the maximum %d", cfg.Granularity, MaxGranularity)
	}
	mode, err := disasm.ParseMode(string(cfg.Disasm))
	if err != nil {
		return nil, e9err.Unsupported("plan", "e9patch: %v", err)
	}
	cfg.Disasm = mode
	lim := cfg.Limits
	if lim.MaxInputBytes > 0 && int64(len(input)) > lim.MaxInputBytes {
		return nil, e9err.Limit("parse", e9err.ReasonInputTooLarge,
			"e9patch: input is %d bytes, limit is %d", len(input), lim.MaxInputBytes)
	}

	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	f, err := elf64.Parse(input)
	if err != nil {
		return nil, err
	}
	var bias uint64
	if f.IsPIE() {
		bias = PIEBase
	}

	textOff, textAddr, textSize, err := f.TextRange()
	if err != nil {
		return nil, err
	}
	text := f.Data[textOff : textOff+textSize]
	if lim.MaxTextBytes > 0 && int64(len(text)) > lim.MaxTextBytes {
		return nil, e9err.Limit("parse", e9err.ReasonTextTooLarge,
			"e9patch: .text is %d bytes, limit is %d", len(text), lim.MaxTextBytes)
	}
	if cfg.SkipPrefix > uint64(len(text)) {
		return nil, fmt.Errorf("e9patch: SkipPrefix %d exceeds .text size %d", cfg.SkipPrefix, len(text))
	}
	width := cfg.Parallelism
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}

	// The frontend: sharded instruction recovery under the configured
	// mode, locations and sizes only. Linear's sharded sweep provably
	// equals the sequential one (seam repair, see disasm.Parallel) and
	// the superset decode is per-offset independent, so shard geometry
	// is free to follow width in every mode.
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	dctx, dcancel := phaseDeadline(ctx, lim.PhaseTimeout)
	dres, sstats, dok := disasm.RecoverCancel(mode, text[cfg.SkipPrefix:], textAddr+bias+cfg.SkipPrefix, width, cfg.Pool, dctx.Done())
	if !dok {
		deadlined := errors.Is(dctx.Err(), context.DeadlineExceeded)
		dcancel()
		if deadlined {
			return nil, e9err.Limit("disasm", e9err.ReasonPhaseDeadline,
				"e9patch: disassembly exceeded the phase deadline %s", lim.PhaseTimeout)
		}
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		return nil, e9err.Internal("disasm", "e9patch: disassembly aborted without a cancellation cause")
	}
	dcancel()

	return &pipelineState{
		f:        f,
		bias:     bias,
		textOff:  textOff,
		textAddr: textAddr,
		text:     text,
		insts:    dres.Insts,
		badBytes: dres.BadBytes,
		width:    width,
		mode:     mode,
		sstats:   sstats,
	}, nil
}

// finishPlanPhase runs the decision phases that follow selection:
// injection preparation and validation, address-space reservation, and
// the S1 reverse-order patch loop with trampoline allocation. selected
// holds instruction indices in ascending order. skipPlan drops the
// per-location plan record for consumers that materialize straight
// from the live rewriter (Rewrite and the streaming session).
func finishPlanPhase(ctx context.Context, st *pipelineState, cfg *Config, selected []int, skipPlan bool) (*patch.Rewriter, []plan.Injection, error) {
	lim := cfg.Limits

	// Injection phase: copy the configured injections, give Preparer
	// templates (the call trampoline's argument tables) their
	// whole-selection pass with an allocator that appends further
	// injections, then validate the lot against the binary's segments.
	inject := make([]plan.Injection, 0, len(cfg.Inject))
	for _, inj := range cfg.Inject {
		d := make(plan.Bytes, len(inj.Data))
		copy(d, inj.Data)
		inject = append(inject, plan.Injection{Addr: inj.Addr, Data: d})
	}
	if prep, ok := cfg.Template.(trampoline.Preparer); ok {
		alloc := func(data []byte) (uint64, error) {
			base := injectionTop(inject)
			d := make(plan.Bytes, len(data))
			copy(d, data)
			inject = append(inject, plan.Injection{Addr: base, Data: d})
			return base, nil
		}
		if err := prep.Prepare(st.insts, selected, alloc); err != nil {
			return nil, nil, e9err.Wrap(e9err.ErrUnsupported, "plan", err)
		}
	}
	if err := validateInjections(inject, st.f, st.bias, "plan"); err != nil {
		return nil, nil, err
	}

	// Address-space model: all loaded segments are off limits
	// (page-rounded, since the loader maps whole pages), as are any
	// caller-reserved ranges.
	space := va.NewDefault()
	for _, p := range st.f.Progs {
		if p.Type != elf64.PTLoad || p.Memsz == 0 {
			continue
		}
		lo := (p.Vaddr + st.bias) &^ (elf64.PageSize - 1)
		hi := (p.Vaddr + st.bias + p.Memsz + elf64.PageSize - 1) &^ (elf64.PageSize - 1)
		if err := reserveMerged(space, lo, hi); err != nil {
			return nil, nil, err
		}
	}
	for _, iv := range cfg.ReserveVA {
		if err := reserveMerged(space, iv[0], iv[1]); err != nil {
			return nil, nil, err
		}
	}
	for _, inj := range inject {
		lo := inj.Addr &^ (elf64.PageSize - 1)
		hi := (inj.Addr + uint64(len(inj.Data)) + elf64.PageSize - 1) &^ (elf64.PageSize - 1)
		if err := reserveMerged(space, lo, hi); err != nil {
			return nil, nil, err
		}
	}
	_, loadHi := st.f.LoadBounds()
	poolHint := (loadHi + st.bias + 2*elf64.PageSize) &^ (elf64.PageSize - 1)

	// Patch phase: the heavy loop also polls ctx between locations.
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	popts := cfg.Patch
	popts.Template = cfg.Template
	popts.Workers = st.width
	popts.SkipPlan = skipPlan
	if cfg.Pool != nil {
		popts.Pool = cfg.Pool
	}
	if lim.MaxTrampolineBytes > 0 {
		popts.TrampolineBudget = lim.MaxTrampolineBytes
	}
	pctx, pcancel := phaseDeadline(ctx, lim.PhaseTimeout)
	popts.Cancel = pctx.Done()
	rw := patch.New(st.text, st.textAddr+st.bias, st.insts, space, poolHint, popts)
	rw.PatchAll(selected)
	deadlined := errors.Is(pctx.Err(), context.DeadlineExceeded)
	pcancel()
	if deadlined {
		return nil, nil, e9err.Limit("patch", e9err.ReasonPhaseDeadline,
			"e9patch: patching exceeded the phase deadline %s", lim.PhaseTimeout)
	}
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	if rw.LimitExceeded() {
		return nil, nil, e9err.Limit("patch", e9err.ReasonTrampolineBudget,
			"e9patch: emitted trampoline code exceeds the %d-byte budget", lim.MaxTrampolineBytes)
	}
	return rw, inject, nil
}

// openSelected is the front half Rewrite and Plan share: open the
// pipeline, run the one selector (sharded when it is shard-safe),
// enforce the patch-site limit and diagnose an empty selection.
func openSelected(ctx context.Context, input []byte, cfg *Config) (*pipelineState, []int, []string, error) {
	if cfg.Select == nil {
		return nil, nil, nil, errors.New("e9patch: Config.Select is required")
	}
	st, err := openPipeline(ctx, input, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, nil, nil, err
	}
	selected := parallelSelect(cfg.Select, st.insts, st.width, cfg.Pool)
	if lim := cfg.Limits; lim.MaxPatchSites > 0 && len(selected) > lim.MaxPatchSites {
		return nil, nil, nil, e9err.Limit("match", e9err.ReasonTooManySites,
			"e9patch: selector chose %d patch sites, limit is %d", len(selected), lim.MaxPatchSites)
	}
	return st, selected, diagnoseSelection(cfg.Select, st.insts, selected, st.bias), nil
}

// finish is the back half Rewrite and Stream.Finish share: run the
// decision phases over the final selection (ascending instruction
// indices) without a plan record, then compose the output straight from
// the live rewriter. Once patching has decided everything, the
// disassembly and the rewriter's decision state are released before
// the output is materialized, so the emit-phase peak holds only the
// patched text, the trampolines and the output image. st is spent
// afterwards.
func (st *pipelineState) finish(ctx context.Context, input []byte, cfg *Config, selected []int, warnings []string) (*Result, error) {
	rw, inject, err := finishPlanPhase(ctx, st, cfg, selected, true)
	if err != nil {
		return nil, err
	}
	code, trs, sigTab := rw.Code(), rw.Trampolines(), rw.SigTab()
	res := &Result{
		Stats:         rw.Stats(),
		InputSize:     len(input),
		Insts:         len(st.insts),
		BadBytes:      st.badBytes,
		Disasm:        string(st.mode),
		Recovery:      st.sstats,
		Bias:          st.bias,
		Trampolines:   len(trs),
		InjectedBytes: injectedBytes(inject),
		Locations:     rw.Results(),
		Warnings:      warnings,
	}
	// rw is dead from here on; drop the instruction array it shared.
	st.insts = nil

	out, gres, err := materializeCompose(input, st.f, st.bias, st.textOff, code, trs, sigTab, cfg.Granularity, inject)
	if err != nil {
		return nil, err
	}
	res.Output, res.OutputSize = out, len(out)
	res.Group, res.Mappings = gres.Stats, gres.Stats.Mappings
	return res, nil
}

// buildBlob is the emit core shared by every materialization path:
// group trampolines and injections into merged physical blocks
// (addresses stored link-relative so the loader can apply any bias) and
// encode the loader blob. entry is the output binary's entry point.
func buildBlob(entry, bias uint64, trs []patch.Trampoline, sig map[uint64]uint64, gran int, inject []plan.Injection) ([]byte, *group.Result, error) {
	chunks := make([]group.Chunk, len(trs), len(trs)+len(inject))
	for i, tr := range trs {
		chunks[i] = group.Chunk{Addr: tr.Addr - bias, Data: tr.Code}
	}
	// Injections ride the same blob: addresses are stored link-relative
	// like trampoline chunks (the subtraction may wrap for a PIE bias —
	// the loader's bias addition wraps back to the absolute address).
	for _, inj := range inject {
		chunks = append(chunks, group.Chunk{Addr: inj.Addr - bias, Data: inj.Data})
	}
	naive := false
	if gran < 0 {
		gran, naive = 1, true
	}
	gres, err := group.Build(chunks, gran)
	if err != nil {
		// Grouping rejects overlapping or inconsistent trampoline
		// layouts; the plan pipeline never produces them, so reaching
		// this from Apply means the plan itself was bad.
		return nil, nil, e9err.Wrap(e9err.ErrMalformed, "emit", err)
	}
	if naive {
		gres = ungroup(gres)
	}
	shifted := make(map[uint64]uint64, len(sig))
	for k, v := range sig {
		shifted[k-bias] = v - bias
	}
	return loader.Encode(gres, gran, shifted, entry), gres, nil
}

// materializeCompose is the emit tail shared by every path: it never
// writes to the parsed file, instead composing the output in a single
// allocation from the original bytes, the patched text image and the
// loader blob. input must be the exact bytes f was parsed from (it may
// be a read-only mmap view), and code overlays .text at textOff as
// validated by TextRange.
func materializeCompose(input []byte, f *elf64.File, bias, textOff uint64, code []byte, trs []patch.Trampoline, sig map[uint64]uint64, gran int, inject []plan.Injection) ([]byte, *group.Result, error) {
	blob, gres, err := buildBlob(f.Header.Entry, bias, trs, sig, gran, inject)
	if err != nil {
		return nil, nil, err
	}
	return elf64.Compose(input, textOff, code, blob), gres, nil
}

// injectedBytes sums the injected image sizes.
func injectedBytes(inject []plan.Injection) int {
	n := 0
	for _, inj := range inject {
		n += len(inj.Data)
	}
	return n
}

// injectionTop returns the page-aligned address just past the highest
// existing injection, where the pipeline allocates its own tables —
// right above the payload so the whole injected region stays compact.
// With no injections configured it falls back to injectDefaultBase.
func injectionTop(inject []plan.Injection) uint64 {
	top := injectDefaultBase
	for _, inj := range inject {
		if end := (inj.Addr + uint64(len(inj.Data)) + elf64.PageSize - 1) &^ (elf64.PageSize - 1); end > top {
			top = end
		}
	}
	return top
}

// validateInjections rejects injection lists that could corrupt the
// output: empty or address-wrapping images, images overlapping each
// other, and images overlapping the binary's own loaded segments
// (page-rounded — the loader maps whole pages, and injected pages are
// mapped before the input's segments). phase is "plan" (a
// configuration mistake, ErrUnsupported) or "apply" (a hostile plan,
// ErrMalformed).
func validateInjections(inject []plan.Injection, f *elf64.File, bias uint64, phase string) error {
	if len(inject) == 0 {
		return nil
	}
	fail := func(format string, args ...any) error {
		if phase == "apply" {
			return e9err.Malformed(phase, format, args...)
		}
		return e9err.Unsupported(phase, format, args...)
	}
	type span struct{ lo, hi uint64 }
	spans := make([]span, 0, len(inject))
	for _, inj := range inject {
		if len(inj.Data) == 0 {
			return fail("e9patch: empty injection at %#x", inj.Addr)
		}
		end := inj.Addr + uint64(len(inj.Data))
		if end < inj.Addr {
			return fail("e9patch: injection at %#x wraps the address space", inj.Addr)
		}
		lo := inj.Addr &^ (elf64.PageSize - 1)
		hi := (end + elf64.PageSize - 1) &^ (elf64.PageSize - 1)
		for _, p := range f.Progs {
			if p.Type != elf64.PTLoad || p.Memsz == 0 {
				continue
			}
			slo := (p.Vaddr + bias) &^ (elf64.PageSize - 1)
			shi := (p.Vaddr + bias + p.Memsz + elf64.PageSize - 1) &^ (elf64.PageSize - 1)
			if lo < shi && slo < hi {
				return fail("e9patch: injection [%#x,%#x) overlaps loaded segment [%#x,%#x)",
					inj.Addr, end, p.Vaddr+bias, p.Vaddr+bias+p.Memsz)
			}
		}
		for _, s := range spans {
			if inj.Addr < s.hi && s.lo < end {
				return fail("e9patch: injection [%#x,%#x) overlaps another injection", inj.Addr, end)
			}
		}
		spans = append(spans, span{lo: inj.Addr, hi: end})
	}
	return nil
}

// parallelSelect evaluates the selector, sharding the instruction
// slice across workers when the selector is registered as
// per-instruction pure (match.Shardable); shard results are index-
// offset and concatenated, which equals the sequential evaluation
// exactly. Unregistered selectors always run sequentially.
func parallelSelect(sel Selector, insts []x86.Inst, width int, pool *work.Pool) []int {
	const minShardInsts = 4096
	nsh := len(insts) / minShardInsts
	if most := width * 4; nsh > most {
		nsh = most
	}
	if width <= 1 || nsh <= 1 || !match.Shardable(sel) {
		return sel(insts)
	}
	parts := make([][]int, nsh)
	work.ForEach(pool, width, nsh, func(i int) {
		lo := i * len(insts) / nsh
		hi := (i + 1) * len(insts) / nsh
		part := sel(insts[lo:hi])
		for j := range part {
			part[j] += lo
		}
		parts[i] = part
	})
	var out []int
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// diagnoseSelection explains an empty selection caused by the most
// common address-coordinate mix-up: an address-based selector
// (SelectAddresses or an addr= matcher) fed addresses in the wrong
// coordinate system. PIE instructions carry runtime addresses (file
// address + PIEBase), non-PIE instructions carry link-time addresses.
// The check is selector-agnostic: re-run the selector over a view of
// the disassembly shifted into the other coordinate system; if it now
// matches, the input addresses were in the wrong one.
func diagnoseSelection(sel Selector, insts []x86.Inst, selected []int, bias uint64) []string {
	if len(selected) != 0 || len(insts) == 0 {
		return nil
	}
	shifted := make([]x86.Inst, len(insts))
	copy(shifted, insts)
	if bias != 0 {
		for i := range shifted {
			shifted[i].Addr -= bias
		}
		if n := len(sel(shifted)); n != 0 {
			return []string{fmt.Sprintf(
				"0 locations selected, but %d would match without the PIE load bias: "+
					"input addresses looked file-relative (< PIEBase); pass runtime "+
					"addresses (file address + e9patch.PIEBase) for PIE binaries", n)}
		}
		return nil
	}
	// Non-PIE: the converse mistake — runtime-style (PIEBase-shifted)
	// addresses fed to a binary loaded at its link address.
	for i := range shifted {
		shifted[i].Addr += PIEBase
	}
	if n := len(sel(shifted)); n != 0 {
		return []string{fmt.Sprintf(
			"0 locations selected, but %d would match with the PIE load bias "+
				"added: input addresses looked PIE-runtime-relative (>= PIEBase), "+
				"but this binary is not PIE; pass link-time addresses", n)}
	}
	return nil
}

// reserveMerged reserves [lo, hi), tolerating overlap with existing
// reservations (segments may share page-rounded boundaries; broad
// exclusion zones may span already-reserved runtime regions).
func reserveMerged(s *va.Space, lo, hi uint64) error {
	if lo < s.Min() {
		lo = s.Min()
	}
	if hi > s.Max() {
		hi = s.Max()
	}
	cursor := lo
	for cursor < hi {
		// Skip any occupied interval covering the cursor.
		if iv, ok := s.Floor(cursor); ok && iv.Hi > cursor {
			cursor = iv.Hi
			continue
		}
		gapEnd := hi
		if next, ok := s.Ceiling(cursor); ok && next.Lo < hi {
			gapEnd = next.Lo
		}
		if gapEnd > cursor {
			if err := s.Reserve(cursor, gapEnd); err != nil {
				return err
			}
		}
		cursor = gapEnd
	}
	return nil
}

// ungroup expands a grouped result into the naïve one-to-one physical
// mapping (grouping disabled, for the §6.1 file-size ablation).
func ungroup(g *group.Result) *group.Result {
	out := &group.Result{Stats: g.Stats}
	for _, mp := range g.Mappings {
		out.Blocks = append(out.Blocks, g.Blocks[mp.Phys])
		out.Mappings = append(out.Mappings, group.Mapping{Vaddr: mp.Vaddr, Phys: len(out.Blocks) - 1})
	}
	out.Stats.PhysBlocks = len(out.Blocks)
	return out
}

// Load builds an executable image from an original or rewritten binary
// in the given machine, returning the entry point. PIE binaries are
// loaded at PIEBase.
func Load(m *emu.Machine, file []byte) (uint64, error) {
	f, err := elf64.Parse(file)
	if err != nil {
		return 0, err
	}
	var bias uint64
	if f.IsPIE() {
		bias = PIEBase
	}
	return loader.BuildImage(m, file, loader.Options{Bias: bias})
}
