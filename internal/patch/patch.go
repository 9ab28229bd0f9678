// Package patch implements E9Patch's control-flow-agnostic rewriting
// core: the baseline methodologies B0 (int3), B1 (direct jump) and B2
// (instruction punning), the coverage-boosting tactics T1 (padded
// jumps), T2 (successor eviction) and T3 (neighbour eviction), and the
// reverse-order patching strategy S1 with its per-byte lock state.
//
// The rewriter mutates a copy of the text section strictly in place;
// trampolines are allocated in the binary's virtual address space and
// their code is emitted by trampoline templates. No control-flow
// information is consumed: every decision depends only on instruction
// locations/sizes, raw byte values and address-space geometry.
package patch

import (
	"fmt"
	"sort"

	"e9patch/internal/plan"
	"e9patch/internal/trampoline"
	"e9patch/internal/va"
	"e9patch/internal/work"
	"e9patch/internal/x86"
)

// Tactic identifies which patching methodology succeeded for a
// location.
type Tactic uint8

// Tactics in escalation order.
const (
	// TacticNone marks an unpatched location.
	TacticNone Tactic = iota
	// TacticB1 is a direct 5-byte jump (instruction length >= 5).
	TacticB1
	// TacticB2 is baseline instruction punning (unpadded).
	TacticB2
	// TacticT1 is a padded punned jump.
	TacticT1
	// TacticT2 is successor eviction followed by re-punning.
	TacticT2
	// TacticT3 is neighbour eviction with a short-jump double jump.
	TacticT3
	// TacticB0 is the int3/signal-handler fallback.
	TacticB0

	numTactics
)

var tacticNames = [...]string{"none", "B1", "B2", "T1", "T2", "T3", "B0"}

func (t Tactic) String() string {
	if int(t) < len(tacticNames) {
		return tacticNames[t]
	}
	return fmt.Sprintf("tactic(%d)", uint8(t))
}

// TacticFromName is the inverse of Tactic.String, used when replaying
// a serialized plan.
func TacticFromName(name string) (Tactic, bool) {
	for i, n := range tacticNames {
		if n == name {
			return Tactic(i), true
		}
	}
	return TacticNone, false
}

// Options configures the rewriter.
type Options struct {
	// Template builds patch trampolines. Defaults to the empty
	// instrumentation.
	Template trampoline.Template
	// EvictionTemplate builds evictee trampolines for T2/T3 victims.
	// Defaults to the empty instrumentation (the paper's definition of
	// an evictee trampoline).
	EvictionTemplate trampoline.Template
	// DisableT1/T2/T3 turn individual tactics off (ablations).
	DisableT1 bool
	DisableT2 bool
	DisableT3 bool
	// B0Fallback patches locations all tactics failed on with int3,
	// relying on a SIGTRAP dispatcher at run time.
	B0Fallback bool
	// ForceB0 patches every location with int3 (the §2.1.1 baseline),
	// bypassing all jump-based tactics.
	ForceB0 bool
	// T2Candidates bounds the evictee placements probed by guided
	// successor eviction (default 6).
	T2Candidates int
	// TrampolineAlign aligns trampoline starts (default 1; punned
	// windows cannot afford alignment, so this applies only to
	// unconstrained allocations).
	TrampolineAlign uint64
	// Cancel, when non-nil, makes PatchAll stop between locations once
	// the channel is closed (typically a context's Done channel).
	// Remaining locations are left unpatched; the caller is expected
	// to notice the cancellation and discard the partial result.
	Cancel <-chan struct{}
	// Workers is the maximum number of regions patched concurrently
	// (<=1: sequential). The patched output is byte-identical for every
	// value — see parallel.go; Workers only changes scheduling.
	Workers int
	// Pool, when non-nil, bounds helper goroutines globally so that
	// concurrent rewrites sharing the pool cannot oversubscribe the
	// machine. Without a pool each PatchAll may use up to Workers
	// goroutines of its own.
	Pool *work.Pool
	// MinRegionSize is the minimum number of patch locations per
	// parallel region (default 64). It shapes the deterministic region
	// decomposition, so changing it changes the output; Workers does
	// not.
	MinRegionSize int
	// TrampolineBudget, when > 0, bounds the total bytes of emitted
	// trampoline code. Once exceeded the rewriter stops patching and
	// reports LimitExceeded; the caller fails the rewrite with a typed
	// resource-limit error instead of letting a hostile selection
	// allocate without bound.
	TrampolineBudget int64
	// SkipPlan disables the per-location plan record (Sites returns
	// nil). Consumers that materialize directly from the live rewriter —
	// e9patch.Rewrite and the streaming session — never read the
	// record, and on browser-class inputs the duplicated write and
	// trampoline bytes it holds are a significant fraction of peak
	// memory.
	SkipPlan bool
}

// Trampoline is one emitted trampoline.
type Trampoline struct {
	// Addr is the trampoline's virtual address.
	Addr uint64
	// Code is the emitted machine code.
	Code []byte
	// ForAddr is the patched or evicted instruction's address.
	ForAddr uint64
	// Evictee reports whether this trampoline replaces an evicted
	// victim rather than implementing a patch.
	Evictee bool
}

// LocResult records the outcome for one patch location.
type LocResult struct {
	// Addr is the patch instruction's address.
	Addr uint64
	// Tactic is the methodology that succeeded (TacticNone if all
	// failed and no B0 fallback was requested).
	Tactic Tactic
}

// Stats aggregates patching outcomes, mirroring Table 1's columns.
type Stats struct {
	// Total is the number of patch locations attempted.
	Total int
	// ByTactic counts successes per tactic.
	ByTactic [numTactics]int
	// Failed counts locations no tactic could patch.
	Failed int
}

// Patched returns the total number of successfully patched locations.
func (s *Stats) Patched() int { return s.Total - s.Failed }

// Percent returns 100*n/Total (0 when empty).
func (s *Stats) Percent(n int) float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(s.Total)
}

// BasePercent returns the Table 1 "Base%" column (B1+B2).
func (s *Stats) BasePercent() float64 {
	return s.Percent(s.ByTactic[TacticB1] + s.ByTactic[TacticB2])
}

// SuccPercent returns the Table 1 "Succ%" column.
func (s *Stats) SuccPercent() float64 { return s.Percent(s.Patched()) }

// Rewriter patches one text section.
type Rewriter struct {
	code     []byte
	textAddr uint64
	insts    []x86.Inst
	locked   []bool
	space    *va.Space
	opts     Options

	trampolines []Trampoline
	results     []LocResult
	sigTab      map[uint64]uint64 // B0: int3 address -> trampoline
	stats       Stats

	// sites is the plan record: one entry per patch location, holding
	// every committed effect (emit.go). cur is the entry being built
	// for the location currently inside patchOne.
	sites []plan.Site
	cur   *plan.Site

	// hint is the bump cursor for unconstrained allocations.
	hint uint64

	// trampBytes sums emitted trampoline code bytes; limited flips once
	// Options.TrampolineBudget is exceeded and stops further patching.
	trampBytes int64
	limited    bool

	// Region-parallel state (parallel.go). arena, when non-nil, serves
	// unconstrained allocations from a pre-reserved range; speculating
	// journals space operations for deterministic replay; redone counts
	// regions that conflicted at commit and were re-patched.
	arena       *arena
	speculating bool
	journal     []spaceOp
	redone      int
}

// New creates a rewriter over a mutable copy of code. The space must
// already contain reservations for every loaded segment of the binary
// (and anything else trampolines may not overlap). poolHint seeds the
// preferred region for unconstrained trampoline allocation (typically
// just above the binary's highest loaded address).
func New(code []byte, textAddr uint64, insts []x86.Inst, space *va.Space, poolHint uint64, opts Options) *Rewriter {
	if opts.Template == nil {
		opts.Template = trampoline.Empty{}
	}
	if opts.EvictionTemplate == nil {
		opts.EvictionTemplate = trampoline.Empty{}
	}
	if opts.T2Candidates == 0 {
		opts.T2Candidates = 6
	}
	mutable := make([]byte, len(code))
	copy(mutable, code)
	return &Rewriter{
		code:     mutable,
		textAddr: textAddr,
		insts:    insts,
		locked:   make([]bool, len(code)),
		space:    space,
		opts:     opts,
		sigTab:   make(map[uint64]uint64),
		hint:     poolHint,
	}
}

// Code returns the (patched) text bytes.
func (r *Rewriter) Code() []byte { return r.code }

// Trampolines returns all emitted trampolines.
func (r *Rewriter) Trampolines() []Trampoline { return r.trampolines }

// Results returns per-location outcomes in patch order.
func (r *Rewriter) Results() []LocResult { return r.results }

// SigTab returns the B0 dispatch table (int3 address -> trampoline).
func (r *Rewriter) SigTab() map[uint64]uint64 { return r.sigTab }

// Sites returns the recorded per-location plan entries in patch order;
// flattened, their trampolines equal Trampolines() exactly.
func (r *Rewriter) Sites() []plan.Site { return r.sites }

// Stats returns aggregate patching statistics.
func (r *Rewriter) Stats() Stats { return r.stats }

// LimitExceeded reports whether patching stopped because the
// trampoline byte budget ran out; the partial result must be
// discarded.
func (r *Rewriter) LimitExceeded() bool { return r.limited }

// off converts a text virtual address to a byte offset.
func (r *Rewriter) off(addr uint64) int { return int(addr - r.textAddr) }

// instAt returns the index of the instruction starting exactly at addr.
// The linear disassembly is address-ascending, so a binary search
// serves exact-address lookups without the map[uint64]int it replaced —
// on browser-class inputs that map cost ~40 bytes of heap per
// instruction (a gigabyte at 25M instructions) for two lookup sites.
func (r *Rewriter) instAt(addr uint64) (int, bool) {
	i := sort.Search(len(r.insts), func(i int) bool { return r.insts[i].Addr >= addr })
	if i < len(r.insts) && r.insts[i].Addr == addr {
		return i, true
	}
	return 0, false
}

// inText reports whether [addr, addr+n) lies inside the text section.
func (r *Rewriter) inText(addr uint64, n int) bool {
	o := int64(addr) - int64(r.textAddr)
	return o >= 0 && o+int64(n) <= int64(len(r.code))
}

// anyLocked reports whether any byte of [addr, addr+n) is locked.
func (r *Rewriter) anyLocked(addr uint64, n int) bool {
	o := r.off(addr)
	for i := 0; i < n; i++ {
		if r.locked[o+i] {
			return true
		}
	}
	return false
}

// lock marks [addr, addr+n) locked (modified or punned bytes).
func (r *Rewriter) lock(addr uint64, n int) {
	o := r.off(addr)
	for i := 0; i < n; i++ {
		r.locked[o+i] = true
	}
}

// PatchAll applies the reverse-order strategy S1: locations are patched
// from highest to lowest address so that puns only ever depend on bytes
// that are already final.
// When the order decomposes into more than one guard-band-separated
// region, the regions are patched speculatively in parallel and
// committed deterministically (parallel.go); otherwise the classic
// sequential path runs. The path taken depends only on the workload,
// never on Options.Workers, so output bytes are identical for every
// worker count.
func (r *Rewriter) PatchAll(indices []int) Stats {
	order := make([]int, len(indices))
	copy(order, indices)
	sort.Slice(order, func(a, b int) bool {
		return r.insts[order[a]].Addr > r.insts[order[b]].Addr
	})
	if regions := r.decompose(order); len(regions) > 1 {
		r.patchRegions(regions)
		return r.stats
	}
	r.runRegion(order)
	return r.stats
}

// patchOne escalates through the tactics for a single location. The
// tactic functions decide; their committed effects are recorded into
// the site's plan entry by the emit half (emit.go).
func (r *Rewriter) patchOne(idx int) {
	inst := &r.insts[idx]
	r.stats.Total++
	r.beginSite(inst.Addr)

	tactic := TacticNone
	switch {
	case r.opts.ForceB0:
		if r.tryInt3(inst) {
			tactic = TacticB0
		}
	case r.tryPunnedJump(inst):
		if inst.Len >= 5 {
			tactic = TacticB1
		} else {
			tactic = TacticB2
		}
	case !r.opts.DisableT1 && r.tryPaddedJump(inst):
		tactic = TacticT1
	case !r.opts.DisableT2 && r.trySuccessorEviction(inst):
		tactic = TacticT2
	case !r.opts.DisableT3 && r.tryNeighbourEviction(inst):
		tactic = TacticT3
	case r.opts.B0Fallback && r.tryInt3(inst):
		tactic = TacticB0
	}

	if tactic == TacticNone {
		r.stats.Failed++
	} else {
		r.stats.ByTactic[tactic]++
	}
	r.endSite(tactic)
	r.results = append(r.results, LocResult{Addr: inst.Addr, Tactic: tactic})
}
