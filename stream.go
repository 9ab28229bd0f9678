package e9patch

import (
	"context"
	"sort"

	"e9patch/internal/e9err"
	"e9patch/internal/x86"
)

// Stream is an incremental rewrite session: the binary is parsed and
// disassembled once, patch selections arrive progressively — the
// JSON-RPC backend feeds one Select or SelectAddrs call per protocol
// message — and Finish runs the decision and emit phases over the
// accumulated union. The output is byte-identical to a single-shot
// Rewrite whose selector matches the same locations.
//
// The input slice is never written: callers may hand a Stream the
// read-only mmap view from elf64.OpenInput, so a browser-class binary
// is paged in by the kernel on demand and never occupies the Go heap.
// A Stream is not safe for concurrent use; drive it from one goroutine
// (the protocol layer is sequential by construction).
type Stream struct {
	cfg      Config
	input    []byte
	st       *pipelineState
	insts    int // cached count: st is released during Finish
	badBytes int
	seen     map[int]struct{} // built on the first add that needs dedup
	selected []int
	diag     []Selector // replayed for coordinate diagnostics when nothing matched
	closed   bool
}

// NewStream opens an incremental session over input. Unlike Rewrite,
// cfg.Select is optional here: when set it contributes the initial
// selection, and every later Select/SelectAddrs adds to the union.
// Parsing and disassembly happen now; all Limits except the per-site
// cap are enforced here too.
func NewStream(ctx context.Context, input []byte, cfg Config) (_ *Stream, err error) {
	defer e9err.Recover("stream", &err)
	st, err := openPipeline(ctx, input, &cfg)
	if err != nil {
		return nil, err
	}
	s := &Stream{
		cfg: cfg, input: input, st: st,
		insts: len(st.insts), badBytes: st.badBytes,
	}
	if cfg.Select != nil {
		if _, err := s.Select(cfg.Select); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Insts returns the number of disassembled instructions.
func (s *Stream) Insts() int { return s.insts }

// BadBytes returns the count of undecodable bytes (offsets, for the
// superset modes) the recovery frontend skipped.
func (s *Stream) BadBytes() int { return s.badBytes }

// Selected returns the number of distinct patch locations accumulated
// so far.
func (s *Stream) Selected() int { return len(s.selected) }

// guard rejects use after Finish.
func (s *Stream) guard() error {
	if s.closed {
		return e9err.Malformed("stream", "e9patch: stream session already finished")
	}
	return nil
}

// add merges newly selected instruction indices into the session,
// returning how many were new. The patch-site limit is enforced
// incrementally so a hostile stream fails at the message that crosses
// the cap instead of after buffering an unbounded selection.
//
// A first selection that is already strictly ascending (as the
// built-in selectors return it) is adopted as is, so a one-selection
// session — Rewrite's shape — keeps no dedup state at all; the set is
// built only once a second selection arrives.
func (s *Stream) add(idxs []int) (int, error) {
	added := 0
	if len(s.selected) == 0 && ascending(idxs) {
		// Cap the adopted slice so a later append never writes into
		// the selector's backing array.
		s.selected, added = idxs[:len(idxs):len(idxs)], len(idxs)
	} else {
		if s.seen == nil {
			s.seen = make(map[int]struct{}, len(s.selected)+len(idxs))
			for _, i := range s.selected {
				s.seen[i] = struct{}{}
			}
		}
		for _, i := range idxs {
			if _, dup := s.seen[i]; dup {
				continue
			}
			s.seen[i] = struct{}{}
			s.selected = append(s.selected, i)
			added++
		}
	}
	if lim := s.cfg.Limits; lim.MaxPatchSites > 0 && len(s.selected) > lim.MaxPatchSites {
		return added, e9err.Limit("match", e9err.ReasonTooManySites,
			"e9patch: stream selected %d patch sites, limit is %d", len(s.selected), lim.MaxPatchSites)
	}
	return added, nil
}

// ascending reports whether idxs is strictly ascending (so also free of
// duplicates).
func ascending(idxs []int) bool {
	for k := 1; k < len(idxs); k++ {
		if idxs[k] <= idxs[k-1] {
			return false
		}
	}
	return true
}

// Select runs a selector over the disassembly and merges its matches
// into the session, returning the number of locations that were new.
func (s *Stream) Select(sel Selector) (_ int, err error) {
	defer e9err.Recover("stream", &err)
	if err := s.guard(); err != nil {
		return 0, err
	}
	if sel == nil {
		return 0, e9err.Malformed("stream", "e9patch: nil selector")
	}
	s.diag = append(s.diag, sel)
	return s.add(parallelSelect(sel, s.st.insts, s.st.width, s.cfg.Pool))
}

// SelectAddrs merges the instructions starting at exactly the given
// runtime virtual addresses (PIEBase included for PIE binaries) —
// the streaming counterpart of SelectAddresses. Each address is a
// binary search over the address-ascending disassembly, so per-message
// cost is O(k log n) rather than a full instruction sweep; addresses
// that hit no instruction boundary are silently unmatched, surfacing
// only through the return count and the empty-selection diagnostics.
func (s *Stream) SelectAddrs(addrs ...uint64) (int, error) {
	if err := s.guard(); err != nil {
		return 0, err
	}
	insts := s.st.insts
	idxs := make([]int, 0, len(addrs))
	for _, a := range addrs {
		i := sort.Search(len(insts), func(i int) bool { return insts[i].Addr >= a })
		if i < len(insts) && insts[i].Addr == a {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) < len(addrs) {
		// Remember the misses so Finish can diagnose the classic
		// coordinate mix-up if the whole session matched nothing.
		missed := append([]uint64(nil), addrs...)
		s.diag = append(s.diag, func(insts []x86.Inst) []int {
			var out []int
			for _, a := range missed {
				i := sort.Search(len(insts), func(i int) bool { return insts[i].Addr >= a })
				if i < len(insts) && insts[i].Addr == a {
					out = append(out, i)
				}
			}
			return out
		})
	}
	return s.add(idxs)
}

// Reserve adds [lo, hi) to the virtual-address ranges trampolines must
// avoid, like Config.ReserveVA. Reservations take effect at Finish, so
// they may arrive any time before it.
func (s *Stream) Reserve(lo, hi uint64) error {
	if err := s.guard(); err != nil {
		return err
	}
	if hi <= lo {
		return e9err.Malformed("stream", "e9patch: empty reservation [%#x,%#x)", lo, hi)
	}
	s.cfg.ReserveVA = append(s.cfg.ReserveVA, [2]uint64{lo, hi})
	return nil
}

// Finish runs the remaining decision phases (injection preparation,
// address-space reservation, S1 patching) over the accumulated
// selection and emits the rewritten binary via the single-allocation
// compose path. The session cannot be used afterwards.
//
// A session has no plan artifact to keep: once patching has decided
// everything, the disassembly, the selection bookkeeping and the
// rewriter's decision state are released before the output is
// materialized. On browser-class inputs that — plus the mmap'd input
// staying off the heap — is what keeps the streaming session's peak
// memory under a buffered rewrite's.
func (s *Stream) Finish(ctx context.Context) (_ *Result, err error) {
	defer e9err.Recover("stream", &err)
	if err := s.guard(); err != nil {
		return nil, err
	}
	s.closed = true
	sort.Ints(s.selected)

	var warnings []string
	if len(s.selected) == 0 {
		for _, sel := range s.diag {
			warnings = append(warnings, diagnoseSelection(sel, s.st.insts, nil, s.st.bias)...)
		}
	}
	st, selected := s.st, s.selected
	s.st, s.seen, s.selected, s.diag = nil, nil, nil, nil
	return st.finish(ctx, s.input, &s.cfg, selected, warnings)
}
