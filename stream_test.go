package e9patch

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// TestStreamMatchesRewrite is the streaming differential: a session fed
// the whole selection at once, or split across many Select/SelectAddrs
// messages (with overlap), must reproduce the single-shot Rewrite
// byte-for-byte for the paper applications A1 and A2 across the corpus.
func TestStreamMatchesRewrite(t *testing.T) {
	ctx := context.Background()
	for _, be := range planCorpus(t) {
		for _, app := range []struct {
			name string
			sel  Selector
		}{{"A1", SelectJumps}, {"A2", SelectHeapWrites}} {
			label := fmt.Sprintf("%s/%s", be.name, app.name)
			cfg := Config{Select: app.sel, ReserveVA: workload.ReserveVA()}
			want, err := Rewrite(be.bin, cfg)
			if err != nil {
				t.Fatalf("%s: rewrite: %v", label, err)
			}

			// One-shot session: selector in the config.
			s, err := NewStream(ctx, be.bin, cfg)
			if err != nil {
				t.Fatalf("%s: stream: %v", label, err)
			}
			got, err := s.Finish(ctx)
			if err != nil {
				t.Fatalf("%s: finish: %v", label, err)
			}
			if !bytes.Equal(want.Output, got.Output) {
				t.Errorf("%s: one-shot stream output differs from Rewrite", label)
			}
			if want.Stats != got.Stats {
				t.Errorf("%s: stats differ: %+v vs %+v", label, want.Stats, got.Stats)
			}

			// Chunked session: the same locations drip in as address
			// batches, repeated once to exercise dedup.
			scfg := cfg
			scfg.Select = nil
			s2, err := NewStream(ctx, be.bin, scfg)
			if err != nil {
				t.Fatalf("%s: stream2: %v", label, err)
			}
			var addrs []uint64
			for _, loc := range want.Locations {
				addrs = append(addrs, loc.Addr)
			}
			const chunk = 7
			for lo := 0; lo < len(addrs); lo += chunk {
				hi := lo + chunk
				if hi > len(addrs) {
					hi = len(addrs)
				}
				if _, err := s2.SelectAddrs(addrs[lo:hi]...); err != nil {
					t.Fatalf("%s: select addrs: %v", label, err)
				}
			}
			if _, err := s2.SelectAddrs(addrs...); err != nil { // full repeat: all dups
				t.Fatalf("%s: duplicate select: %v", label, err)
			}
			if s2.Selected() != len(addrs) {
				t.Fatalf("%s: dedup failed: %d selected, want %d", label, s2.Selected(), len(addrs))
			}
			got2, err := s2.Finish(ctx)
			if err != nil {
				t.Fatalf("%s: finish2: %v", label, err)
			}
			if !bytes.Equal(want.Output, got2.Output) {
				t.Errorf("%s: chunked stream output differs from Rewrite", label)
			}
		}
	}
}

// TestStreamInputUntouched proves the zero-copy discipline: a full
// streaming rewrite never writes to the input slice, so a read-only
// mmap view is safe to pass.
func TestStreamInputUntouched(t *testing.T) {
	ctx := context.Background()
	bin := planCorpus(t)[0].bin
	orig := append([]byte(nil), bin...)
	s, err := NewStream(ctx, bin, Config{Select: SelectAll, ReserveVA: workload.ReserveVA()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, bin) {
		t.Fatal("streaming rewrite mutated the input slice")
	}
}

// TestStreamSessionGuards covers misuse: use after Finish and nil
// selectors are classified errors, never panics.
func TestStreamSessionGuards(t *testing.T) {
	ctx := context.Background()
	bin := planCorpus(t)[0].bin
	s, err := NewStream(ctx, bin, Config{ReserveVA: workload.ReserveVA()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select(nil); err == nil {
		t.Fatal("nil selector: want error")
	}
	if _, err := s.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SelectAddrs(0x401000); err == nil {
		t.Fatal("select after finish: want error")
	}
	if _, err := s.Finish(ctx); err == nil {
		t.Fatal("double finish: want error")
	}
}

// TestStreamSiteLimit checks the incremental patch-site cap: the
// message that crosses the limit fails, not the emit at the end.
func TestStreamSiteLimit(t *testing.T) {
	ctx := context.Background()
	bin := planCorpus(t)[0].bin
	cfg := Config{ReserveVA: workload.ReserveVA()}
	cfg.Limits.MaxPatchSites = 3
	s, err := NewStream(ctx, bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select(SelectAll); err == nil {
		t.Fatal("selection beyond MaxPatchSites: want error")
	}
}

// TestStreamAdoptsFirstSelection covers the dedup-free first
// selection: later selections still deduplicate against it, appends
// never write into the selector's own backing array, and the output
// still matches Rewrite.
func TestStreamAdoptsFirstSelection(t *testing.T) {
	ctx := context.Background()
	bin := planCorpus(t)[0].bin
	cfg := Config{Select: SelectJumps, ReserveVA: workload.ReserveVA()}
	want, err := Rewrite(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var backing []int
	scfg := cfg
	scfg.Select = func(insts []x86.Inst) []int {
		idxs := SelectJumps(insts)
		backing = append(idxs, -1) // spare capacity past the result
		return backing[:len(idxs)]
	}
	s, err := NewStream(ctx, bin, scfg)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []uint64
	for _, loc := range want.Locations {
		addrs = append(addrs, loc.Addr)
	}
	if n, err := s.SelectAddrs(addrs...); err != nil || n != 0 {
		t.Fatalf("reselecting every location: %d new, err %v; want 0, nil", n, err)
	}
	if _, err := s.Select(SelectAll); err != nil {
		t.Fatal(err)
	}
	if backing[len(backing)-1] != -1 {
		t.Fatal("a later selection wrote into the first selector's backing array")
	}
	if s.Selected() != s.Insts() {
		t.Fatalf("%d selected after SelectAll, want %d", s.Selected(), s.Insts())
	}
	s2, err := NewStream(ctx, bin, scfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Output, got.Output) {
		t.Error("adopted one-selection stream output differs from Rewrite")
	}
}
