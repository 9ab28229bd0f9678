package e9patch

import (
	"bytes"
	"errors"
	"testing"

	"e9patch/internal/elf64"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// TestDisasmLinearByteIdentical pins the tentpole's compatibility bar
// at the library boundary: the zero-valued config, the explicit
// "linear" mode, and every parallelism width produce byte-identical
// rewrites.
func TestDisasmLinearByteIdentical(t *testing.T) {
	p, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.BuildStatic(p, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Rewrite(prog.ELF, Config{Select: SelectJumps})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []DisasmMode{"", DisasmLinear} {
		for _, width := range []int{1, 2, 8} {
			res, err := Rewrite(prog.ELF, Config{Select: SelectJumps, Disasm: mode, Parallelism: width})
			if err != nil {
				t.Fatalf("mode %q width %d: %v", mode, width, err)
			}
			if !bytes.Equal(res.Output, base.Output) {
				t.Fatalf("mode %q width %d: output differs from the zero-config rewrite", mode, width)
			}
			if res.Disasm != string(DisasmLinear) {
				t.Errorf("mode %q: Result.Disasm = %q", mode, res.Disasm)
			}
			if res.Recovery != nil {
				t.Errorf("mode %q: linear rewrite reports superset stats", mode)
			}
		}
	}
}

// TestDisasmUnknownModeRejected: a bad mode string fails at the
// configuration boundary as ErrUnsupported, before any parsing work.
func TestDisasmUnknownModeRejected(t *testing.T) {
	prog := smallCETProgram(t, false)
	_, err := Rewrite(prog, Config{Select: SelectJumps, Disasm: "recursive"})
	if !errors.Is(err, ErrUnsupportedBinary) {
		t.Fatalf("err = %v, want ErrUnsupportedBinary", err)
	}
	if _, err := ParseDisasmMode("superset-cet"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseDisasmMode("Superset"); err == nil {
		t.Fatal("case-mangled mode accepted")
	}
}

// smallCETProgram assembles a runnable CET-style program: endbr64 at
// every function prologue and after the indirect call's return point,
// heap writes and branches to patch, output at the end.
func smallCETProgram(t *testing.T, shared bool) []byte {
	t.Helper()
	const base = 0x401000
	a := x86.NewAsm(base)
	a.Endbr64()
	a.MovRegImm32(x86.RDI, 64)
	a.MovRegImm64(x86.R11, workload.RTMalloc)
	a.CallReg(x86.R11)
	a.MovRegReg64(x86.RBX, x86.RAX)
	a.MovRegImm32(x86.RCX, 0)
	a.Endbr64() // landing pad after the indirect call's return point
	loop := a.NewLabel()
	a.Bind(loop)
	a.MovMemReg64(x86.M(x86.RBX, 0), x86.RCX) // heap-write patch site
	a.AddRegImm64(x86.RCX, 3)
	a.CmpRegImm64(x86.RCX, 60)
	a.JccShort(x86.CondL, loop) // jump patch site
	a.MovRegReg64(x86.RDI, x86.RCX)
	a.MovRegImm64(x86.R11, workload.RTOutput)
	a.CallReg(x86.R11)
	a.Ret()
	code := a.MustFinish()

	raw, err := elf64.Build(elf64.BuildSpec{
		Shared:   shared,
		Text:     code,
		EntryOff: 0,
		Data:     make([]byte, 64),
		BSSSize:  0x1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSupersetCETRewriteEquivalent rewrites a CET program under the
// superset-cet frontend and verifies behavioral equivalence under the
// emulator: the anchor closure recovers exactly the genuine reachable
// instructions, so patching them preserves execution.
func TestSupersetCETRewriteEquivalent(t *testing.T) {
	prog := smallCETProgram(t, false)
	for _, sel := range []struct {
		name string
		s    Selector
	}{{"jumps", SelectJumps}, {"heapwrites", SelectHeapWrites}, {"all", SelectAll}} {
		t.Run(sel.name, func(t *testing.T) {
			res, err := Rewrite(prog, Config{
				Select:    sel.s,
				Disasm:    DisasmSupersetCET,
				ReserveVA: workload.ReserveVA(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Disasm != string(DisasmSupersetCET) {
				t.Errorf("Result.Disasm = %q", res.Disasm)
			}
			if res.Stats.Patched() == 0 {
				t.Fatal("nothing patched under superset-cet")
			}
			orig := runBinary(t, prog, nil)
			patched := runBinary(t, res.Output, nil)
			if !bytes.Equal(u64bytes(orig.Output), u64bytes(patched.Output)) {
				t.Fatalf("superset-cet rewrite changed behavior: %v vs %v", orig.Output, patched.Output)
			}
			if orig.ExitCode != patched.ExitCode {
				t.Fatalf("exit codes differ: %#x vs %#x", orig.ExitCode, patched.ExitCode)
			}
		})
	}
}

// TestDSORewriteEquivalent: a plain shared object (ET_DYN, no entry
// point) is a first-class input — rewritten under superset-cet and
// executed at PIEBase by pointing RIP at its text section, behavior is
// preserved.
func TestDSORewriteEquivalent(t *testing.T) {
	dso := smallCETProgram(t, true)
	f, err := elf64.Parse(dso)
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsDSO() {
		t.Fatal("test binary is not a DSO")
	}
	_, textAddr, err := f.Text()
	if err != nil {
		t.Fatal(err)
	}

	res, err := Rewrite(dso, Config{
		Select:    SelectHeapWrites,
		Disasm:    DisasmSupersetCET,
		ReserveVA: workload.ReserveVA(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Patched() == 0 {
		t.Fatal("nothing patched in the DSO")
	}
	if res.Bias != PIEBase {
		t.Errorf("DSO bias = %#x, want PIEBase", res.Bias)
	}

	// A DSO has no entry point: load it and call into its text start,
	// the way a dynamic loader would call an exported function.
	run := func(bin []byte) []uint64 {
		t.Helper()
		m := workload.NewMachine(nil)
		if _, err := Load(m, bin); err != nil {
			t.Fatal(err)
		}
		m.RIP = PIEBase + textAddr
		if err := m.Run(50_000_000); err != nil {
			t.Fatalf("run: %v", err)
		}
		return m.Output
	}
	orig := run(dso)
	patched := run(res.Output)
	if !bytes.Equal(u64bytes(orig), u64bytes(patched)) {
		t.Fatalf("DSO rewrite changed behavior: %v vs %v", orig, patched)
	}
	if len(orig) == 0 || orig[0] != 60 {
		t.Fatalf("degenerate DSO run: %v", orig)
	}
}

func u64bytes(v []uint64) []byte {
	out := make([]byte, 0, 8*len(v))
	for _, x := range v {
		out = append(out, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
			byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
	}
	return out
}

// TestPlanModeBinding: a plan records its recovery mode and universe
// digest; Apply re-derives the universe and rejects a plan replayed
// under a different mode or against a tampered digest.
func TestPlanModeBinding(t *testing.T) {
	prog := smallCETProgram(t, false)
	cfg := Config{Select: SelectJumps, Disasm: DisasmSuperset, ReserveVA: workload.ReserveVA()}
	p, err := Plan(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Disasm != string(DisasmSuperset) || p.DisasmDigest == "" {
		t.Fatalf("plan does not bind its mode: disasm=%q digest=%q", p.Disasm, p.DisasmDigest)
	}

	// The honest replay works.
	if _, err := Apply(prog, p); err != nil {
		t.Fatalf("honest apply: %v", err)
	}

	// Mode flipped: the digest covers the mode, so the universe check
	// fails even before any instruction-set difference matters.
	flipped := *p
	flipped.Disasm = string(DisasmLinear)
	if _, err := Apply(prog, &flipped); !errors.Is(err, ErrMalformedBinary) {
		t.Fatalf("cross-mode apply: err = %v, want ErrMalformedBinary", err)
	}
	flipped.Disasm = string(DisasmSupersetCET)
	if _, err := Apply(prog, &flipped); !errors.Is(err, ErrMalformedBinary) {
		t.Fatalf("cross-mode apply (cet): err = %v, want ErrMalformedBinary", err)
	}

	// Digest tampered: rejected.
	tampered := *p
	b := []byte(tampered.DisasmDigest)
	if b[0] == '0' {
		b[0] = '1'
	} else {
		b[0] = '0'
	}
	tampered.DisasmDigest = string(b)
	if _, err := Apply(prog, &tampered); !errors.Is(err, ErrMalformedBinary) {
		t.Fatalf("tampered digest: err = %v, want ErrMalformedBinary", err)
	}

	// Legacy plans (no digest recorded) still apply: the check is
	// opt-out for pre-mode plans, not a schema break.
	legacy := *p
	legacy.Disasm = ""
	legacy.DisasmDigest = ""
	if _, err := Apply(prog, &legacy); err != nil {
		// A superset plan replayed without its mode annotation patches
		// against the linear universe; sites outside it are rejected as
		// malformed, which is also acceptable — what must not happen is
		// a digest complaint.
		if !errors.Is(err, ErrMalformedBinary) {
			t.Fatalf("legacy apply: unexpected error class: %v", err)
		}
	}

	// A linear plan round-trips with its digest too.
	lp, err := Plan(prog, Config{Select: SelectJumps, ReserveVA: workload.ReserveVA()})
	if err != nil {
		t.Fatal(err)
	}
	if lp.Disasm != string(DisasmLinear) || lp.DisasmDigest == "" {
		t.Fatalf("linear plan unbound: %q %q", lp.Disasm, lp.DisasmDigest)
	}
	if _, err := Apply(prog, lp); err != nil {
		t.Fatalf("linear apply: %v", err)
	}
}

// TestSupersetRewriteReportsStats: the one-shot Result surfaces the
// recovery statistics for the superset family.
func TestSupersetRewriteReportsStats(t *testing.T) {
	prog := smallCETProgram(t, false)
	res, err := Rewrite(prog, Config{Select: SelectJumps, Disasm: DisasmSuperset, ReserveVA: workload.ReserveVA()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Disasm != string(DisasmSuperset) {
		t.Errorf("Result.Disasm = %q", res.Disasm)
	}
	if res.Recovery == nil {
		t.Fatal("no recovery stats for a superset rewrite")
	}
	if res.Recovery.Kept == 0 || res.Recovery.Decoded < res.Recovery.Kept {
		t.Errorf("stats inconsistent: %+v", res.Recovery)
	}
}

// TestSupersetFarBranchTargets rewrites a plain-superset CET profile
// under A1. The superset keeps pseudo-instructions decoded inside other
// instructions, and some of their rel32 targets lie gigabytes outside
// the image. Every direct branch a trampoline emits must still decode
// to the displaced instruction's original target (or its resume
// address): a target out of rel32 reach must fail the placement, never
// wrap to an address 4 GiB away.
func TestSupersetFarBranchTargets(t *testing.T) {
	p, err := workload.ProfileByName("nginx-cet")
	if err != nil {
		t.Fatal(err)
	}
	const scale = 0.02
	prog, err := workload.BuildStatic(p, scale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Select:     SelectJumps,
		Disasm:     DisasmSuperset,
		SkipPrefix: workload.DataPrefixBytes(p, scale),
		ReserveVA:  workload.ReserveVA(),
	}
	pl, err := Plan(prog.ELF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf64.Parse(prog.ELF)
	if err != nil {
		t.Fatal(err)
	}
	textOff, _, textSize, err := f.TextRange()
	if err != nil {
		t.Fatal(err)
	}
	text := prog.ELF[textOff : textOff+textSize]
	decode := func(addr uint64) x86.Inst {
		in, err := x86.Decode(text[addr-pl.TextAddr:], addr)
		if err != nil {
			t.Fatalf("instruction at %#x: %v", addr, err)
		}
		return in
	}
	// far counts selected sites whose target lies more than 1 GiB away,
	// so the test notices if the profile stops producing the case it
	// exists for.
	far, checked := 0, 0
	for _, s := range pl.Sites {
		if in := decode(s.Addr); in.IsDirectBranch() {
			if d := int64(in.Target() - s.Addr); d < -1<<30 || d > 1<<30 {
				far++
			}
		}
		for _, tr := range s.Trampolines {
			orig := decode(tr.For)
			if !orig.IsDirectBranch() {
				continue
			}
			resume := tr.For + uint64(orig.Len)
			for off := 0; off < len(tr.Code); {
				in, err := x86.Decode(tr.Code[off:], tr.Addr+uint64(off))
				if err != nil {
					t.Fatalf("trampoline %#x for %#x: %v", tr.Addr, tr.For, err)
				}
				if in.IsDirectBranch() {
					checked++
					if got := in.Target(); got != orig.Target() && got != resume {
						t.Errorf("trampoline %#x for %#x (% x): branch reaches %#x, want %#x or resume %#x",
							tr.Addr, tr.For, orig.Bytes, got, orig.Target(), resume)
					}
				}
				off += in.Len
			}
		}
	}
	if checked == 0 || far == 0 {
		t.Fatalf("degenerate workload: %d trampoline branches checked, %d far sites", checked, far)
	}
	t.Logf("%d sites, %d trampoline branches checked, %d far sites", len(pl.Sites), checked, far)
}
