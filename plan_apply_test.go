package e9patch

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"e9patch/internal/plan"
	"e9patch/internal/workload"
)

// Differential suite for the plan/apply split (make plancheck): for
// every corpus binary × tactic config × parallelism width,
// Apply(Plan(input)) must be byte-identical to the direct Rewrite,
// which decides and composes from the live rewriter with no plan in
// between; the plan encoding must be deterministic (and independent of
// the worker count), and a plan must survive a JSON round trip intact.

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// planCorpus returns the same binaries the parallel differential suite
// uses: the five kernel archetypes, the eviction-hostile synthetic,
// and two multi-region SPEC profiles that genuinely decompose.
func planCorpus(t *testing.T) []struct {
	name string
	bin  []byte
} {
	t.Helper()
	var corpus []struct {
		name string
		bin  []byte
	}
	add := func(name string, bin []byte) {
		corpus = append(corpus, struct {
			name string
			bin  []byte
		}{name, bin})
	}
	for _, arch := range []string{"branchy", "memstream", "matrix", "pointer", "callheavy"} {
		prog, err := workload.BuildKernel(arch, arch == "matrix" || arch == "pointer")
		if err != nil {
			t.Fatal(err)
		}
		add(arch, prog.ELF)
	}
	add("hostile", hostileELF(t))
	for _, pc := range []struct {
		profile string
		scale   float64
	}{{"gcc", 0.05}, {"gamess", 0.05}} {
		p, err := workload.ProfileByName(pc.profile)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := workload.BuildStatic(p, pc.scale)
		if err != nil {
			t.Fatal(err)
		}
		add(pc.profile, prog.ELF)
	}
	return corpus
}

// TestPlanApplyEquivalence is the tentpole differential: across the
// full corpus × tactic-config matrix at parallelism 1, 2 and 8, plan
// replay must reproduce the single-pass Rewrite exactly — output
// bytes, statistics, per-location outcomes, warnings and counters —
// and the plan encoding must not depend on the width.
func TestPlanApplyEquivalence(t *testing.T) {
	for _, be := range planCorpus(t) {
		for _, tc := range parallelCorpusConfigs {
			cfg := tc.cfg
			cfg.ReserveVA = append(cfg.ReserveVA, workload.ReserveVA()...)
			cfg.Parallelism = 1
			direct, err := Rewrite(be.bin, cfg)
			if err != nil {
				t.Fatalf("%s/%s: rewrite: %v", be.name, tc.name, err)
			}
			var firstEnc []byte
			for _, par := range []int{1, 2, 8} {
				label := fmt.Sprintf("%s/%s/p=%d", be.name, tc.name, par)
				cfg.Parallelism = par
				p, err := Plan(be.bin, cfg)
				if err != nil {
					t.Fatalf("%s: plan: %v", label, err)
				}
				enc, err := p.Encode()
				if err != nil {
					t.Fatalf("%s: encode: %v", label, err)
				}
				if firstEnc == nil {
					firstEnc = enc
				} else if !bytes.Equal(firstEnc, enc) {
					t.Errorf("%s: plan encoding depends on the worker count", label)
				}
				res, err := Apply(be.bin, p)
				if err != nil {
					t.Fatalf("%s: apply: %v", label, err)
				}
				assertSameParallelResult(t, direct, res, label)
				if res.Trampolines != p.TrampolineCount() {
					t.Errorf("%s: plan counts %d trampolines, result %d",
						label, p.TrampolineCount(), res.Trampolines)
				}
			}
		}
	}
}

// TestPlanRoundTripApply proves serialization fidelity on a real
// workload: a plan that went through Encode → Decode applies to the
// same bytes as the in-memory plan, so a plan can be produced on one
// machine and applied on another.
func TestPlanRoundTripApply(t *testing.T) {
	bin := planCorpus(t)[0].bin
	cfg := Config{Select: SelectHeapWrites, ReserveVA: workload.ReserveVA()}
	p, err := Plan(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Apply(bin, p)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := DecodePlan(enc)
	if err != nil {
		t.Fatal(err)
	}
	reenc, err := p2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, reenc) {
		t.Error("plan changed across Encode → Decode → Encode")
	}
	viaJSON, err := Apply(bin, p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Output, viaJSON.Output) {
		t.Error("round-tripped plan materializes different bytes")
	}
}

// TestPlanDeterminism pins the determinism contract: planning the same
// binary twice yields byte-identical encodings.
func TestPlanDeterminism(t *testing.T) {
	bin := hostileELF(t)
	cfg := Config{Select: SelectHeapWrites}
	var last []byte
	for i := 0; i < 3; i++ {
		p, err := Plan(bin, cfg)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if last != nil && !bytes.Equal(last, enc) {
			t.Fatalf("plan encoding differs between runs %d and %d", i-1, i)
		}
		last = enc
	}
}

// TestPlanGoldenJSON pins the serialized schema against a committed
// golden file (regenerate with `go test -run TestPlanGoldenJSON
// -update .` after an intentional schema change).
func TestPlanGoldenJSON(t *testing.T) {
	bin := hostileELF(t)
	p, err := Plan(bin, Config{Select: SelectHeapWrites, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "plan_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(want, enc) {
		t.Errorf("plan JSON deviates from %s (regenerate with -update if the schema change is intentional)", golden)
	}
	// The golden plan must decode and re-encode unchanged.
	p2, err := DecodePlan(want)
	if err != nil {
		t.Fatal(err)
	}
	reenc, err := p2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, reenc) {
		t.Error("golden plan changed across Decode → Encode")
	}
}

// TestApplyValidation covers Apply's refusal surface: a plan must not
// silently materialize onto the wrong input, a tampered schema
// version, or out-of-range writes.
func TestApplyValidation(t *testing.T) {
	bin := hostileELF(t)
	p, err := Plan(bin, Config{Select: SelectHeapWrites})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Apply(bin, nil); err == nil {
		t.Error("nil plan: want error")
	}

	other := make([]byte, len(bin))
	copy(other, bin)
	other[len(other)-1] ^= 0xFF
	if _, err := Apply(other, p); err == nil || !strings.Contains(err.Error(), "input mismatch") {
		t.Errorf("modified input: want input-mismatch error, got %v", err)
	}

	bad := *p
	bad.Version = plan.Version + 1
	if _, err := Apply(bin, &bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: want version error, got %v", err)
	}

	// Unbound plan with an out-of-text write: caught structurally.
	oob := &PatchPlan{
		Version: plan.Version, Bias: p.Bias, TextAddr: p.TextAddr, TextLen: p.TextLen,
		Sites: []plan.Site{{Addr: p.TextAddr, Tactic: "B1", Writes: []plan.Write{
			{Addr: p.TextAddr + uint64(p.TextLen), Data: plan.Bytes{0x90}},
		}}},
	}
	if _, err := Apply(bin, oob); err == nil || !strings.Contains(err.Error(), "outside .text") {
		t.Errorf("out-of-range write: want range error, got %v", err)
	}
}

// TestRewriteInputImmutable enforces the documented contract that
// Rewrite and RewriteContext never mutate the caller's input slice,
// across all six tactic configurations of the differential corpus.
func TestRewriteInputImmutable(t *testing.T) {
	bin := hostileELF(t)
	for _, tc := range parallelCorpusConfigs {
		pristine := make([]byte, len(bin))
		copy(pristine, bin)
		if _, err := Rewrite(bin, tc.cfg); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(bin, pristine) {
			t.Fatalf("%s: Rewrite mutated the input slice", tc.name)
		}
		if _, err := RewriteContext(context.Background(), bin, tc.cfg); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(bin, pristine) {
			t.Fatalf("%s: RewriteContext mutated the input slice", tc.name)
		}
	}
}

// TestSizePercentZeroInput pins the InputSize == 0 guard (a zero-value
// Result must not divide by zero).
func TestSizePercentZeroInput(t *testing.T) {
	r := &Result{OutputSize: 1234}
	if got := r.SizePercent(); got != 0 {
		t.Fatalf("SizePercent with zero InputSize = %v, want 0", got)
	}
	r = &Result{InputSize: 200, OutputSize: 300}
	if got := r.SizePercent(); got != 150 {
		t.Fatalf("SizePercent = %v, want 150", got)
	}
}

// TestApplyTrusted pins the trusted apply path's contract: identical
// bytes to the verifying Apply, refusal of input-unbound plans (an
// unbound plan has no hash pinning the universe, so skipping the
// digest check would be unchecked trust), refusal of the wrong input,
// and — the reason the path exists — no universe re-derivation, pinned
// by accepting a plan whose digest was tampered but whose input
// binding still matches.
func TestApplyTrusted(t *testing.T) {
	bin := planCorpus(t)[0].bin
	sel, err := SelectMatch("jcc & short")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Select: sel, ReserveVA: workload.ReserveVA()}
	p, err := Plan(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	verified, err := Apply(bin, p)
	if err != nil {
		t.Fatal(err)
	}
	trusted, err := ApplyTrusted(bin, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(verified.Output, trusted.Output) {
		t.Error("ApplyTrusted materializes different bytes than Apply")
	}

	unbound := *p
	unbound.InputSHA256 = ""
	if _, err := ApplyTrusted(bin, &unbound); err == nil {
		t.Error("ApplyTrusted accepted an input-unbound plan")
	} else if !strings.Contains(err.Error(), "input-bound") {
		t.Errorf("unbound-plan refusal does not explain itself: %v", err)
	}
	if _, err := Apply(bin, &unbound); err != nil {
		t.Errorf("Apply must still accept unbound plans (hand-authored): %v", err)
	}

	other := append([]byte(nil), bin...)
	other[len(other)-1] ^= 0xFF
	if _, err := ApplyTrusted(other, p); err == nil {
		t.Error("ApplyTrusted accepted an input that does not match the plan's binding")
	}

	tampered := *p
	tampered.DisasmDigest = strings.Repeat("0", len(p.DisasmDigest))
	if _, err := Apply(bin, &tampered); err == nil {
		t.Error("Apply must reject a tampered universe digest")
	}
	if _, err := ApplyTrusted(bin, &tampered); err != nil {
		t.Errorf("ApplyTrusted re-derived the universe it is documented to skip: %v", err)
	}
}
