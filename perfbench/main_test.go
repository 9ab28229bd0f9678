package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"e9patch/internal/elf64"
)

var tinySizes = sizes{Scale: 0.01, StreamMB: 4, StreamText: 1, KernelIters: 300}

func TestMain(m *testing.M) {
	maybeChild() // the plain run re-executes this binary as its child
	os.Exit(m.Run())
}

// buildAll generates one workload's inputs at tiny scale and returns
// its ops and the bytes of each op's input.
func buildAll(t *testing.T, w workloadSpec, seed int64) ([]op, [][]byte) {
	t.Helper()
	ops, err := w.build(t.TempDir(), seed, tinySizes)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	var files [][]byte
	for _, o := range ops {
		b, err := os.ReadFile(o.Path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, b)
	}
	return ops, files
}

// geometry is the shape of a generated binary that its seed must not
// change: ELF type, .text address and size, and segment count.
func geometry(t *testing.T, b []byte) (typ uint16, textAddr uint64, progs, textSize int) {
	t.Helper()
	f, err := elf64.Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	_, addr, size, err := f.TextRange()
	if err != nil {
		t.Fatal(err)
	}
	return uint16(f.Header.Type), addr, len(f.Progs), int(size)
}

// textSlack bounds the .text size difference between two seeds.
const textSlack = 64

// TestSeedDeterminism: the same seed gives identical input bytes; a
// different seed gives different bytes with the same profile geometry.
// The kernels are fixed programs, so there the seed permutes the order.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ops1, a := buildAll(t, w, 1)
			ops2, b := buildAll(t, w, 1)
			ops3, c := buildAll(t, w, 2)
			if len(a) != len(b) || len(a) != len(c) {
				t.Fatalf("op counts %d, %d, %d", len(a), len(b), len(c))
			}
			for i := range a {
				if ops1[i].Label != ops2[i].Label || !bytes.Equal(a[i], b[i]) {
					t.Errorf("%s: seed 1 built twice differs", ops1[i].Label)
				}
			}
			if w.name == "verify-kernels" {
				same := true
				for i := range ops1 {
					same = same && ops1[i].Label == ops3[i].Label
				}
				if same {
					t.Errorf("seeds 1 and 2 run the verdicts in the same order")
				}
				return
			}
			for i := range a {
				if ops1[i].Label != ops3[i].Label {
					t.Fatalf("op %d: %s under seed 1, %s under seed 2", i, ops1[i].Label, ops3[i].Label)
				}
				if bytes.Equal(a[i], c[i]) {
					t.Errorf("%s: seeds 1 and 2 give identical bytes", ops1[i].Label)
				}
				// The generator stops after the instruction that reaches
				// the target size, so .text sizes differ by that overshoot.
				t1, addr1, n1, size1 := geometry(t, a[i])
				t2, addr2, n2, size2 := geometry(t, c[i])
				if t1 != t2 || addr1 != addr2 || n1 != n2 || size1-size2 > textSlack || size2-size1 > textSlack {
					t.Errorf("%s: geometry (%d %#x %d %d) under seed 1, (%d %#x %d %d) under seed 2",
						ops1[i].Label, t1, addr1, n1, size1, t2, addr2, n2, size2)
				}
			}
		})
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// reported are the end-to-end metrics only the report carries: the
// p90s, which need p90min samples, and the failed ratio, which is zero
// when nothing fails.
var reported = []string{"rewrite_ms.p90", "verdict_ms.p90", "failed_ratio"}

// TestSmoke runs every workload once, plain and traced, at tiny scale:
// every declared metric is emitted with its unit, the report carries
// the envelope and the remaining metrics, and nothing fails.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := &runner{seed: 1, sz: tinySizes, dir: filepath.Join(t.TempDir(), "work")}
			var (
				res  *result
				rep  *report
				err  error
				want = endToEnd
			)
			if traced {
				want = perLayer
				res, rep, err = r.traced(w, filepath.Join(t.TempDir(), "spans.jsonl"))
			} else {
				res, rep, err = r.plain(w)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed %d of %d: %v", w.name, traced, res.Correct, res.Failed, res.Attempted, rep.Failures)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s missing or not in %s: %+v", w.name, traced, name, unit, m)
				}
			}
			if rep.Envelope.GOMAXPROCS == 0 || rep.Envelope.Inputs == 0 || rep.Envelope.Seed != 1 {
				t.Errorf("%s traced=%v: incomplete envelope %+v", w.name, traced, rep.Envelope)
			}
			if fr := rep.Extra["failed_ratio"]; fr == nil || fr.Value == nil {
				t.Errorf("%s traced=%v: no failed_ratio", w.name, traced)
			} else if *fr.Value != 0 {
				t.Errorf("%s traced=%v: failed_ratio %g, want 0", w.name, traced, *fr.Value)
			}
			if traced {
				continue
			}
			for _, name := range reported {
				if e := rep.Extra[name]; e == nil || e.Unit == "" {
					t.Errorf("%s: %s not reported with a unit", w.name, name)
				}
			}
			if rep.Samples["rewrite_ms"] == 0 || rep.Samples["verdict_ms"] == 0 {
				t.Errorf("%s: sample counts %v", w.name, rep.Samples)
			}
		}
	}
}
