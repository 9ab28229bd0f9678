package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"e9patch"
	"e9patch/internal/elf64"
	"e9patch/internal/lowfat"
	"e9patch/internal/va"
	"e9patch/internal/workload"
)

// sizes sets the scale of the generated inputs. The benchmark runs at
// fullSizes; the tests shrink every workload.
type sizes struct {
	Scale       float64 // static-profile scale (1.0 = the paper's size)
	StreamMB    int     // browser-file size in MB
	StreamText  int     // browser-file .text size in MB
	KernelIters int     // workload.KernelIters for the runnable kernels
}

var fullSizes = sizes{Scale: 0.25, StreamMB: 64, StreamText: 8, KernelIters: 20000}

// op is one operation the benchmark times: a rewrite of one input
// file, or (Verify) a rewrite followed by an equivalence verdict.
type op struct {
	Label  string `json:"label"` // input name and configuration, for failure reports
	Path   string `json:"path"`
	App    string `json:"app"` // "A1", "A2" or "A2+LowFat"
	Disasm string `json:"disasm"`
	Shared bool   `json:"shared"` // reserve a shared object's negative rel32 range
	Skip   uint64 `json:"skip"`   // Config.SkipPrefix
	Verify bool   `json:"verify"`
	Seed   int64  `json:"seed"` // seeds the output checks' site sample and registers
}

// config is the rewrite configuration of an op: the eval harness's
// configuration for the op's application and binary kind.
func (o *op) config() e9patch.Config {
	cfg := e9patch.Config{
		ReserveVA:  workload.ReserveVA(),
		SkipPrefix: o.Skip,
		Disasm:     e9patch.DisasmMode(o.Disasm),
	}
	switch o.App {
	case "A1":
		cfg.Select = e9patch.SelectJumps
	case "A2":
		cfg.Select = e9patch.SelectHeapWrites
	case "A2+LowFat":
		cfg.Select = e9patch.SelectHeapWrites
		cfg.Template = lowfat.CheckTemplate{}
		cfg.ReserveVA = append(cfg.ReserveVA, lowfat.ReserveVA()...)
	}
	if o.Shared {
		// The dynamic linker owns the space below a shared object's
		// load address: negative rel32 targets are unusable.
		cfg.ReserveVA = append(cfg.ReserveVA, [2]uint64{va.DefaultMin, e9patch.PIEBase})
	}
	return cfg
}

// build generates a workload's inputs into the run's directory and
// gives each op its check seed.
func (r *runner) build(w workloadSpec) ([]op, error) {
	ops, err := w.build(r.dir, r.seed, r.sz)
	for i := range ops {
		ops[i].Seed = r.seed*1000 + int64(i)
	}
	return ops, err
}

// workloadSpec names a workload and generates one pass of its ops.
type workloadSpec struct {
	name string
	// build writes the seeded inputs into dir and returns the ops of
	// one pass over them.
	build func(dir string, seed int64, sz sizes) ([]op, error)
}

var workloads = []workloadSpec{
	{"paper-corpus", buildPaperCorpus},
	{"cet-recovery", buildCETRecovery},
	{"browser-file", buildBrowserFile},
	{"verify-kernels", buildVerifyKernels},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// seeded gives a profile its seeded name: the generator seeds its PRNG
// from Profile.Name, so the suffix varies the bytes and nothing else.
func seeded(p workload.Profile, seed int64) workload.Profile {
	p.Name = fmt.Sprintf("%s#%d", p.Name, seed)
	return p
}

func writeInput(dir, name string, elf []byte) (string, error) {
	path := filepath.Join(dir, name+".elf")
	return path, os.WriteFile(path, elf, 0o644)
}

// staticInput builds and writes one seeded static profile.
func staticInput(dir string, p workload.Profile, seed int64, scale float64) (op, error) {
	prog, err := workload.BuildStaticMix(seeded(p, seed), scale, p.Kind, workload.MixFor(p))
	if err != nil {
		return op{}, err
	}
	path, err := writeInput(dir, p.Name, prog.ELF)
	if err != nil {
		return op{}, err
	}
	return op{
		Label:  p.Name,
		Path:   path,
		Shared: p.Kind == workload.KindShared,
		Skip:   workload.DataPrefixBytes(p, scale),
	}, nil
}

// withApp returns o configured for one application and recovery mode.
func withApp(o op, app, mode string) op {
	o.App, o.Disasm = app, mode
	o.Label = fmt.Sprintf("%s/%s/%s", o.Label, app, mode)
	return o
}

// buildPaperCorpus: the 38 SPEC2006 and Ubuntu-system rows of Table 1,
// each rewritten under A1 and A2 with linear recovery.
func buildPaperCorpus(dir string, seed int64, sz sizes) ([]op, error) {
	var ops []op
	profiles := append(append([]workload.Profile(nil), workload.SPECProfiles...), workload.SystemProfiles...)
	for _, p := range profiles {
		in, err := staticInput(dir, p, seed, sz.Scale)
		if err != nil {
			return nil, err
		}
		ops = append(ops, withApp(in, "A1", "linear"), withApp(in, "A2", "linear"))
	}
	return ops, nil
}

// cetVariants is the number of seeded variants of each CET row.
const cetVariants = 6

// buildCETRecovery: seeded variants of the two CET rows, each
// rewritten under A1 with superset-cet recovery: a superset decode and
// reverse refine, pruned to the closure of the endbr64 anchors. Plain
// superset is left out: its trampolines mis-encode far pseudo-jumps
// (see README.md, "Known defect").
func buildCETRecovery(dir string, seed int64, sz sizes) ([]op, error) {
	var ops []op
	for _, name := range []string{"nginx-cet", "libcrypto-cet.so"} {
		p, err := workload.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		for v := 0; v < cetVariants; v++ {
			pv := p
			pv.Name = fmt.Sprintf("%s.%d", p.Name, v)
			in, err := staticInput(dir, pv, seed, sz.Scale)
			if err != nil {
				return nil, err
			}
			ops = append(ops, withApp(in, "A1", "superset-cet"))
		}
	}
	return ops, nil
}

// buildBrowserFile: one browser-class file in the shape of
// workload.BuildStream — a Chrome-mix .text with its data-in-text
// prefix, followed by pseudo-random data up to StreamMB — with the
// text seeded through the profile name and the data through seed.
func buildBrowserFile(dir string, seed int64, sz sizes) ([]op, error) {
	p, err := workload.ProfileByName("Chrome")
	if err != nil {
		return nil, err
	}
	scale := float64(sz.StreamText<<20) / (p.SizeMB * 1e6)
	prog, err := workload.BuildStaticMix(seeded(p, seed), scale, p.Kind, workload.MixFor(p))
	if err != nil {
		return nil, err
	}
	f, err := elf64.Parse(prog.ELF)
	if err != nil {
		return nil, err
	}
	off, _, size, err := f.TextRange()
	if err != nil {
		return nil, err
	}
	text := prog.ELF[off : off+size]
	data := make([]byte, sz.StreamMB<<20-len(text))
	r := rand.New(rand.NewSource(seed))
	for i := 0; i+8 <= len(data); i += 8 {
		binary.LittleEndian.PutUint64(data[i:], r.Uint64())
	}
	elf, err := elf64.Build(elf64.BuildSpec{PIE: true, Text: text, Data: data})
	if err != nil {
		return nil, err
	}
	path, err := writeInput(dir, "browser", elf)
	if err != nil {
		return nil, err
	}
	in := op{Label: "browser", Path: path, Skip: workload.DataPrefixBytes(p, scale)}
	return []op{withApp(in, "A1", "linear")}, nil
}

// buildVerifyKernels: the 28 SPEC kernel programs, each rewritten
// under A1, A2 and A2+LowFat and run to a verdict. Kernels are fixed
// programs, so the seed permutes the order the verdicts run in.
func buildVerifyKernels(dir string, seed int64, sz sizes) ([]op, error) {
	workload.KernelIters = sz.KernelIters
	var ops []op
	for _, p := range workload.SPECProfiles {
		prog, err := workload.BuildKernelTuned(p.Kernel, p.Kind == workload.KindPIE, workload.TuningFor(p))
		if err != nil {
			return nil, err
		}
		path, err := writeInput(dir, p.Name+"-kernel", prog.ELF)
		if err != nil {
			return nil, err
		}
		in := op{Label: p.Name + "-kernel", Path: path, Verify: true}
		for _, app := range []string{"A1", "A2", "A2+LowFat"} {
			ops = append(ops, withApp(in, app, "linear"))
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, nil
}
