package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"e9patch"
	"e9patch/internal/emu"
	"e9patch/internal/lowfat"
	"e9patch/internal/patch"
	"e9patch/internal/workload"
)

// reply is the outcome of one op, as the measuring child reports it.
type reply struct {
	Err        string  `json:"err,omitempty"`       // the op did not complete
	CheckErr   string  `json:"checkErr,omitempty"`  // an output check failed
	RewriteMS  float64 `json:"rewriteMs"`           // read plus Rewrite
	VerdictMS  float64 `json:"verdictMs,omitempty"` // bytes to verdict (Verify ops)
	PeakRSSMB  float64 `json:"peakRssMb"`           // VmHWM after the rewrite and verdict
	InputSize  int     `json:"inputSize"`
	OutputSize int     `json:"outputSize"`
	SHA256     string  `json:"sha256"`
	Selected   int     `json:"selected"`
	Patched    int     `json:"patched"`
	// SiteMS is each checked site's verdict time (none: no sites
	// checked). LogRatios sums log(patched/original cycles) over
	// NRatios runs: kernel runs, or site executions.
	SiteMS    []float64 `json:"siteMs,omitempty"`
	LogRatios float64   `json:"logRatios"`
	NRatios   int       `json:"nRatios"`
}

// emuRun is one emulator run: a whole kernel, or one site execution.
type emuRun struct {
	MS       float64 `json:"ms"`
	Insts    uint64  `json:"insts"`
	Cycles   uint64  `json:"cycles"`
	FarJumps uint64  `json:"farJumps"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// siteSample caps the patched A1 jump sites checked per input: every
// site of a smaller input, a seeded sample of a larger one.
const siteSample = 1024

// perform runs one op: read the input file and rewrite it, and for a
// Verify op run the original and the patched program to a verdict.
// The output checks follow; a check failure is reported beside the
// op's figures.
func perform(o *op) (*reply, error) {
	cfg := o.config()
	start := time.Now()
	data, err := os.ReadFile(o.Path)
	if err != nil {
		return nil, err
	}
	res, err := e9patch.Rewrite(data, cfg)
	if err != nil {
		return nil, fmt.Errorf("rewrite: %w", err)
	}
	r := &reply{
		RewriteMS:  ms(time.Since(start)),
		InputSize:  len(data),
		OutputSize: len(res.Output),
		Selected:   res.Stats.Total,
		Patched:    res.Stats.Patched(),
	}
	if o.Verify {
		runs, err := verdict(data, res.Output, o.App == "A2+LowFat")
		if err != nil {
			return nil, err
		}
		r.VerdictMS = ms(time.Since(start))
		r.LogRatios, r.NRatios = math.Log(float64(runs[1].Cycles)/float64(runs[0].Cycles)), 1
	}
	if r.PeakRSSMB, err = peakRSS(); err != nil {
		return nil, err
	}
	r.SHA256 = digest(res.Output)
	var sites []uint64
	if o.App == "A1" && !o.Verify {
		sites = sampleSites(res.Locations, siteSample, o.Seed)
	}
	sres, err := checkOutput(data, res.Output, sites, o.Seed)
	if err != nil {
		r.CheckErr = err.Error()
	}
	if sres != nil && len(sres.verdicts) > 0 {
		r.SiteMS = sres.verdicts
		for _, x := range sres.ratios {
			r.LogRatios += math.Log(x)
		}
		r.NRatios = len(sres.ratios)
	}
	return r, nil
}

// sampleSites draws n patched locations with a seeded generator.
func sampleSites(locs []patch.LocResult, n int, seed int64) []uint64 {
	if n <= 0 {
		return nil
	}
	var patched []uint64
	for _, l := range locs {
		if l.Tactic != patch.TacticNone {
			patched = append(patched, l.Addr)
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(patched), func(i, j int) { patched[i], patched[j] = patched[j], patched[i] })
	if len(patched) > n {
		patched = patched[:n]
	}
	sort.Slice(patched, func(i, j int) bool { return patched[i] < patched[j] })
	return patched
}

// verdict runs the original and the patched kernel under the library's
// default engine and requires equal output and exit state; a LowFat
// run must also report no violations.
func verdict(orig, patched []byte, lowfatHeap bool) ([]emuRun, error) {
	m0, r0, err := runKernel(orig, false)
	if err != nil {
		return nil, fmt.Errorf("original run: %w", err)
	}
	m1, r1, err := runKernel(patched, lowfatHeap)
	if err != nil {
		return nil, fmt.Errorf("patched run: %w", err)
	}
	if len(m0.Output) != len(m1.Output) {
		return nil, fmt.Errorf("verdict: output length %d, patched %d", len(m0.Output), len(m1.Output))
	}
	for i := range m0.Output {
		if m0.Output[i] != m1.Output[i] {
			return nil, fmt.Errorf("verdict: output %d differs: %#x, patched %#x", i, m0.Output[i], m1.Output[i])
		}
	}
	if m0.ExitCode != m1.ExitCode {
		return nil, fmt.Errorf("verdict: exit code %#x, patched %#x", m0.ExitCode, m1.ExitCode)
	}
	if lowfatHeap {
		if v := lowfat.Violations(m1); v != 0 {
			return nil, fmt.Errorf("verdict: %d LowFat violations on correct code", v)
		}
	}
	return []emuRun{r0, r1}, nil
}

// runKernel loads a kernel into a fresh machine and runs it to halt.
func runKernel(bin []byte, lowfatHeap bool) (*emu.Machine, emuRun, error) {
	m := workload.NewMachine(nil)
	if lowfatHeap {
		lowfat.Install(m, workload.RTMalloc, workload.RTFree)
	}
	entry, err := e9patch.Load(m, bin)
	if err != nil {
		return nil, emuRun{}, err
	}
	m.RIP = entry
	start := time.Now()
	if err := m.Run(2_000_000_000); err != nil {
		return nil, emuRun{}, err
	}
	return m, emuRun{MS: ms(time.Since(start)), Insts: m.Counters.Instructions, Cycles: m.Counters.Cycles, FarJumps: m.Counters.FarJumps}, nil
}
