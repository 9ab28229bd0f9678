package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"e9patch"
	"e9patch/internal/elf64"
	"e9patch/internal/emu"
	"e9patch/internal/loader"
	"e9patch/internal/x86"
)

// The output checks take nothing on trust from the rewriter: they read
// the input and output bytes, and run sampled sites under the
// decode-per-step interpreter in both images.

// checkOutput checks one rewrite's output against its input: the
// output parses, every input byte outside .text is unchanged at its
// offset, and each sampled patched jump site behaves as in the
// original. It returns what the site checks measured (nil without
// sites), also when some sites fail.
func checkOutput(in, out []byte, sites []uint64, seed int64) (*siteResult, error) {
	if _, err := elf64.Parse(out); err != nil {
		return nil, fmt.Errorf("output does not parse: %w", err)
	}
	f, err := elf64.Parse(in)
	if err != nil {
		return nil, fmt.Errorf("input does not parse: %w", err)
	}
	off, addr, size, err := f.TextRange()
	if err != nil {
		return nil, err
	}
	if len(out) < len(in) {
		return nil, fmt.Errorf("output is %d bytes, shorter than the %d-byte input", len(out), len(in))
	}
	end := off + size
	if !bytes.Equal(in[:off], out[:off]) || !bytes.Equal(in[end:], out[end:len(in)]) {
		return nil, fmt.Errorf("bytes outside .text changed")
	}
	if len(sites) == 0 {
		return nil, nil
	}
	var bias uint64
	if f.IsPIE() {
		bias = e9patch.PIEBase
	}
	return checkSites(in[off:end], out[off:end], out, addr+bias, bias, sites, seed)
}

// flagPatterns between them take every flag condition both ways: all
// clear, all set, and SF alone (SF != OF). The trampolines refuse
// loop and jrcxz, so no patched site reads rcx instead.
var flagPatterns = []uint64{
	emu.FlagsAlways,
	emu.FlagsAlways | emu.FlagCF | emu.FlagPF | emu.FlagAF | emu.FlagZF | emu.FlagSF | emu.FlagOF,
	emu.FlagsAlways | emu.FlagSF,
}

// siteStepLimit bounds the patched image's path from a site back to
// original text: trampoline, displaced jump, and an eviction hop.
const siteStepLimit = 16

// siteResult is what the site checks measured.
type siteResult struct {
	runs     []emuRun  // every execution, original and rewritten image
	verdicts []float64 // ms from the first execution to a site's verdict
	ratios   []float64 // rewritten over original cycles, per flag pattern
}

// checkSites starts the interpreter at each direct-jump site in the
// original and in the rewritten image with equal registers, once per flag pattern
// for a jcc, and requires both to reach the same address (in original
// text, or wherever a superset mode's pseudo-instruction jumps) with
// equal registers.
func checkSites(origText, newText, out []byte, textAddr, bias uint64, sites []uint64, seed int64) (*siteResult, error) {
	m0, m1 := emu.NewMachine(), emu.NewMachine()
	if blob, ok := elf64.AppendedBlob(out); ok {
		b, err := loader.Decode(blob)
		if err != nil {
			return nil, fmt.Errorf("loader blob: %w", err)
		}
		for _, mp := range b.Mappings {
			m1.Mem.WriteBytes(mp.Vaddr+bias, b.Blocks[mp.Phys])
		}
		for a, t := range b.SigTab {
			m1.SigTab[a+bias] = t + bias
		}
	}
	m0.Mem.WriteBytes(textAddr, origText)
	m1.Mem.WriteBytes(textAddr, newText)

	r := rand.New(rand.NewSource(seed))
	res := &siteResult{}
	var failed int
	var firstErr error
	for _, site := range sites {
		start := time.Now()
		runs, ratios, err := checkSite(m0, m1, r, origText, textAddr, site)
		if err != nil {
			if failed++; firstErr == nil {
				firstErr = err
			}
			continue
		}
		if runs == nil {
			continue // an indirect jump's target is a register or memory value
		}
		res.verdicts = append(res.verdicts, ms(time.Since(start)))
		res.runs = append(res.runs, runs...)
		res.ratios = append(res.ratios, ratios...)
	}
	if failed > 0 {
		return res, fmt.Errorf("%d of %d sampled sites fail; first: %w", failed, len(sites), firstErr)
	}
	return res, nil
}

// checkSite runs one site in both machines, once per flag pattern for
// a jcc. It returns the executions and their cycle ratios, or nothing
// for an indirect jump.
func checkSite(m0, m1 *emu.Machine, r *rand.Rand, origText []byte, textAddr, site uint64) ([]emuRun, []float64, error) {
	if site < textAddr || site >= textAddr+uint64(len(origText)) {
		return nil, nil, fmt.Errorf("site %#x outside .text", site)
	}
	inst, err := x86.Decode(origText[site-textAddr:], site)
	if err != nil || !(inst.IsJmp() || inst.IsJcc()) {
		return nil, nil, fmt.Errorf("site %#x is not a jump in the input", site)
	}
	if !inst.IsDirectBranch() {
		return nil, nil, nil
	}
	patterns := flagPatterns[:1]
	if inst.IsJcc() {
		patterns = flagPatterns
	}
	var runs []emuRun
	var ratios []float64
	taken := map[bool]bool{}
	for _, flags := range patterns {
		var regs [16]uint64
		for i := range regs {
			regs[i] = r.Uint64()
		}
		run0, err := stepSite(m0, site, regs, flags, func(m *emu.Machine) bool { return true })
		if err != nil {
			return nil, nil, fmt.Errorf("site %#x (%s) in the input: %w", site, inst.String(), err)
		}
		want := m0.RIP
		taken[want != site+uint64(inst.Len)] = true
		run1, err := stepSite(m1, site, regs, flags, func(m *emu.Machine) bool { return m.RIP == want })
		if err != nil {
			return nil, nil, fmt.Errorf("site %#x (%s) in the output: %w", site, inst.String(), err)
		}
		if m1.Regs != m0.Regs {
			return nil, nil, fmt.Errorf("site %#x (%s): registers differ on reaching %#x", site, inst.String(), want)
		}
		runs = append(runs, run0, run1)
		ratios = append(ratios, float64(run1.Cycles)/float64(run0.Cycles))
	}
	if inst.IsJcc() && inst.Target() != site+uint64(inst.Len) && len(taken) != 2 {
		return nil, nil, fmt.Errorf("site %#x (%s): the flag patterns did not take the jcc both ways", site, inst.String())
	}
	return runs, ratios, nil
}

// stepSite resets m to the given registers and flags at site and steps
// it until done holds, at most siteStepLimit instructions.
func stepSite(m *emu.Machine, site uint64, regs [16]uint64, flags uint64, done func(*emu.Machine) bool) (emuRun, error) {
	m.Regs, m.RIP, m.Flags, m.Counters = regs, site, flags, emu.Counters{}
	start := time.Now()
	for {
		if err := m.Step(); err != nil {
			return emuRun{}, err
		}
		if done(m) {
			break
		}
		if m.Counters.Instructions >= siteStepLimit {
			return emuRun{}, fmt.Errorf("no return to original text within %d instructions", siteStepLimit)
		}
	}
	return emuRun{MS: ms(time.Since(start)), Insts: m.Counters.Instructions, Cycles: m.Counters.Cycles, FarJumps: m.Counters.FarJumps}, nil
}
