package main

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// setupRounds is how many times a plain run sets up; setup_s is their
// median.
const setupRounds = 5

// setup generates the inputs, writes them and starts the measuring
// child, setupRounds times, and returns the last round's ops and child
// with every round's time in seconds.
func (r *runner) setup(w workloadSpec) ([]op, *child, []float64, error) {
	var (
		ops   []op
		c     *child
		times []float64
	)
	for i := 0; i < setupRounds; i++ {
		if c != nil {
			if err := c.wait(); err != nil {
				return nil, nil, nil, err
			}
		}
		if err := freshDir(r.dir); err != nil {
			return nil, nil, nil, err
		}
		start := time.Now()
		var err error
		if ops, err = r.build(w); err != nil {
			return nil, nil, nil, err
		}
		if c, err = startChild(); err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return ops, c, times, nil
}

// plain is the measured run: whole passes over the ops, each op in a
// fresh child as each e9tool run is, until the run's seconds are spent.
// Every output is checked, and must equal the op's first output.
func (r *runner) plain(w workloadSpec) (*result, *report, error) {
	ops, c, setups, err := r.setup(w)
	if err != nil {
		return nil, nil, err
	}
	var (
		shas      = make([]string, len(ops)) // first output of each op
		firsts    = make([]*reply, len(ops))
		opRewrite = make([][]float64, len(ops)) // ms per rewrite, by op
		opVerdict = make([][]float64, len(ops)) // ms per verdict or checked site, by op
		opRSS     = make([][]float64, len(ops)) // peak RSS, by op
		logRatios float64
		nRatios   int
		bytesIn   float64
		rewriteMS float64
	)
	start := time.Now()
	passes := 0
	for ; passes == 0 || time.Since(start).Seconds() < r.seconds; passes++ {
		for i := range ops {
			o := &ops[i]
			if c == nil {
				if c, err = startChild(); err != nil {
					return nil, nil, err
				}
			}
			r.attempts++
			rep, err := c.do(o)
			if werr := c.wait(); err == nil {
				err = werr
			}
			c = nil
			if err != nil {
				return nil, nil, err
			}
			if rep.Err != "" {
				r.fail(o.Label, errors.New(rep.Err))
				continue
			}
			if shas[i] == "" {
				shas[i], firsts[i] = rep.SHA256, rep
			}
			// A failed check counts the op as failed; its figures
			// still count, so a failure does not move the metrics.
			if rep.CheckErr != "" {
				r.fail(o.Label, errors.New(rep.CheckErr))
			} else if rep.SHA256 != shas[i] {
				r.fail(o.Label, fmt.Errorf("output differs from this input's first rewrite in the run"))
			}
			opRewrite[i] = append(opRewrite[i], rep.RewriteMS)
			opRSS[i] = append(opRSS[i], rep.PeakRSSMB)
			rewriteMS += rep.RewriteMS
			bytesIn += float64(rep.InputSize)
			if o.Verify {
				opVerdict[i] = append(opVerdict[i], rep.VerdictMS)
			} else {
				// Pooled over passes, so a child that ran faster or
				// slower shifts the op's median by its share of sites.
				opVerdict[i] = append(opVerdict[i], rep.SiteMS...)
			}
			logRatios += rep.LogRatios
			nRatios += rep.NRatios
		}
	}
	elapsed := time.Since(start)

	var selected, patched, in, out float64
	for _, f := range firsts {
		if f != nil {
			selected += float64(f.Selected)
			patched += float64(f.Patched)
			in += float64(f.InputSize)
			out += float64(f.OutputSize)
		}
	}
	rewrites, rewriteMedians := flatten(opRewrite)
	verdicts, verdictMedians := flatten(opVerdict)
	rss, rssMedians := flatten(opRSS)
	metrics := map[string]*metric{
		"setup_s":        {quantile(setups, 0.5), "s"},
		"rewrite_mbps":   {bytesIn / mb / (rewriteMS / 1000), "MB/s"},
		"rewrite_ms.p50": {quantile(rewriteMedians, 0.5), "ms"},
		"peak_rss_mb":    {mean(rssMedians), "MB"},
		"coverage_pct":   {100 * patched / selected, "%"},
		"size_pct":       {100 * out / in, "%"},
		"verdict_ms.p50": {quantile(verdictMedians, 0.5), "ms"},
		"time_pct":       {100 * math.Exp(logRatios/float64(nRatios)), "%"},
	}
	rep := &report{
		Workload: w.name,
		Mode:     "plain",
		Envelope: r.envelope(ops, passes, elapsed),
		Samples: map[string]int{
			"setup_s":      len(setups),
			"rewrite_ms":   len(rewrites),
			"verdict_ms":   len(verdicts),
			"peak_rss_mb":  len(rss),
			"time_pct":     nRatios,
			"coverage_pct": int(selected),
		},
		Extra: map[string]*extra{
			"rewrite_ms.p90": p90(rewrites),
			"verdict_ms.p90": p90(verdicts),
			"failed_ratio":   r.failedRatio(),
		},
		Failures: r.failures,
	}
	rep.Envelope.SetupRounds = setupRounds
	return r.newResult(metrics), rep, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// flatten returns every sample of every op, and each op's median.
func flatten(byOp [][]float64) (all, medians []float64) {
	for _, xs := range byOp {
		if len(xs) > 0 {
			all = append(all, xs...)
			medians = append(medians, quantile(xs, 0.5))
		}
	}
	return all, medians
}
