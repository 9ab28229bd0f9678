// Command perfbench is the repository's benchmark: one seeded command
// that runs a workload through the library's public API, checks every
// output and prints the end-to-end metrics (plain run) or the
// per-layer metrics (traced run, --trace 1). See README.md.
//
//	perfbench --workload paper-corpus --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result: a JSON object with
// the keys correct, attempted, failed and metrics. The line before it
// is the run's report: its host and run envelope, the sample count
// behind each metric, the metrics gated only where they have enough
// samples, and every failure with its input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"e9patch/internal/workload"
)

const mb = 1 << 20

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]*metric `json:"metrics"`
}

// report is the line before the result.
type report struct {
	Workload string             `json:"workload"`
	Mode     string             `json:"mode"` // "plain" or "traced"
	Envelope envelope           `json:"envelope"`
	Samples  map[string]int     `json:"samples"`
	Extra    map[string]*extra  `json:"extra"`
	Shares   map[string]float64 `json:"self_time_share,omitempty"`
	Spans    string             `json:"spans,omitempty"`
	Failures []string           `json:"failures"`
}

// extra is a metric reported but not gated: a p90, whose value is null
// below p90min samples, or the failed ratio.
type extra struct {
	Value   *float64 `json:"value"`
	Unit    string   `json:"unit"`
	Samples int      `json:"samples"`
}

// envelope records the host and the run behind a result.
type envelope struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	OSArch      string  `json:"os_arch"`
	Commit      string  `json:"commit"`
	Seed        int64   `json:"seed"`
	Engine      string  `json:"engine"`
	Load        string  `json:"load"`
	Seconds     float64 `json:"seconds"`
	Passes      int     `json:"passes"`
	Inputs      int     `json:"inputs"`
	OpsPerPass  int     `json:"ops_per_pass"`
	InputBytes  int64   `json:"input_bytes"`
	MinInputKB  float64 `json:"min_input_kb"`
	MaxInputKB  float64 `json:"max_input_kb"`
	SetupRounds int     `json:"setup_rounds,omitempty"`
}

// runner holds one run's settings and its failure accounting.
type runner struct {
	seed     int64
	seconds  float64
	sz       sizes
	dir      string // scratch directory for inputs and outputs
	attempts int
	failures []string
}

// fail counts a failed operation and prints it with its input.
func (r *runner) fail(label string, err error) {
	msg := fmt.Sprintf("%s: %v", label, err)
	r.failures = append(r.failures, msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL", msg)
}

// envelope describes the host and the inputs of a pass.
func (r *runner) envelope(ops []op, passes int, elapsed time.Duration) envelope {
	e := envelope{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit(),
		Seed:       r.seed,
		Engine:     workload.Engine,
		Load:       "closed loop, one client: one operation at a time",
		Seconds:    elapsed.Seconds(),
		Passes:     passes,
		OpsPerPass: len(ops),
	}
	seen := map[string]bool{}
	for _, o := range ops {
		if seen[o.Path] {
			continue
		}
		seen[o.Path] = true
		st, err := os.Stat(o.Path)
		if err != nil {
			continue
		}
		kb := float64(st.Size()) / 1024
		if e.Inputs == 0 || kb < e.MinInputKB {
			e.MinInputKB = kb
		}
		if kb > e.MaxInputKB {
			e.MaxInputKB = kb
		}
		e.Inputs++
		e.InputBytes += st.Size()
	}
	return e
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// freshDir empties and recreates dir.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

func main() {
	maybeChild()
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds (whole passes; at least one)")
	trace := flag.Int("trace", 0, "1: traced run with per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func run(name string, seed int64, seconds float64, trace int) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	build := os.Getenv("CARGO_TARGET_DIR")
	if build == "" {
		build = ".bench_build"
	}
	base := filepath.Join(build, "perfbench")
	r := &runner{
		seed:    seed,
		seconds: seconds,
		sz:      fullSizes,
		dir:     filepath.Join(base, fmt.Sprintf("work-%d", os.Getpid())),
	}
	defer os.RemoveAll(r.dir)
	var res *result
	var rep *report
	if trace == 1 {
		res, rep, err = r.traced(w, filepath.Join(base, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed)))
	} else {
		res, rep, err = r.plain(w)
	}
	if err != nil {
		return err
	}
	return emit(os.Stdout, res, rep)
}

// emit prints the report line and then the result line.
func emit(f *os.File, res *result, rep *report) error {
	for _, v := range []any{rep, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(f, "%s\n", line); err != nil {
			return err
		}
	}
	return nil
}

// newResult fills in the failure accounting of a run.
func (r *runner) newResult(metrics map[string]*metric) *result {
	return &result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempts,
		Failed:    len(r.failures),
		Metrics:   metrics,
	}
}

// failedRatio is failed operations over attempted ones.
func (r *runner) failedRatio() *extra {
	v := float64(len(r.failures)) / float64(max(r.attempts, 1))
	return &extra{&v, "ratio", r.attempts}
}

// quantile is the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// p90min is the sample count from which a p90 has ten samples beyond it.
const p90min = 100

// p90 returns the 90th percentile, without a value below p90min
// samples.
func p90(xs []float64) *extra {
	e := &extra{Unit: "ms", Samples: len(xs)}
	if len(xs) >= p90min {
		v := quantile(xs, 0.9)
		e.Value = &v
	}
	return e
}
