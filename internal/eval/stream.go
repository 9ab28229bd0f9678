package eval

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"e9patch/internal/workload"
)

// StreamBench is the zero-copy streaming measurement recorded in
// BENCH_stream.json: rewrite a browser-class (100 MB+) binary twice —
// once through the buffered one-shot path (ReadFile + Rewrite, whose
// input copy lives on the heap), once through the streaming path
// (mmap-backed input + Stream + single-allocation output) — and compare
// peak RSS and allocation counts. Identical certifies the two paths
// produced byte-for-byte the same output while doing so.
//
// Methodology (DESIGN.md §12): each path runs in its own child process
// (re-exec with E9_STREAM_CHILD set) and "peak RSS" is the kernel's
// ru_maxrss for that child — no sampling, no GC-pacing noise, and no
// allocator history shared between the paths. The mmap'd input is
// file-backed and still counted by ru_maxrss when touched, so the
// streaming path gets no accounting discount for it; the saving it
// shows is real heap it never allocated.
type StreamBench struct {
	TargetMB   int
	TextMB     int
	InputBytes int
	Insts      int
	Locations  int
	Mmapped    bool

	// Peak RSS (ru_maxrss) of each path's child process, in bytes.
	BufferedPeakBytes uint64
	StreamPeakBytes   uint64
	// Mallocs delta across each path's rewrite.
	BufferedAllocs uint64
	StreamAllocs   uint64
	// TotalAlloc delta across each path's rewrite.
	BufferedHeapBytes uint64
	StreamHeapBytes   uint64

	BufferedSec float64
	StreamSec   float64

	// BudgetBytes is the asserted fixed ceiling for the streaming path:
	// the buffered peak minus half the input size. UnderBudget means the
	// streaming path saved at least that much — the input copies it
	// never made.
	BudgetBytes uint64
	UnderBudget bool
	Identical   bool
}

// MeasureStream builds the targetMB browser-class workload on disk and
// rewrites it through both input paths (each in its own measurement
// child), verifying byte-identity and the streaming path's memory
// bound. The running executable must have called MaybeStreamChild at
// startup.
func MeasureStream(targetMB, textMB int, progress io.Writer) (*StreamBench, error) {
	if progress != nil {
		fmt.Fprintf(progress, "# stream: building %d MB workload (%d MB text)\n", targetMB, textMB)
	}
	prog, err := workload.BuildStream(targetMB, textMB)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "e9stream")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "stream.bin")
	if err := os.WriteFile(path, prog.ELF, 0o644); err != nil {
		return nil, err
	}
	out := &StreamBench{TargetMB: targetMB, TextMB: textMB, InputBytes: len(prog.ELF)}
	prog = nil // keep the parent light; the children do the real work

	if progress != nil {
		fmt.Fprintf(progress, "# stream: buffered child\n")
	}
	buffered, bufferedRSS, err := runStreamPath("buffered", path, textMB)
	if err != nil {
		return nil, err
	}
	if progress != nil {
		fmt.Fprintf(progress, "# stream: mmap+stream child\n")
	}
	streamed, streamRSS, err := runStreamPath("stream", path, textMB)
	if err != nil {
		return nil, err
	}

	out.Insts = buffered.Insts
	out.Locations = buffered.Locations
	out.Mmapped = streamed.Mmapped
	out.BufferedPeakBytes = bufferedRSS
	out.StreamPeakBytes = streamRSS
	out.BufferedAllocs = buffered.Allocs
	out.StreamAllocs = streamed.Allocs
	out.BufferedHeapBytes = buffered.HeapBytes
	out.StreamHeapBytes = streamed.HeapBytes
	out.BufferedSec = buffered.Seconds
	out.StreamSec = streamed.Seconds
	out.Identical = buffered.SHA256 == streamed.SHA256 &&
		buffered.OutputSize == streamed.OutputSize && buffered.OutputSize > 0

	half := uint64(out.InputBytes) / 2
	if out.BufferedPeakBytes > half {
		out.BudgetBytes = out.BufferedPeakBytes - half
	}
	out.UnderBudget = out.BudgetBytes > 0 && out.StreamPeakBytes <= out.BudgetBytes
	return out, nil
}
