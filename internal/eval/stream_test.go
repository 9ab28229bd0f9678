package eval

import (
	"os"
	"testing"
)

// TestMain lets the test binary serve as its own stream-measurement
// child when MeasureStream re-execs it.
func TestMain(m *testing.M) {
	MaybeStreamChild()
	os.Exit(m.Run())
}

// TestMeasureStreamSmall runs the streaming measurement on a shrunken
// workload: byte-identity between the buffered and streaming paths is a
// hard invariant at any size, and the streaming path must never peak
// above the buffered one. At this scale the two childrens' peaks may
// coincide (both can peak in the shared disassembly phase), so only the
// full fixed-budget assertion — which runs at 100 MB+ in
// `e9bench -stream`, where the margins are hundreds of MB — demands a
// strict saving.
func TestMeasureStreamSmall(t *testing.T) {
	// The measurement children inherit this and run single-threaded.
	// Both paths run the same pipeline, so their peaks differ only by
	// where the input lives (10-16 MB at this size); with two threads,
	// GC pacing moves either peak by up to 30 MB and the comparison
	// below turns into a coin flip.
	t.Setenv("GOMAXPROCS", "1")
	sb, err := MeasureStream(8, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sb.Identical {
		t.Fatal("streamed output diverged from buffered rewrite")
	}
	if sb.Insts == 0 || sb.Locations == 0 {
		t.Fatalf("degenerate workload: %d insts, %d locations", sb.Insts, sb.Locations)
	}
	if sb.InputBytes < 8<<20 {
		t.Fatalf("workload is %d bytes, want >= %d", sb.InputBytes, 8<<20)
	}
	if sb.StreamPeakBytes > sb.BufferedPeakBytes {
		t.Fatalf("stream peak RSS %d > buffered peak %d", sb.StreamPeakBytes, sb.BufferedPeakBytes)
	}
	// Both paths run the same pipeline; what differs is where the input
	// lives. The mmap path keeps it off the heap, so the streaming
	// rewrite must allocate at least the input's size less.
	if sb.StreamHeapBytes+uint64(sb.InputBytes) > sb.BufferedHeapBytes {
		t.Fatalf("stream heap %d + input %d > buffered heap %d: the mmap path put the input on the heap",
			sb.StreamHeapBytes, sb.InputBytes, sb.BufferedHeapBytes)
	}
}
