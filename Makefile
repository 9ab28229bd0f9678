GO ?= go

.PHONY: all build fmt vet test race difftest enginecheck plancheck speccheck rpccheck disasmcheck bench bench-json bench-parallel bench-plancache bench-match bench-stream bench-disasm bench-cluster benchsmoke servertest clustercheck fuzzshort fuzzhostile ci

all: build test

build:
	$(GO) build ./...

# fmt fails if any file needs gofmt.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# difftest runs the differential suites: rewriter (original vs patched),
# engines (interp vs tbc vs ir, including the FuzzEngines seed corpus),
# the per-engine stats/speedup tests, and the parallel-vs-sequential
# corpus (byte-identity at every worker count, under the race detector).
difftest:
	$(GO) test -run 'TestDifferentialFuzz|TestFuzzSelectAllCoverage' .
	$(GO) test -run FuzzEngines .
	$(GO) test ./internal/emu/...
	$(GO) test -race -run 'TestParallelRewrite|TestParallelEmulatorEquivalence|FuzzParallelRewrite' .
	$(GO) test -race -run 'TestParallel|TestRegionConflictRedo|TestBeltFallback|TestShardable|Shardable' ./internal/patch/ ./internal/disasm/ ./internal/match/

# enginecheck is the cross-engine correctness gate: the shared
# conformance suite and golden per-instruction traces over every
# registered engine (interp, tbc, ir), the engine-specific
# optimization/speedup tests, and a short three-way differential fuzz.
# Re-record goldens with:
#   go test ./internal/emu/enginetest/ -run TestEngineGoldenTraces -update-golden
enginecheck:
	$(GO) test ./internal/emu/enginetest/
	$(GO) test ./internal/emu/tbc/ ./internal/emu/ir/
	$(GO) test -run '^FuzzEngines$$' -fuzz '^FuzzEngines$$' -fuzztime 5s .

# plancheck verifies the plan/apply split: plan determinism, golden
# JSON schema, serialization round trips, and Plan+Apply byte-identity
# with the direct Rewrite (which composes from the live rewriter, no
# plan in between) over the difftest corpus (every binary x tactic
# config x parallelism width), plus the plan IR unit tests and the
# server's plan-cache rematerialization path.
plancheck:
	$(GO) test -run 'TestPlan|TestApplyValidation|TestRewriteInputImmutable' .
	$(GO) test ./internal/plan/
	$(GO) test -run TestPlanCacheRematerialize ./internal/server/

# speccheck verifies the match/patch spec language end to end: the
# lang unit suite (typed diagnostics, hostile-input caps, fuzz seed
# corpus), the golden spec corpus, the A1/A2 spec-vs-hardcoded
# byte-identity gate at every parallelism width, the call-trampoline
# recipes executed under the emulator (argument marshalling asserted),
# and the served spec/payload transport with its 422 mapping.
speccheck:
	$(GO) test ./internal/lang/
	$(GO) test -run 'TestSpecGoldenCorpus|TestRecipeFilesInSync|TestSpecSelectorEquivalence' .
	$(GO) test -run 'TestSyscallTraceRecipe|TestBranchCoverageRecipe|TestCallArgumentMarshalling|TestApplyRejectsHostileInjections' .
	$(GO) test -run 'TestSpec|TestBadSpecMaps422' ./internal/server/

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# bench-json regenerates every machine-readable BENCH_*.json artefact
# (the perf trajectory): engine throughput, parallel scaling, the
# plan-cache speedup, the spec-matcher cost, the streaming memory
# bound, and the per-disassembly-mode recovery sweep.
bench-json: bench-parallel bench-plancache bench-match bench-stream bench-disasm bench-cluster
	$(GO) run ./cmd/e9bench -enginespeed -json BENCH_engines.json

# bench-parallel records the rewrite-phase scaling curve (widths 1..8)
# with the byte-identity check; on a single-core runner the curve is
# honestly flat and the identity bit is the load-bearing result.
bench-parallel:
	$(GO) run ./cmd/e9bench -parallelism 8 -json BENCH_parallel.json

# bench-plancache records how much of a full rewrite a plan-cache hit
# skips (plan once, apply = rematerialize), with byte-identity checked.
bench-plancache:
	$(GO) run ./cmd/e9bench -plancache -json BENCH_plancache.json

# bench-match records the spec-language matcher's per-instruction cost
# against the hardcoded selectors it subsumes (selection identity is
# checked before timing; a divergence fails the run).
bench-match:
	$(GO) run ./cmd/e9bench -matchlang -json BENCH_match.json

# bench-stream proves the zero-copy streaming memory claim on a
# browser-class (120 MB) workload: each input path runs in its own
# child process, peak RSS comes from the kernel (getrusage), outputs
# must be byte-identical, and the streaming peak must stay under the
# buffered peak minus half the input — the run fails otherwise.
bench-stream:
	$(GO) run ./cmd/e9bench -stream -json BENCH_stream.json

# rpccheck verifies the JSON-RPC backend protocol end to end: the
# golden transcripts in testdata/rpc replayed against the built
# cmd/e9patch binary (outputs hash-compared with the library path),
# the usage/abuse paths of the backend binary, the e9tool -backend
# subprocess pipeline, the in-library session grammar/abuse suite with
# its fuzz seed corpus, and the served /v2/rewrite streaming endpoint.
rpccheck:
	$(GO) test -run 'TestRPCGolden|TestUsageOnTerminalStdin|TestBackendReportsStreamErrors' -count 1 ./cmd/e9patch/
	$(GO) test -run TestBackendPipeline -count 1 ./cmd/e9tool/
	$(GO) test ./internal/rpc/
	$(GO) test -run 'TestStreamEndpoint' -count 1 ./internal/server/

# disasmcheck gates the pluggable recovery frontends: linear
# byte-identity at every width, the superset ⊇ linear differential over
# every workload profile, the CET anchor-closure unit and profile
# suites, end-to-end superset-cet rewrites of CET and DSO binaries
# verified under the emulator, plain-superset trampolines that must
# reach far branch targets exactly, plan↔mode digest binding, the .so
# builder/parser geometry, the modern workload rows, and a short
# exploration of the superset-prune fuzzer.
disasmcheck:
	$(GO) test ./internal/disasm/
	$(GO) test -run 'TestDisasm|TestSupersetCETRewriteEquivalent|TestDSORewriteEquivalent|TestPlanModeBinding|TestSupersetRewriteReportsStats|TestSupersetFarBranchTargets' .
	$(GO) test -run 'TestSharedBuildRoundTrip|TestInitSegmentSpans|TestTextRange|TestExecSpans|TestBuildBackCompat' ./internal/elf64/
	$(GO) test -run 'TestModernProfiles|TestPaperSharedRowsUnchanged' ./internal/workload/
	$(GO) test -run 'TestSpecDisasm' ./internal/server/
	$(GO) test -run 'TestSessionDisasmOption' ./internal/rpc/
	$(GO) test -run '^FuzzSupersetPrune$$' -fuzz '^FuzzSupersetPrune$$' -fuzztime 5s ./internal/disasm/

# bench-disasm records the per-mode recovery benchmark: instruction
# counts (decoded/valid/kept), the CET prune ratio, plan sites and
# rewrite throughput for each disassembly mode over a paper-era row
# plus the CET and DSO profiles.
bench-disasm:
	$(GO) run ./cmd/e9bench -disasm -json BENCH_disasm.json

# benchsmoke runs the benchmark module's own tests (perfbench is a
# separate module, so `go test ./...` never reaches them): seed
# determinism, and a tiny plain and traced run of every workload. The
# traced run requires Rewrite, the recomposed output, ApplyTrusted and
# Stream to be byte-identical.
benchsmoke:
	cd perfbench && GOPROXY=off $(GO) test ./...

# servertest is the e9served smoke test: build the real binary, start
# it on an ephemeral port, POST a corpus binary, and check the output
# is byte-identical to a direct e9patch.Rewrite.
servertest:
	$(GO) test -run TestServedSmoke -count 1 ./cmd/e9served/

# clustercheck gates the distributed e9served surfaces on an in-process
# 3-node cluster: consistent-hash forwarding, peer plan-fetch
# byte-identity, owner-down local fallback, the internal plan endpoint,
# plan-delta responses (identity and gzip wire coding), /v1/batch
# validation/quotas/streaming, the chaos batch (one node killed
# mid-batch over the hostile corpus must finish with zero 5xx), and the
# trusted-apply contract backing peer rematerialization.
clustercheck:
	$(GO) test -run 'TestCluster|TestBatch|TestPlanFetch|TestPlanDelta|TestLastWaiterCancelDuringPeerFetch' -count 1 ./internal/server/
	$(GO) test -run 'TestApplyTrusted' -count 1 .
	$(GO) test ./internal/cluster/

# bench-cluster records the distributed wins with their acceptance
# gates enforced in-run: peer plan-fetch must be >=5x cheaper than a
# replan (whole-request, byte-identity checked) and plan-delta egress
# must stay <=10% of the full-binary response on the 120 MB profile.
bench-cluster:
	$(GO) run ./cmd/e9bench -cluster -json BENCH_cluster.json

# fuzzshort actually explores the differential fuzzers for a few
# seconds each (plain `go test` only replays the seed corpus).
fuzzshort:
	$(GO) test -run '^FuzzEngines$$' -fuzz '^FuzzEngines$$' -fuzztime 5s .
	$(GO) test -run '^FuzzParallelRewrite$$' -fuzz '^FuzzParallelRewrite$$' -fuzztime 5s .

# fuzzhostile explores the malformed-ELF input space (seeded from the
# checked-in testdata/hostile corpus) plus the hostile deterministic
# suites: truncations, header bit flips, tampered plans, limit bounds.
# The property is containment — hostile input may be rejected, but only
# with a classified error, never a panic or ErrInternal.
fuzzhostile:
	$(GO) test -run 'TestHostile|TestLibraryLimits|TestMmapFallbackDifferential' -count 1 .
	$(GO) test -run '^FuzzRewriteHostileELF$$' -fuzz '^FuzzRewriteHostileELF$$' -fuzztime 10s .

ci: fmt vet race difftest enginecheck plancheck speccheck rpccheck disasmcheck benchsmoke servertest clustercheck fuzzshort fuzzhostile
