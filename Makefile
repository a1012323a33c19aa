GO ?= go

# Packages that gained concurrency (worker-pool training / batch inference,
# pooled tapes and scratch encoders, pooled wire decoders, the shared
# scorer memo behind the optimizer's cost-model hook, the lock-free
# multi-tenant adapter registry) and must stay clean under the race
# detector.
RACE_PKGS := ./internal/nn ./internal/core ./internal/plan ./internal/serve ./internal/servecache ./internal/gateway ./internal/baselines ./internal/feedback ./internal/adapt ./internal/telemetry ./internal/optimizer ./internal/tenant ./internal/loadgen

.PHONY: all fmt vet build build-arm64 check-paths test race bench bench-kernels benchmark ci load-smoke

all: ci

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The generic kernel bodies are the only path off amd64: prove they compile
# there (the native vet's asmdecl pass covers the amd64 stubs).
build-arm64:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/nn/...

# The single-inference-path invariants, checked by grep: serving never turns
# a decoded plan back into a *plan.Node tree, core's inference side never
# touches the autodiff tape (training reaches it through nn.GradPool), and the
# admission stage stays work-conserving — no timer to linger on and no
# goroutine to hand a request to, so a miss runs on its handler's goroutine.
# And the kernel assembly never fuses a multiply into an add: FMA rounds once
# where the Go loops round twice, which would break bitwise equality.
check-paths:
	@bad="$$(grep -rn --include='*.go' --exclude='*_test.go' '\.Tree()' internal/serve; \
		grep -rn --include='*.go' --exclude='*_test.go' 'nn\.GetTape' internal/core; \
		grep -nHE 'time\.(NewTimer|After|Sleep)|^[[:space:]]*go[[:space:]]' internal/serve/batcher.go; \
		grep -nHiE 'VF(N?MADD|N?MSUB)' internal/nn/*.s)"; \
	if [ -n "$$bad" ]; then echo "check-paths violated:"; echo "$$bad"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 45m $(RACE_PKGS)

# The alloc/GC-aware harness: fixed seed, warmup, and ReadMemStats capture.
# Writes BENCH_<date>.json and prints a Markdown report with deltas against
# the PR 1 baseline (or -baseline <file>).
bench:
	$(GO) run ./cmd/bench -quick

# The CI smoke gate: quick benchmark (serve + tenant + adapt + gateway +
# score scenarios included) that fails on a >35% throughput regression against
# the committed baseline JSON, or on memoized candidate scoring dropping
# below its absolute 5× bar. The baseline records per-scenario floors (min
# over several runs) — single-core runners jitter ~±30%, and the gate is
# for catching real regressions, not scheduler noise.
bench-check:
	$(GO) run ./cmd/bench -quick -out /tmp/dace-bench-check.json -baseline BENCH_2026-08-09.json -check -max-regress 35

# The repository's performance instrument (BENCHMARK.json, benchmark/README.md):
# each of the five workloads once, 15 s, untraced, one result JSON line per
# workload. Add `--out f.jsonl` runs on two commits and `-compare a.jsonl
# b.jsonl` to judge a change against the benchmark's bounds.
benchmark:
	bash benchmark/run.sh --workload all --seed 1 --seconds 15 --trace 0

# Open-loop load smoke (also part of the default bench-check flow, since an
# empty -only runs every group): closed-loop capacity probe, open-loop tail
# at 3× saturation (the coordinated-omission check — fails unless open-loop
# P99 >= 5× closed-loop P99), and the drift-soak with one mid-flight adapt
# promotion gated on windowed P99 ratio, post-GC heap slope, and errors.
# Writes SOAK_<date>.csv / SOAK_<date>.md next to the bench JSON.
load-smoke:
	$(GO) run ./cmd/bench -quick -only load -check

# Optimizer-in-the-loop scoring scenarios only: memoized vs unmemoized
# candidate throughput and DP join-search wall-clock (classic vs DACE).
bench-score:
	$(GO) run ./cmd/bench -quick -only score

# The SIMD primitives against their Go bodies on the shapes one forward runs.
bench-kernels:
	$(GO) test -run '^$$' -bench BenchmarkKernels ./internal/nn

# The raw go-test benchmarks (heavier; regenerates paper artifacts too with
# `-bench .`).
bench-test:
	$(GO) test -run xxx -bench 'BenchmarkTrainParallel|BenchmarkPredictBatch' -benchtime 3x .

ci: fmt vet build build-arm64 check-paths test race
