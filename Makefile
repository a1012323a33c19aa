GO ?= go

# Packages that gained concurrency (worker-pool training / batch inference,
# pooled tapes and scratch encoders, pooled wire decoders, the request edge's
# pooled status recorder and Content-Length memo, the shared scorer memo
# behind the optimizer's cost-model hook, the lock-free multi-tenant adapter
# registry) and must stay clean under the race detector.
RACE_PKGS := ./internal/nn ./internal/core ./internal/plan ./internal/wire ./internal/pgexplain ./internal/serve ./internal/servecache ./internal/gateway ./internal/baselines ./internal/feedback ./internal/adapt ./internal/telemetry ./internal/optimizer ./internal/tenant ./internal/loadgen

.PHONY: all fmt vet build build-arm64 check-paths test test-dispatch race train-workers example bench-kernels bench-test benchmark bench-gate ci

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

# The two invariants the type-checked gate cannot see, because neither is Go
# code: the kernel assembly never fuses a multiply into an add (FMA rounds
# once where the Go loops round twice, which would break bitwise equality;
# the mnemonics are the same for XMM, YMM and ZMM operands, so the one
# pattern covers every .s file under internal/nn), and no command grows back
# a flag for a removed switch (-max-batch, -queue-depth, -cache-ttl,
# -metrics, -lora). Every other architecture rule is a row of archRules in
# reach_test.go, which `go test .` checks.
check-paths:
	@bad="$$(grep -rnHiE --include='*.s' 'VF(N?MADD|N?MSUB)' internal/nn; \
		grep -rnE --include='*.go' '[[:alnum:]]+\.[A-Z][A-Za-z0-9]*\("(max-batch|queue-depth|cache-ttl|metrics|lora)"' cmd)"; \
	if [ -n "$$bad" ]; then echo "check-paths violated:"; echo "$$bad"; exit 1; fi

test:
	$(GO) test ./...

# The packages whose tests run the kernels end to end (training, serving,
# the optimizer's scorer), once per dispatch level below the host's: the
# test-only tag nn_avx2 caps internal/nn at its AVX2 bodies and nn_generic at
# its Go bodies, so an AVX-512 host also runs the Go branches an AVX2-only or
# arm64 host takes (simd_amd64.go). No product build names either tag
# (reach_test.go).
DISPATCH_PKGS := ./internal/nn ./internal/core ./internal/baselines ./internal/serve ./internal/optimizer

test-dispatch:
	$(GO) test -tags nn_avx2 $(DISPATCH_PKGS)
	$(GO) test -tags nn_generic $(DISPATCH_PKGS)

race:
	$(GO) test -race -timeout 45m $(RACE_PKGS)

# A trained model file is byte-identical for 1 and 4 training workers.
train-workers:
	@set -e; d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/dace" ./cmd/dace; \
	for w in 1 4; do \
		"$$d/dace" train -dbs airline,walmart -queries 60 -epochs 4 -workers "$$w" -model "$$d/m$$w.json"; \
	done; \
	cmp "$$d/m1.json" "$$d/m4.json"

# The executable walk-through of a fleet: three replicas, a gateway, a
# replica killed mid-traffic and a tenant-zero rollout (~2 s).
example:
	$(GO) run ./examples/cluster

# The repository's performance instrument (BENCHMARK.json, benchmark/README.md):
# each of the five workloads once, 15 s, untraced, one result JSON line per
# workload. Add `--out f.jsonl` runs on two commits and `-compare a.jsonl
# b.jsonl` to judge a change against the benchmark's bounds.
benchmark:
	bash benchmark/run.sh --workload all --seed 1 --seconds 15 --trace 0

# The perf gate: benchmark/ on BASE and on this tree, five alternating runs
# of all five workloads each, then -compare against BENCHMARK.json's bounds —
# a regressed, unresolved or missing row exits 1. BASE is measured by its own
# benchmark/ from a detached worktree, removed on exit (and, if a killed run
# left one behind, before the next); the two result files stay in
# .bench_build/ (CI uploads them). Advisory in CI, not blocking: on a shared
# runner an A/A (BASE=HEAD) exits 1 on `unresolved` rows — EXPERIMENTS.md,
# "retiring the old bench command"; ROADMAP P0 step 3.
bench-gate:
	@test -n "$(BASE)" || { echo "usage: make bench-gate BASE=<rev>" >&2; exit 2; }
	@set -eu; root="$$PWD"; base="$$root/.bench_build/base"; \
	git worktree remove --force "$$base" 2>/dev/null || true; git worktree prune; \
	trap 'git -C "$$root" worktree remove --force "$$base" 2>/dev/null || true' EXIT; \
	git worktree add --detach "$$base" $(BASE); \
	rm -f .bench_build/base.jsonl .bench_build/head.jsonl; \
	for i in 1 2 3 4 5; do \
		if [ $$((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			tree="$$root"; if [ $$side = base ]; then tree="$$base"; fi; \
			bash "$$tree/benchmark/run.sh" --workload all --seed 1 --seconds 15 --trace 0 --out "$$root/.bench_build/$$side.jsonl"; \
		done; \
	done; \
	bash benchmark/run.sh -compare .bench_build/base.jsonl .bench_build/head.jsonl

# The SIMD primitives against their Go bodies on the shapes one forward runs,
# and training's adjoints against the routes they replaced.
bench-kernels:
	$(GO) test -run '^$$' -bench BenchmarkKernels ./internal/nn

# The raw go-test micro-benchmarks of data-parallel training and batch
# inference.
bench-test:
	$(GO) test -run xxx -bench 'BenchmarkTrainParallel|BenchmarkPredictBatch' -benchtime 3x .

# Everything CI's `test` job runs bar the kernel-dispatch log and the fuzz
# smokes. The perf gate is not here: it needs a BASE to measure against
# (`make bench-gate BASE=<rev>`), which CI supplies from the pull request in
# an advisory job of its own.
ci: fmt vet build build-arm64 check-paths test test-dispatch train-workers race example
