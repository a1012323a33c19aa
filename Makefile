GO ?= go

# Packages that gained concurrency (worker-pool training / batch inference,
# pooled tapes and scratch encoders, pooled wire decoders, the request edge's
# pooled status recorder and Content-Length memo, the shared scorer memo
# behind the optimizer's cost-model hook, the lock-free multi-tenant adapter
# registry) and must stay clean under the race detector.
RACE_PKGS := ./internal/nn ./internal/core ./internal/plan ./internal/wire ./internal/pgexplain ./internal/serve ./internal/servecache ./internal/gateway ./internal/baselines ./internal/feedback ./internal/adapt ./internal/telemetry ./internal/optimizer ./internal/tenant ./internal/loadgen

.PHONY: all fmt vet build build-arm64 check-paths test race example bench-kernels bench-test benchmark bench-gate ci

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
# where the Go loops round twice, which would break bitwise equality. (The
# mnemonics are the same for XMM, YMM and ZMM operands, so the one pattern
# covers the AVX-512 body too; the search is every .s file under internal/nn,
# whatever it is called and wherever a later kernel puts it.)
# And the one-request-edge invariants: the gateway never touches a plan tree
# (every encoding, pg included, routes from the FlatPlan internal/wire hands
# it), and the request-edge helpers are defined in internal/wire and nowhere
# else under internal/ — a second definition is a copy that will drift.
# And the one-served-snapshot invariants: no non-test code sets a served
# version apart from its model, and the (domain, generation) -> salt function
# is servecache.DomainSalt and nothing else under internal/.
# And the one-adaptation-domain invariants: internal/tenant schedules nothing
# (no goroutine, no ticker, no job channel — background fine-tunes are
# adapt.Pool's), no non-test code outside internal/adapt reads an artifact
# version into service except through Controller.Load, serve tells a busy
# domain by errors.Is(err, adapt.ErrBusy) and not by duck-typing, and
# serve.Server has no Loader hook beside its Base domain.
# And the one-plan-representation invariants: between the socket and the
# model, on the write path as on the read path, a plan is a plan.FlatPlan —
# non-test serve, feedback, adapt and tenant never name the pointer tree or
# its parser, and the feedback log has no JSON writer (encoding/json is there
# to read the legacy payload only).
# And the load generator measures and does not judge: no forced collection in
# the process doing the measuring.
# And the lean-gateway invariant: the rollout starts no goroutine — it is
# three cold handlers, with no shadow traffic running beside the routed
# requests.
# A deleted function is kept from coming back by reach_test.go, not by name
# here: code no main package reaches fails `go test ./...`.
# And the one-pipeline invariants: every serve.Server runs the admission
# stage and telemetry (no nil check on either is left to switch one off),
# the prediction cache has no TTL (a domain salt retires entries, a clock
# never does), and no command grows back a flag for a removed switch —
# -max-batch, -queue-depth, -cache-ttl, -metrics, or -lora (a model file
# says whether it carries adapters).
# And the probe-only hashing invariant: the candidate scorer hashes a subtree
# when it looks it up (plan.Node.SubtreeFingerprint), never every subtree of
# a candidate up front — non-test internal/core does not call
# AppendSubtreeFingerprints.
check-paths:
	@bad="$$(grep -rn --include='*.go' --exclude='*_test.go' '\.Tree()' internal/serve; \
		grep -rn --include='*.go' --exclude='*_test.go' 'nn\.GetTape' internal/core; \
		grep -nHE 'time\.(NewTimer|After|Sleep)|^[[:space:]]*go[[:space:]]' internal/serve/batcher.go; \
		grep -rnHiE --include='*.s' 'VF(N?MADD|N?MSUB)' internal/nn; \
		grep -rnE --include='*.go' --exclude='*_test.go' 'pgexplain\.|plan\.AppendBinary\(|\.Fingerprint\(\)' internal/gateway; \
		grep -rnE --include='*.go' --exclude-dir=wire '^func (queryParam|QueryParam|isBinaryContentType|IsBinaryContentType|allowOnly|AllowOnly|contentLengthValue|ContentLengthValue|plausibleTenantID|ValidateID|ValidateTenantID)\(' internal; \
		grep -rn --include='*.go' --exclude='*_test.go' 'SetVersion(' internal cmd examples; \
		grep -rnE --include='*.go' --exclude='*_test.go' '^func (\([^)]*\) )?[A-Za-z]*[sS]alt[A-Za-z]*\(' internal | grep -v '^internal/servecache/cache.go:[0-9]*:func DomainSalt('; \
		grep -rnE --include='*.go' --exclude='*_test.go' '^[[:space:]]*go[[:space:]]|time\.NewTicker|chan \*Tenant' internal/tenant; \
		grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=adapt 'adapt\.(LoadVersion|LoadCurrent|Rollback)\(' internal cmd examples; \
		grep -rnE --include='*.go' 'interface[[:space:]]*\{[[:space:]]*Busy\(\) bool[[:space:]]*\}' internal/serve; \
		grep -nHE '^[[:space:]]*Loader[[:space:]]' internal/serve/serve.go; \
		grep -rnE --include='*.go' --exclude='*_test.go' 'plan\.(Plan|Node)\b|FromTree\(|ReadJSON\(' internal/serve internal/feedback internal/adapt internal/tenant; \
		grep -rn --include='*.go' --exclude='*_test.go' 'json\.Marshal' internal/feedback; \
		grep -rn --include='*.go' --exclude='*_test.go' 'runtime\.GC(' internal/loadgen; \
		grep -nHE '^[[:space:]]*go[[:space:]]' internal/gateway/rollout.go; \
		grep -rnE --include='*.go' --exclude='*_test.go' 's\.(bat|tel) (==|!=) nil' internal/serve; \
		grep -nHE 'expires|expiredEntry|expiryAt' internal/servecache/cache.go; \
		grep -rnE --include='*.go' '[[:alnum:]]+\.[A-Z][A-Za-z0-9]*\("(max-batch|queue-depth|cache-ttl|metrics|lora)"' cmd; \
		grep -rnE --include='*.go' --exclude='*_test.go' '^type (Domain|served) ' internal/serve; \
		grep -rn --include='*.go' --exclude='*_test.go' 'AppendSubtreeFingerprints' internal/core)"; \
	if [ -n "$$bad" ]; then echo "check-paths violated:"; echo "$$bad"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 45m $(RACE_PKGS)

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

# The SIMD primitives against their Go bodies on the shapes one forward runs.
bench-kernels:
	$(GO) test -run '^$$' -bench BenchmarkKernels ./internal/nn

# The raw go-test micro-benchmarks of data-parallel training and batch
# inference.
bench-test:
	$(GO) test -run xxx -bench 'BenchmarkTrainParallel|BenchmarkPredictBatch' -benchtime 3x .

# Everything CI's `test` job runs bar the fuzz smokes. The perf gate is not
# here: it needs a BASE to measure against (`make bench-gate BASE=<rev>`),
# which CI supplies from the pull request in an advisory job of its own.
ci: fmt vet build build-arm64 check-paths test race example
