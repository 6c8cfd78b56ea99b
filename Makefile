# Developer entry points. Everything is stdlib-only Go; no tools beyond
# the toolchain are required.

.PHONY: all build test vet lint asm-check float-exhaustive loc race race-soak bias-soak fuzz-smoke cover check bench bench-check experiments loadgen-smoke format-compat chaos chaos-smoke

# Soak durations and fuzz budget. The defaults are the pre-release deep
# pass; the nightly workflow overrides them (RACE_SOAK=60s ... FUZZTIME=5m)
# and `make race` runs the same tests at their 2s in-test defaults.
RACE_SOAK ?= 20s
BIAS_SOAK ?= 20s
FUZZTIME ?= 10s

all: build test

build:
	go build ./...

test: build
	go test ./...

vet:
	go vet ./...

# Fast-fail style gate: gofmt on every tracked Go file plus go vet. Runs
# first in CI so formatting mistakes fail in seconds, not after the race
# suite. It also refuses runtime.ReadMemStats in Go code outside tests and
# bench/: the call stops the world, and on a serving path it pauses every
# request's goroutine (runtime/metrics reads the same counters without a
# pause).
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@if git grep -n 'runtime.ReadMemStats' -- '*.go' ':!bench' ':!*_test.go'; then \
		echo "runtime.ReadMemStats stops the world; use runtime/metrics (metrics.ReadAllocCounters)"; exit 1; \
	fi
	go vet ./...

# Go line counts, non-test and test: decoder + pool + server (the unit
# ROADMAP items 1, 4 and 6 gate on), then the whole tree. Blank lines and
# comments count; a PR that claims to shrink the code quotes this before
# and after.
loc:
	@count() { find "$$@" -name '*.go' $$neg -name '*_test.go' -print0 | xargs -0 cat | wc -l; }; \
	for set in "internal/decoder internal/pool internal/server" "."; do \
		neg='!'; src=$$(count $$set); neg=''; tst=$$(count $$set); \
		printf '%-50s %6d non-test %6d test\n' "$$set" $$src $$tst; \
	done

# race-checks the whole module, in particular the concurrent DecodePool,
# the server's handlers and the scorers' pooled window states shared by
# concurrent streams. Run this before sending any change that touches
# concurrent code.
race:
	go test -race ./...

# Extended lifecycle soak: $(RACE_SOAK) of mixed batch + stream load
# against a saturated two-worker pool with a mid-flight SIGTERM drain,
# under the race detector. `make race` runs the same test at its 2s
# default; this target is the pre-release deep pass (docs/LOAD.md).
# Test-binary flags must come after the package path: `go test` stops
# package-list parsing at the first flag it does not know, so the old
# flags-first ordering silently tested the repo root instead.
race-soak:
	go test -race -run TestSoakMixedLoadWithDrain -count=1 -v ./internal/server/ -soak $(RACE_SOAK)

# Tenant-churn bias endurance pass: $(BIAS_SOAK) of many-tenant biased
# batch load through a decode pool plus per-tenant chunked streams under
# the race detector, with workers changing bias machines mid-flight, every
# completed decode checked against its biased solo reference
# (docs/BIASING.md). `make race`
# runs the same test at its 2s default; run the deep pass for changes
# touching internal/bias or the bias plumbing.
bias-soak:
	go test -race -run TestSoakBiasTenantChurn -count=1 -v ./internal/pool/ -bias-soak $(BIAS_SOAK)

# Randomized corruption passes over the model-bundle loaders — the v2
# directory format and the v3 flat container (docs/ROBUSTNESS.md,
# docs/MODEL_STORE.md). Catches loader panics long fuzz runs would. The
# live stream path (random chunk partitions through the chunk scorer, per
# scorer kind) against whole-utterance decodes, the bias compiler, and the
# server's feature reader against encoding/json on arbitrary request
# bodies ride along.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzLoadBundle$$' -fuzztime $(FUZZTIME) .
	go test -run '^$$' -fuzz '^FuzzLoadBundleV3$$' -fuzztime $(FUZZTIME) .
	go test -run '^$$' -fuzz '^FuzzStreamChunks$$' -fuzztime $(FUZZTIME) ./internal/decoder/
	go test -run '^$$' -fuzz '^FuzzBiasCompiler$$' -fuzztime $(FUZZTIME) ./internal/bias/
	go test -run '^$$' -fuzz '^FuzzFeatureBody$$' -fuzztime $(FUZZTIME) ./internal/server/

# Coverage floors: the decoder package (Viterbi hot path — token store,
# pruning, rescue, streaming) and the bias compiler (per-tenant machines on
# the request path) must stay at least 80% covered; the serving stack
# (server admission/handlers, pool, telemetry) at least 75% each.
# Profiles land under build/ (gitignored) so repeated runs never litter the
# repo root; CI uploads them as artifacts.
cover:
	@mkdir -p build
	go test -coverprofile=build/cover.out ./internal/decoder/
	@go tool cover -func=build/cover.out | awk '/^total:/ { \
		pct = $$3 + 0; \
		printf "internal/decoder coverage: %.1f%% (floor 80%%)\n", pct; \
		if (pct < 80) { print "FAIL: coverage below floor"; exit 1 } }'
	go test -coverprofile=build/cover-bias.out ./internal/bias/
	@go tool cover -func=build/cover-bias.out | awk '/^total:/ { \
		pct = $$3 + 0; \
		printf "internal/bias coverage: %.1f%% (floor 80%%)\n", pct; \
		if (pct < 80) { print "FAIL: coverage below floor"; exit 1 } }'
	@for pkg in server pool telemetry; do \
		go test -coverprofile=build/cover-$$pkg.out ./internal/$$pkg/ > build/cover-$$pkg.log 2>&1 || \
			{ cat build/cover-$$pkg.log; rm -f build/cover-$$pkg.log; exit 1; }; \
		rm -f build/cover-$$pkg.log; \
		go tool cover -func=build/cover-$$pkg.out | awk -v pkg=$$pkg '/^total:/ { \
			pct = $$3 + 0; \
			printf "internal/%s coverage: %.1f%% (floor 75%%)\n", pkg, pct; \
			if (pct < 75) { print "FAIL: coverage below floor"; exit 1 } }' || exit 1; \
	done

# The repo's one assembly file holds the DNN and GMM tile kernels
# (internal/acoustic/tile_amd64.s): the frame-lane ones (rows4x16, rows1x16,
# reluTile, gmmTile) and the senone-lane gmmSenones behind ScoreSenones.
# Three things keep it honest: the generic bodies every other GOARCH runs
# must keep compiling, tests included, through tile_other.go's stubs (arm64
# cross-build, vet and test compile, no network needed); asmdecl (in go
# vet) checks every TEXT symbol's frame layout against its Go declaration,
# which only happens when vetting for amd64; and the package's tests run
# under the race build, where the compiler's code around the kernels
# differs. The race build skips
# TestLogSumExpExhaustive (every float32 in [-16, -0] through the
# log-sum-exp table, ~20 s on two cores) and its tile arm
# TestLogSumExpExhaustiveTile (the same arguments through the AVX2 lanes,
# ~11 s): `make test` runs both, being neither -short nor -race, and the
# nightly workflow runs them as its own job.
asm-check:
	GOOS=linux GOARCH=arm64 go build ./...
	GOOS=linux GOARCH=arm64 go vet ./internal/acoustic
	GOOS=linux GOARCH=arm64 go test -c -o /dev/null ./internal/acoustic
	GOARCH=amd64 go vet ./internal/acoustic
	go test -race ./internal/acoustic

# Every finite float32 through the request-body reader's number scanner
# (internal/server/features.go), written as json.Marshal writes it and as
# strconv's shortest 'e' form: each must come back bit for bit. Minutes of
# CPU split across GOMAXPROCS goroutines, so `make test` skips it (it needs
# -float-exhaustive) and the nightly workflow runs it as its own job.
float-exhaustive:
	go test -run '^TestScanNumberExhaustive$$' -count=1 -v -timeout 60m ./internal/server -float-exhaustive

# The pre-merge gate: lint (gofmt + vet), the assembly checks, the full
# suite under the race detector (which includes the differential and
# allocation-regression tests), the decoder coverage floor, and a fuzz smoke
# over the bundle loader.
check: lint asm-check race cover fuzz-smoke

bench:
	go test -bench=. -benchmem ./...

# Benchmark-regression smoke. The allocs/frame gates are ordinary tests
# (internal/decoder/alloc_test.go, TestAllocsPoolDecode in internal/pool),
# so `make test` and `make check` already hold them. The two timing gates
# are same-run ratios, not absolutes, so they are safe on shared CI
# runners: TestScoreKernelRatio times the blocked ScoreUtterance kernel
# against the scalar test oracle (median of 5) and fails below 4.0x for the
# DNN on the AVX2 tile (1.3x on the generic path; the test logs which ran),
# 5.0x / 1.5x for the GMM on the same two paths, 0.95x for the RNN;
# TestSearchKernelRatio times the tokenStore search against the map oracle
# on a 12 000-word fixture at beam 85 (median of 5) and fails below 5.5x.
# Last, the bench harness checks itself: `go run ./bench -smoke` runs every
# workload on the 40-word fixture in under 10 s, its on-the-fly ==
# fully-composed transcript gate included.
bench-check:
	go test -run TestScoreKernelRatio -count=1 -v ./internal/acoustic
	go test -run TestSearchKernelRatio -count=1 -v ./internal/decoder
	go run ./bench -smoke

# On-disk format compatibility gate (docs/MODEL_STORE.md): the checked-in
# golden v2 bundle must load, convert to a v3 flat bundle via wfst-tool,
# pass full verification, and decode byte-identically on every load path
# against the checked-in transcript. A failure means a format change broke
# already-deployed bundles. Regenerate the golden set after an intentional
# format bump with: go test -run TestGoldenFormatCompat -update-golden .
format-compat:
	go test -run TestGoldenFormatCompat -count=1 -v .
	go build -o /tmp/unfold-wfst-tool ./cmd/wfst-tool
	/tmp/unfold-wfst-tool -op convert -dir testdata/golden-v2 -out /tmp/unfold-golden.ufb3
	/tmp/unfold-wfst-tool -op info -bundle /tmp/unfold-golden.ufb3
	/tmp/unfold-wfst-tool -op verify -bundle /tmp/unfold-golden.ufb3

experiments:
	go run ./cmd/unfold-experiments -exp all -quick

# Overload smoke (docs/LOAD.md): a 2-worker quarter-scale server takes 10
# seconds of 4x-capacity open-loop load. The loadgen exits nonzero on any
# 5xx, transport failure, malformed accepted response, or accepted p99
# past 8s (the per-request deadline is 5s); the final `wait` fails if the
# server crashed or did not drain cleanly on SIGTERM.
loadgen-smoke:
	go build -o /tmp/unfold-smoke-serve ./cmd/unfold-serve
	go build -o /tmp/unfold-smoke-loadgen ./cmd/unfold-loadgen
	@/tmp/unfold-smoke-serve -task voxforge -scale 0.25 -workers 2 \
		-addr 127.0.0.1:18090 -max-queue 8 -degrade-low 2 -degrade-high 6 & \
	SERVE_PID=$$!; \
	trap "kill $$SERVE_PID 2>/dev/null" EXIT; \
	/tmp/unfold-smoke-loadgen -target http://127.0.0.1:18090 \
		-task voxforge -scale 0.25 -duration 10s -multiplier 4 \
		-utt-frames 40 -max-p99 8s || exit 1; \
	trap - EXIT; \
	kill -TERM $$SERVE_PID; \
	wait $$SERVE_PID

# The deterministic chaos suite (docs/ROBUSTNESS.md): seeded fault-injection
# tests covering quarantine and backoff reloads, cross-model isolation while
# one model is corrupted on disk, stream watchdogs against stalled clients,
# and the fault-injection primitives themselves. Everything runs under the
# race detector; the same seeds replay the same faults.
chaos:
	go test -race -count=1 -run 'TestChaos|TestStream|TestDecodeFailure|TestQuarantine' ./internal/server/
	go test -race -count=1 ./internal/faultinject/
	go test -race -count=1 -run 'TestCheckHeader|TestRecheck' ./internal/flatstore/

# Live chaos drill (docs/ROBUSTNESS.md): a 2-model server (task "default" +
# a packed "victim" bundle) takes steady load while unfold-loadgen -chaos
# corrupts the victim's bundle in place, parks stalled streaming clients,
# and then heals the file. The loadgen exits nonzero unless the victim was
# quarantined, only structured errors were answered while it was sick, the
# healthy model saw zero 5xx, and the victim returned to ready; the final
# `wait` fails if the server crashed or did not drain on SIGTERM.
chaos-smoke:
	go build -o /tmp/unfold-chaos-serve ./cmd/unfold-serve
	go build -o /tmp/unfold-chaos-loadgen ./cmd/unfold-loadgen
	go build -o /tmp/unfold-chaos-wfst ./cmd/wfst-tool
	/tmp/unfold-chaos-wfst -task voxforge -scale 0.25 -op pack -out /tmp/unfold-chaos-victim.ufb3
	@/tmp/unfold-chaos-serve -task voxforge -scale 0.25 -workers 2 \
		-addr 127.0.0.1:18091 -bundle victim=/tmp/unfold-chaos-victim.ufb3 \
		-health-interval 300ms -reload-backoff 100ms \
		-stream-watchdog 2s -stream-write-timeout 2s & \
	SERVE_PID=$$!; \
	trap "kill $$SERVE_PID 2>/dev/null" EXIT; \
	/tmp/unfold-chaos-loadgen -target http://127.0.0.1:18091 \
		-task voxforge -scale 0.25 -rps 5 -duration 10s -utt-frames 40 \
		-chaos -chaos-bundle /tmp/unfold-chaos-victim.ufb3 -chaos-model victim \
		-wait-ready 30s || exit 1; \
	trap - EXIT; \
	kill -TERM $$SERVE_PID; \
	wait $$SERVE_PID
