# PPEP reproduction — common targets.

GO ?= go

.PHONY: all test lint lint-perf fmt-check ci smoke smoke-cache loadgen-smoke fleet-smoke fuzz-smoke bench-all experiments flagship fmt vet tools

all: test

test: lint
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./...

# ppeplint: the module's own static-analysis suite (internal/lint).
# Non-zero exit on any unsuppressed finding; see docs/LINTING.md.
lint:
	$(GO) run ./cmd/ppeplint

# perfcheck alone: the compiler-diagnostics budgets (hot-path escapes,
# //ppep:inline verdicts, //ppep:nobc residual bounds checks). The
# fastest loop while tuning a hot function — everything else in the
# suite is skipped, and Go's build cache replays the diagnostics of
# packages that did not change.
lint-perf:
	$(GO) run ./cmd/ppeplint -analyzers=perfcheck

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The full merge gate. .github/workflows/ci.yml runs the same checks,
# each once, as its own named step. The full ppeplint run includes
# perfcheck, so lint-perf is not repeated here.
ci: fmt-check
	$(GO) vet ./...
	$(GO) run ./cmd/ppeplint
	$(GO) test -race -count=1 ./...
	$(MAKE) smoke
	$(MAKE) smoke-cache
	$(MAKE) loadgen-smoke
	$(MAKE) fleet-smoke
	$(MAKE) fuzz-smoke
	cd perfbench && $(GO) vet ./...
	cd perfbench && $(GO) test ./...
	$(GO) run ./cmd/ppeplint -C perfbench

# Service-mode smoke test: the httptest endpoint suite, the end-to-end
# faulted-loop integration test, the daemon's sampler and loop tests
# (the pinned register trace, the counts-vs-mux oracle, refusals versus
# device faults), and the ppepd command's own tests (flag validation and
# a batch run of the daemon assembly -serve shares), run fresh
# (-count=1) so a cached `go test ./...` pass can't mask a ppepd
# regression.
smoke:
	$(GO) test -count=1 -run 'TestServe|TestListenAndServe' ./internal/serve
	$(GO) test -count=1 -run 'TestSampler|TestDaemon' ./internal/daemon
	$(GO) test -count=1 ./cmd/ppepd

# Trace-cache smoke test: run a reduced campaign once with no cache and
# twice into the same fresh cache directory. The last run must be pure
# decode (misses=0 in the greppable stats line, see docs/CACHE.md), and
# all three must print the same experiment table and headline: only the
# timing and `trace cache` lines may differ. The cache directory must
# hold exactly one sealed segment after the cold run and still exactly
# one after the warm run (which therefore wrote nothing), and no `.tmp-*`
# file after either. Before the warm run, a copy of the cold run's
# segment with the schema field of its trailer set to the previous
# tracecodec.SchemaVersion is planted in the directory: the warm run
# must remove it. Bit-transparency of every trace is covered separately
# by TestCacheEquivalence.
smoke-cache:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/ppep-experiments" ./cmd/ppep-experiments && \
	run() { "$$dir/ppep-experiments" -scale 0.01 -max 3 -run sec4a-idle "$$@"; } && \
	results() { grep -v -e 'trace cache' -e '^ *([0-9.]*s)$$' | sed 's/ready in [0-9.]*s/ready/'; } && \
	files() { segs=$$(ls -A "$$dir/cache" | grep -c '^seg-.*\.ppts$$' || :) && tmps=$$(ls -A "$$dir/cache" | grep -c '^\.tmp-' || :) && \
		{ [ "$$segs" = 1 ] && [ "$$tmps" = 0 ] || \
		{ echo "smoke-cache: after the $$1 run the cache holds $$segs sealed segments and $$tmps temp files (want 1 and 0)"; return 1; }; }; } && \
	plant() { old="$$dir/cache/seg-0000000000000000-previous-schema.ppts" && cp "$$dir/cache"/seg-*.ppts "$$old" && \
		at=$$(( $$(wc -c < "$$old") - 12 )) && schema=$$(od -An -tu4 --endian=little -j "$$at" -N4 "$$old" | tr -d ' ') && \
		printf "\\$$(printf %03o $$((schema - 1)))\\000\\000\\000" | dd of="$$old" bs=1 seek="$$at" conv=notrunc status=none; } && \
	none=$$(run) && cold=$$(run -cache-dir "$$dir/cache") && files cold && plant && warm=$$(run -cache-dir "$$dir/cache") && files warm && \
	{ [ ! -e "$$old" ] || { echo "smoke-cache: the warm run kept the segment of the previous schema"; exit 1; }; } && \
	echo "$$warm" | grep 'trace cache' && \
	{ echo "$$warm" | grep -q 'misses=0 ' || { echo "smoke-cache: warm run re-simulated (want misses=0)"; exit 1; }; } && \
	want=$$(echo "$$none" | results) && \
	{ [ "$$(echo "$$cold" | results)" = "$$want" ] && [ "$$(echo "$$warm" | results)" = "$$want" ] || \
	{ echo "smoke-cache: cached runs print other results than the uncached run"; exit 1; }; }

# Serving-layer smoke test: ppep-loadgen spins up an in-process ppepd
# (slim training, loopback port) and drives a short closed loop against
# /predict/batch; non-trivial throughput and a loose p99 ceiling are
# asserted by the tool itself (exit 1 on violation). The bounds are
# deliberately lax — CI machines are noisy; the real numbers, with
# their spread and host, come from
# `python3 perfbench/run.py --workload ppepd` (perfbench/README.md).
loadgen-smoke:
	$(GO) run ./cmd/ppep-loadgen -self -duration 2s -c 16 -binary -min-rps 1000 -max-p99 250ms

# Fleet-engine smoke test: a small sharded fleet on the heterogeneous
# mix, asserting (1) per-node fingerprints bit-identical to a
# workers=1 reference rerun — the engine's determinism
# contract — and (2) a deliberately lax throughput floor (CI machines
# are noisy; the real numbers, with their spread and host, come from
# `python3 perfbench/run.py --workload fleet`, see perfbench/README.md).
fleet-smoke:
	$(GO) run ./cmd/ppep-fleet -nodes 64 -seconds 2 -mix mixed -check-invariance -min-mticks 0.05

# Fuzz smoke test: every Fuzz* target under internal/ and cmd/ runs its
# seed corpus and then fuzzes for a few seconds. go test -fuzz takes one
# target in one package per run, hence the loop. A finding fails the
# target and go test writes the failing input under the package's
# testdata/fuzz/ directory.
fuzz-smoke:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' internal cmd); do 		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\).*/\1/p' $$f); do 			echo "fuzz-smoke: $$t in $$(dirname $$f)"; 			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 3s ./$$(dirname $$f); 		done; 	done

# Every benchmark, including the figure/table regenerations.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Quick pass over every table/figure (shrunken benchmarks).
experiments:
	$(GO) run ./cmd/ppep-experiments -scale 0.1

# The flagship run behind EXPERIMENTS.md (minutes, full suite list).
flagship:
	$(GO) run ./cmd/ppep-experiments -scale 0.5 -phenom -md docs/RESULTS.md

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

tools:
	$(GO) build ./cmd/...
