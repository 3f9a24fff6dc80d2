# PPEP reproduction — common targets.

GO ?= go
# perfcheck's raw compiler-transcript cache (ppeplint -gcflags-cache):
# content-hash keyed, so repeat runs over an unchanged tree skip the
# -gcflags='-m -m -d=ssa/check_bce/debug=1' compile. CI persists this
# directory with actions/cache.
GCFLAGS_CACHE ?= .gcflags-cache

.PHONY: all test lint lint-perf fmt-check ci smoke smoke-cache loadgen-smoke fleet-smoke fuzz-smoke bench-all experiments flagship fmt vet tools

all: test

test: lint
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./...

# ppeplint: the module's own static-analysis suite (internal/lint).
# Non-zero exit on any unsuppressed finding; see docs/LINTING.md.
lint:
	$(GO) run ./cmd/ppeplint -gcflags-cache $(GCFLAGS_CACHE)

# perfcheck alone: the compiler-diagnostics budgets (hot-path escapes,
# //ppep:inline verdicts, //ppep:nobc residual bounds checks). The
# fastest loop while tuning a hot function — everything else in the
# suite is skipped and the transcript cache absorbs the compile.
lint-perf:
	$(GO) run ./cmd/ppeplint -analyzers=perfcheck -gcflags-cache $(GCFLAGS_CACHE)

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The full merge gate. .github/workflows/ci.yml runs the same checks,
# each once, as its own named step. The full ppeplint run includes
# perfcheck, so lint-perf is not repeated here.
ci: fmt-check
	$(GO) vet ./...
	$(GO) run ./cmd/ppeplint -gcflags-cache $(GCFLAGS_CACHE)
	$(GO) test -race ./...
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

# Trace-cache smoke test: run a reduced campaign twice into the same
# fresh cache directory; the second run must be pure decode (misses=0
# in the greppable stats line, see docs/CACHE.md). Bit-transparency is
# covered separately by TestCacheEquivalence.
smoke-cache:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/ppep-experiments -scale 0.01 -max 3 -run sec4a-idle -cache-dir "$$dir" >/dev/null && \
	out=$$($(GO) run ./cmd/ppep-experiments -scale 0.01 -max 3 -run sec4a-idle -cache-dir "$$dir") && \
	echo "$$out" | grep 'trace cache' && \
	echo "$$out" | grep -q 'misses=0 ' || { echo "smoke-cache: warm run re-simulated (want misses=0)"; exit 1; }

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
# workers=1/shard=1 reference rerun — the engine's determinism
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
