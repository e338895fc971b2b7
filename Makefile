# Local verification targets mirroring .github/workflows/ci.yml, so a
# green `make ci` locally means a green CI run.

GO ?= go

.PHONY: build test race fmt vet smoke htapsmoke servesmoke fleetsmoke e2esmoke cover bench benchsweep benchsmoke benchdiff ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent code (worker pool, harness and
# fleet fan-out) and the linalg/mab/policy/env/serve/optimizer/engine
# layers every concurrently run cell, tenant and serving session drives:
# each owns its state, and -race proves no goroutine shares it.
race:
	$(GO) test -race ./internal/runner/... ./internal/linalg/... ./internal/mab/... ./internal/harness/... ./internal/policy/... ./internal/env/... ./internal/serve/... ./internal/fleet/... ./internal/optimizer/... ./internal/engine/...

# Fails when any file needs gofmt, listing the offenders.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# End-to-end smoke run: Figure 2, shrunken rounds, 4-way parallel sweep.
smoke:
	$(GO) run ./cmd/experiments -exp fig2 -quick -parallel 4 -progress

# HTAP smoke mirroring CI: the hybrid-regime comparison at two
# parallelism levels, stdout byte-compared for determinism.
htapsmoke:
	$(GO) run ./cmd/experiments -exp htap -quick -parallel 1 > .htap_p1.out
	$(GO) run ./cmd/experiments -exp htap -quick -parallel 4 > .htap_p4.out
	diff .htap_p1.out .htap_p4.out
	@rm -f .htap_p1.out .htap_p4.out

# Fleet smoke mirroring CI: an 8-tenant heterogeneous fleet (mixed
# benchmarks, regimes and scale factors, two tenants admitted late with
# cross-tenant warm starts) run serially and 4-way parallel, stdout
# byte-compared — tenant scheduling must never leak into any number.
fleetsmoke:
	$(GO) run ./cmd/fleet -tenants 8 -rounds 3 -rows 500 -parallel 1 > .fleet_p1.out
	$(GO) run ./cmd/fleet -tenants 8 -rounds 3 -rows 500 -parallel 4 > .fleet_p4.out
	diff .fleet_p1.out .fleet_p4.out
	@rm -f .fleet_p1.out .fleet_p4.out

# Serving-mode smoke mirroring CI: serve a 5-window stream to the end,
# then serve it again but kill the process at a window-3 checkpoint and
# restore from disk — the stitched kill-and-restore output must match
# the uninterrupted run byte for byte (only the process-local Served
# counter in the summary line is masked).
servesmoke:
	@printf '1 2 3 4\n2 3 1\n5 5 2\n1 4\n3 2 1\n' > .serve_stream.txt
	$(GO) run ./cmd/serve -stream .serve_stream.txt > .serve_full.out
	$(GO) run ./cmd/serve -stream .serve_stream.txt -checkpoint .serve.ckpt -stop-after 3 > .serve_head.out
	$(GO) run ./cmd/serve -restore -stream .serve_stream.txt -checkpoint .serve.ckpt > .serve_tail.out
	head -n 3 .serve_head.out > .serve_stitch.out
	head -n 2 .serve_tail.out >> .serve_stitch.out
	head -n 5 .serve_full.out | diff - .serve_stitch.out
	tail -n 1 .serve_full.out | sed 's/"Served":[0-9]*/"Served":0/' > .serve_sum_full.out
	tail -n 1 .serve_tail.out | sed 's/"Served":[0-9]*/"Served":0/' > .serve_sum_tail.out
	diff .serve_sum_full.out .serve_sum_tail.out
	@rm -f .serve_stream.txt .serve.ckpt .serve_full.out .serve_head.out .serve_tail.out .serve_stitch.out .serve_sum_full.out .serve_sum_tail.out

# End-to-end benchmark smoke mirroring CI: one short traced run of every
# BENCHMARK.json workload, each in the foreground. The benchmark
# byte-checks repeated episodes, its traced mirror of env.RunPolicy
# against the untraced loop and (serving) checkpoint round-trips; the
# target fails unless every result line reports "correct":true and
# "failed":0. The build directory is removed afterwards.
E2E_WORKLOADS = cell-adhoc-mab cell-adhoc-pdtool serve-adhoc-ckpt

e2esmoke:
	@status=0; for w in $(E2E_WORKLOADS); do \
		out=$$(bash e2ebench/run.sh --workload $$w --seed 1 --seconds 2 --trace 1 | tail -n 1) || status=1; \
		case "$$out" in \
		*'"correct":true'*'"failed":0,'*) echo "e2esmoke: $$w ok" ;; \
		*) echo "e2esmoke: $$w failed: $$out" >&2; status=1 ;; \
		esac; \
	done; rm -rf .bench_build; exit $$status

# Per-package coverage, as published in the CI workflow summary.
cover:
	$(GO) test -cover ./...

# Hot-path benchmark capture: runs the recommend-loop benchmarks with
# -benchmem and writes the numbers to BENCH_<short-sha>.json via
# cmd/benchjson, so the perf trajectory is tracked in-repo. Compare
# against BENCH_baseline.json (captured at the pre-sparse-fast-path
# commit) — see the README's Performance section.
BENCH_PATTERN = 'BenchmarkTunerRecommendTPCDS$$|BenchmarkTunerRecommendSteadyState$$|BenchmarkScoresBatch$$|BenchmarkCholObserve$$|BenchmarkCholObserveFused$$|BenchmarkC2UCBScores$$|BenchmarkArmGeneration$$|BenchmarkFleetRound$$|BenchmarkChoosePlanCold$$|BenchmarkChoosePlanWarm$$|BenchmarkWhatIfWorkloadCold$$|BenchmarkWhatIfWorkloadWarm$$|BenchmarkEnvRoundSteadyState$$'

bench:
	$(GO) test -run '^$$' -bench $(BENCH_PATTERN) -benchmem ./... > .bench.out
	$(GO) run ./cmd/benchjson < .bench.out > BENCH_$$(git rev-parse --short HEAD).json
	@rm -f .bench.out
	@echo wrote BENCH_$$(git rev-parse --short HEAD).json

# Committed latest capture; bump when `make bench` commits a new one.
BENCH_LATEST = BENCH_5468017.json

# Perf regression tripwire mirroring CI: re-runs the Observe/Scores
# and recommend-round hot paths, captures them through benchjson, and
# fails if any benchmark present in both captures regressed ns/op OR
# allocs/op by more than 30% against the committed latest capture — the
# alloc budget is what keeps TunerRecommend's arena path flat.
# Benchmarks new since that capture are reported but never gated.
benchdiff:
	$(GO) test -run '^$$' -bench 'Observe|Scores|TunerRecommend|ChoosePlan|WhatIfWorkload|EnvRound' -benchmem . ./internal/linalg/ ./internal/mab/ ./internal/env/ > .benchdiff.out
	$(GO) run ./cmd/benchjson < .benchdiff.out > .benchdiff.json
	@$(GO) run ./cmd/benchdiff -only 'Observe|Scores|TunerRecommend|ChoosePlan|WhatIfWorkload|EnvRound' -fail-over 30 -fail-over-allocs 30 $(BENCH_LATEST) .benchdiff.json; \
	status=$$?; rm -f .benchdiff.out .benchdiff.json; exit $$status

# Parallel-runner speedup benchmark (sequential vs all-CPU sweep).
benchsweep:
	$(GO) test -run '^$$' -bench BenchmarkRunCellsStaticSweep -benchtime 1x .

# Compile-and-run smoke over every benchmark in the repo (one iteration
# each), so benchmarks can't rot between perf-focused PRs — plus a
# benchjson round-trip over the mab hot-path benches so the capture
# tooling can't rot either.
benchsmoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...
	$(GO) test -run '^$$' -bench 'BenchmarkScoresBatch$$|BenchmarkTunerRecommendSteadyState$$' -benchtime 1x ./internal/mab/ > .benchsmoke.out
	$(GO) run ./cmd/benchjson < .benchsmoke.out > /dev/null
	@rm -f .benchsmoke.out

# cover subsumes test (go test -cover runs the full suite), so ci pays
# for one suite pass plus the race pass, matching the CI workflow.
ci: fmt vet build cover race smoke htapsmoke servesmoke fleetsmoke e2esmoke benchsmoke benchdiff
