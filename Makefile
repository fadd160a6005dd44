# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); EXPERIMENTS.md records the results.

GO ?= go
# Benchmarks of the parallel analysis front-end (ISSUE 4): signature
# simulation and ODC observability.
FRONTEND_BENCH = BenchmarkFrontEnd
BENCHTIME ?= 1s

.PHONY: test race fuzz bench bench-baseline bench-append bench-fastser bench-eco serve

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# Run every fuzz target (each func Fuzz* in a tracked _test.go file
# outside perfbench/) in its package for FUZZTIME. CI's fuzz-smoke job
# runs this, so a new target is fuzzed there without a workflow edit.
FUZZTIME ?= 10s
fuzz:
	@targets=$$(git ls-files '*_test.go' | grep -v '^perfbench/' \
		| xargs grep -Ho '^func Fuzz[A-Za-z0-9_]*' | sed 's/:func /:/'); \
	test -n "$$targets" || { echo "make fuzz: no fuzz targets found" >&2; exit 1; }; \
	for t in $$targets; do \
		pkg=./$$(dirname $${t%%:*}); name=$${t##*:}; \
		echo "$(GO) test -run '^$$' -fuzz '^$$name\$$' -fuzztime $(FUZZTIME) $$pkg"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

# Human-readable front-end benchmark run (benchstat-ready: pipe two runs
# into benchstat to compare worker counts or revisions).
bench:
	$(GO) test -run=NONE -bench '$(FRONTEND_BENCH)' -benchmem -benchtime $(BENCHTIME) .

# Record a fresh trajectory file (destroys history; normally you want
# bench-append).
bench-baseline:
	$(GO) test -run=NONE -bench '$(FRONTEND_BENCH)' -benchmem -benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -label baseline > BENCH_baseline.json

# Append a labelled series to the committed trajectory file.
# Usage: make bench-append LABEL=parallel
LABEL ?= parallel
bench-append:
	$(GO) test -run=NONE -bench '$(FRONTEND_BENCH)' -benchmem -benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -label $(LABEL) -merge BENCH_baseline.json > BENCH_baseline.json.tmp
	mv BENCH_baseline.json.tmp BENCH_baseline.json

# Record the analytical fast-observability series (ISSUE 9): the
# accuracy=fast engine on par2500/par6000 and the on-demand par100k
# preset. Workers=1 keeps the headline number the honest sequential one;
# the committed BENCH_fastser.json is the asymptotic-win record cited by
# EXPERIMENTS.md.
bench-fastser:
	SERRETIME_BENCH_WORKERS=1 $(GO) test -run=NONE -bench 'BenchmarkFrontEndFast' \
		-benchmem -benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -label fastser > BENCH_fastser.json.tmp
	mv BENCH_fastser.json.tmp BENCH_fastser.json

# Record the warm-session ECO series (ISSUE 10): stream generated
# single-gate perturbations through a serretime.WarmState and compare
# the incremental re-solve against the cold full solve it must match
# bit-for-bit (-ecomin 3 fails the run if the speedup falls under 3x).
# The two-step pipe keeps serbench's exit code observable to make.
ECO_DELTAS ?= 16
bench-eco:
	$(GO) run ./cmd/serbench -eco testdata/par6000.bench -deltas $(ECO_DELTAS) \
		-frames 3 -words 1 -ecomin 3 > BENCH_eco.lines.tmp
	$(GO) run ./cmd/benchjson -label eco < BENCH_eco.lines.tmp > BENCH_eco.json.tmp
	mv BENCH_eco.json.tmp BENCH_eco.json
	rm -f BENCH_eco.lines.tmp

# Run the batch-retiming daemon (DESIGN.md §12). Override the listen
# address with ADDR, e.g. make serve ADDR=:9090.
ADDR ?= :8080
serve:
	$(GO) run ./cmd/serretimed -addr $(ADDR)
