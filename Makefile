# Development entry points. `make check` is the full gate run before
# committing: vet, the schedlint static contracts, build, the complete
# test suite under the race detector, a short benchmark smoke that
# holds the budgets in the BENCH.json ledger, and a short native-fuzz
# smoke over the parser/decoder fuzz targets. `make bench` refreshes
# the values recorded in BENCH.json.

GO ?= go
SCHEDLINT ?= bin/schedlint

.PHONY: all build vet lint lint-json lint-fix test race bench-smoke fuzz-smoke bench check experiments FORCE

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# schedlint statically enforces the simulator's determinism, cache
# invalidation, concurrency and persistence contracts (see DESIGN.md
# §12 and §17): nodeterminism, epochbump, poolreset, obsvocab,
# optflag, lockheld, snapshotfree, deltajournal and errcmp, run
# through the `go vet` tool protocol.
$(SCHEDLINT): FORCE
	$(GO) build -o $(SCHEDLINT) ./cmd/schedlint

lint: $(SCHEDLINT)
	$(GO) vet -vettool=$(SCHEDLINT) ./...

# Machine-readable diagnostics (JSON with byte-offset suggested
# fixes) for CI annotations; exits zero even with findings. The go
# command routes the tool's JSON to stderr, so merge it onto stdout
# to make the stream pipeable.
lint-json: $(SCHEDLINT)
	$(GO) vet -vettool=$(SCHEDLINT) -json ./... 2>&1

# Apply the mechanical rewrites the analyzers suggest (errcmp's
# errors.Is splices): emit JSON diagnostics, pipe them back into the
# -apply subcommand, then re-lint to confirm the tree is clean.
lint-fix: $(SCHEDLINT)
	$(GO) vet -vettool=$(SCHEDLINT) -json ./... 2>&1 | $(SCHEDLINT) -apply
	$(GO) vet -vettool=$(SCHEDLINT) ./...

FORCE:

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Quick smoke of every benchmark in the BENCH.json ledger, each at its
# smoke benchtime (seconds, not minutes), failing when a benchmark or a
# gated metric is missing or a gate exceeds budget × (1 + tolerance).
# The four gates: allocs/op of the batch macro bench, readers-4 p99 of
# the placement decide path, journal-on delta-pair ns/op, and the
# open-system cell's deterministic steady-state p99 JCT.
bench-smoke:
	$(GO) run ./cmd/benchledger -check

# Short native-fuzz smoke over every parser/decoder fuzz target in the
# tree: seeds plus a few seconds of mutation each, so a crash in the
# journal decoder or the fault-plan DSL parser surfaces in CI without a
# dedicated long-running fuzz job.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeJournal' -fuzztime 5s ./internal/placement
	$(GO) test -run '^$$' -fuzz 'FuzzParsePlan' -fuzztime 5s ./internal/faults
	$(GO) test -run '^$$' -fuzz 'FuzzCDF' -fuzztime 5s ./internal/metrics
	$(GO) test -run '^$$' -fuzz 'FuzzHistogramQuantile' -fuzztime 5s ./internal/metrics
	$(GO) test -run '^$$' -fuzz 'FuzzTimeAvg' -fuzztime 5s ./internal/metrics
	$(GO) test -run '^$$' -fuzz 'FuzzAssignProb' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzCostCeiling' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzParseTenants' -fuzztime 5s ./internal/workload
	$(GO) test -run '^$$' -fuzz 'FuzzParseArrivalPlan' -fuzztime 5s ./internal/workload

# Full benchmark pass; refreshes the values (never the budgets) in
# BENCH.json.
bench:
	$(GO) run ./cmd/benchledger -write

check: vet lint build race bench-smoke fuzz-smoke

# Regenerate the paper's tables and figures at the canonical scale.
experiments:
	$(GO) run ./cmd/experiments -run all -scale 3
