# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test cover cover-gate bench vet lint lint-fast lint-baseline speclint self-test fmt paperbench trace-demo obs-smoke obs-demo scenarios scenarios-short fuzz fuzz-short clean

# Pinned staticcheck release for CI; `make lint` uses a local install
# when one is on PATH and skips it (with a note) otherwise.
STATICCHECK_VERSION ?= 2025.1.1

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

cover:
	$(GO) test -cover ./...

# Enforce per-package coverage floors (internal/bch, core, sim); see
# scripts/cover_gate.sh for the numbers and the raising policy.
cover-gate:
	GO=$(GO) sh scripts/cover_gate.sh

# The per-exhibit benchmark harness (reduced scale).
bench:
	$(GO) test -bench=. -benchmem .

vet:
	$(GO) vet ./...

# Project-specific static analysis (cmd/meccvet: the seventeen-analyzer
# suite — determinism, hotpath + hotclosure + hotescape, nilhook,
# cycleunits + unitflow + cyclewrap, nopanic, errwrap, concsafety +
# atomicfield + seqlock, seedflow, and the concurrency layer lockorder +
# goleak + chandiscipline — see DESIGN.md §9) plus vet, plus
# scenario-spec validation, plus staticcheck when available. meccvet
# compares against the committed lint.baseline.json, so only NEW
# findings fail, and keeps its incremental fact cache in .meccvet-cache
# so warm re-runs on an unchanged tree replay from metadata alone. CI
# runs the same set with staticcheck pinned at STATICCHECK_VERSION.
lint: speclint
	$(GO) vet ./...
	$(GO) run ./cmd/meccvet -baseline lint.baseline.json -cache-dir .meccvet-cache ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not on PATH; skipping (CI installs $(STATICCHECK_VERSION))"; \
	fi

# Just the cached meccvet sweep — the editor-save loop. Warm runs on an
# unchanged tree skip parsing and type-checking entirely (sub-second);
# after an edit only the changed packages and the whole-program
# analyzers re-run.
lint-fast:
	$(GO) run ./cmd/meccvet -baseline lint.baseline.json -cache-dir .meccvet-cache ./...

# Validate every committed scenario spec (schema, invariant expressions,
# cross-references) without running the scenarios.
speclint:
	$(GO) run ./cmd/meccscn validate internal/scenario/specs/*.json

# Accept the current meccvet findings into lint.baseline.json (matching
# on file+analyzer+message, so line drift never stales it). Review the
# diff before committing: every entry is a finding nobody will see
# again.
lint-baseline:
	$(GO) run ./cmd/meccvet -baseline lint.baseline.json -write-baseline ./...

# The analysis framework's own test suite: SSA builder goldens and
# def-use invariants, all analyzer fixtures, and the meccvet CLI flag
# tests. CI runs this under -race.
self-test:
	$(GO) test ./internal/analysis/... ./cmd/meccvet/...

fmt:
	gofmt -l -w .

# Regenerate every table and figure of the paper (scale 1/400 ≈ minutes).
paperbench:
	$(GO) run ./cmd/paperbench

# Produce a short JSONL event trace from one MECC+SMD slice and
# pretty-print the interesting part of it (see DESIGN.md Observability).
trace-demo:
	$(GO) run ./cmd/meccsim -bench libq -scheme mecc -smd -scale 20000 \
		-trace-out trace-demo.jsonl > /dev/null
	$(GO) run ./cmd/obsdump -n 40 \
		-kinds mecc_transition,refresh_rate,refresh,smd_window,smd_enable,smd_disable,mdt_mark \
		trace-demo.jsonl

# Start a short MECC slice with the obs server attached, poll /healthz,
# validate the live /metrics exposition with the in-repo strict parser
# (cmd/obsscrape), and check the /progress JSON. CI runs this.
obs-smoke:
	GO=$(GO) sh scripts/obs_smoke.sh

# Same as obs-smoke, but also prints the scraped progress JSON and a
# metrics excerpt — a one-command tour of the live observability layer
# (see DESIGN.md Observability).
obs-demo:
	GO=$(GO) sh scripts/obs_smoke.sh demo

# Run every built-in scenario (internal/scenario/specs) end to end and
# evaluate the declared invariants; nonzero exit on any failure. The
# -short variant runs the fast subset CI uses on pull requests.
scenarios:
	$(GO) run ./cmd/meccscn run -v

scenarios-short:
	$(GO) run ./cmd/meccscn run -short

# Short fuzz session over the parsers and the BCH decoder.
fuzz:
	$(GO) test -run=XXX -fuzz FuzzDecodeNeverPanics -fuzztime 10s ./internal/bch/
	$(GO) test -run=XXX -fuzz FuzzReadText -fuzztime 10s ./internal/trace/

# 10-second BCH fuzz pass seeded with the extension-bit-guard and
# t+1-error corpus (testdata/fuzz); quick regression check for the
# decoder's miscorrection defences.
fuzz-short:
	$(GO) test -run=XXX -fuzz FuzzDecodeNeverPanics -fuzztime 10s ./internal/bch/
	$(GO) test -run=XXX -fuzz FuzzEncodeDecodeRoundTrip -fuzztime 10s ./internal/bch/

clean:
	$(GO) clean ./...
