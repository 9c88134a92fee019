# Development targets. `make ci` is the full gate scripts/ci.sh runs;
# `make ci-short` keeps the race pass to a few minutes on one core.

GO ?= go

.PHONY: build test vet race fuzz bench bench-store ci ci-short

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The package list is scripts/ci.sh's race pass; keep the two identical.
race:
	$(GO) test -race -short ./internal/par/ ./internal/games/ ./internal/mdp/ ./internal/bumdp/ ./internal/core/ ./internal/montecarlo/ ./internal/expstore/ ./internal/obs/ ./internal/netsim/ ./internal/jobqueue/ ./internal/farm/ ./internal/verify/ ./cmd/buserve/

# The fuzz targets are scripts/ci.sh's fuzz smokes; keep the two lists identical.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCanonicalKey -fuzztime 30s ./internal/expstore/
	$(GO) test -run '^$$' -fuzz FuzzVerifyArtifact -fuzztime 30s ./internal/verify/

bench:
	$(GO) test -bench 'Table|Solver|GridSweep|Compile' -benchtime 2s .

bench-store:
	sh scripts/bench.sh

ci:
	sh scripts/ci.sh

ci-short:
	sh scripts/ci.sh -short
