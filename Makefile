# Paragraph build/verify entry points. Everything is plain `go` underneath;
# the targets just fix the flags.

GO ?= go

.PHONY: all build vet test race differential fuzz check clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector run of everything except the differential battery, which
# gets its own target below so `check` doesn't run it twice.
race:
	$(GO) test -race -skip Differential ./...

# The equivalence proofs under the race detector: every workload's recorded
# trace analyzed by per-config sequential analyzers and by the resolved
# engine on both scheduling topologies, and monolithically vs in N
# chunk-aligned shards (internal/shard), across the paper's configuration
# sweeps, compared for deep equality. This is also the data-race audit of
# the segment broadcast and the speculative shard builds.
differential:
	$(GO) test -race -run Differential ./...

# Short coverage-guided runs of the trace-reader, reader-equivalence,
# trace-splitter, speculative-equivalence, shard-delta-reader,
# shard-result-reader, shard-result-field, checkpoint-reader, DDG-oracle
# (FuzzOracle: every engine against the explicit-graph oracle on random
# assembled programs), job-result and autosave-log-recovery fuzzers on top
# of their seed corpora.
# Minimization is bounded so the budget is spent fuzzing.
fuzz:
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzTraceReader \
		-fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzReaderEquivalence \
		-fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/shard/ -run '^$$' -fuzz FuzzSplitter \
		-fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/shard/ -run '^$$' -fuzz FuzzSpeculativeEquivalence \
		-fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/shard/ -run '^$$' -fuzz FuzzReadDelta \
		-fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/shard/ -run '^$$' -fuzz FuzzReadResult \
		-fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/shard/ -run '^$$' -fuzz FuzzResultFields \
		-fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzReadCheckpoint \
		-fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzOracle \
		-fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzLoadResult \
		-fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./cmd/specrun/ -run '^$$' -fuzz FuzzStoreRecovery \
		-fuzztime 10s -fuzzminimizetime 20x

# The full verification gate: static checks, build, race-detector test run,
# the serial-vs-parallel differential battery, and a short fuzz of the
# trace reader.
check: vet build race differential fuzz
	@echo "check: OK"

clean:
	$(GO) clean ./...
