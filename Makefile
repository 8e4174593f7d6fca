# Convenience targets.  CI (.github/workflows/ci.yml) runs its steps
# directly, not through `make ci`.

.PHONY: all build test bench bench-perf ci clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Run the V1/T1/T2/F5 meters, apply each meter's shape checks, and
# fail on any failed check, a >30 % speedup-ratio regression against
# bench/baselines/, a missing baseline, or a case on only one side (see
# EXPERIMENTS.md, "Reading S1/V1").
bench-perf:
	dune exec bench/main.exe -- perfcheck

ci: build test

clean:
	dune clean
