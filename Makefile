.PHONY: all build test bench bench-smoke check clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe all

# Tiny-scale batching sweep (also claims byte-identical rows across
# same-seed runs; a failed claim prints on stderr and exits 1).
bench-smoke:
	dune exec bench/main.exe -- batching --smoke

# Full health check: build + all test suites + fault-injection smoke
# run (asserts deterministic fault traces). ~CI entry point.
check:
	@sh bin/check.sh

clean:
	dune clean
