.PHONY: all build test check check-model lint advise bench perfbench-check chaos serve-smoke examples clean doc export

all: build

build:
	dune build @all

test:
	dune runtest

lint: build
	dune exec bin/vdram.exe -- lint --deny-warnings examples/*.dram

# Static dataflow advice (V10xx): slack, utilization, idle windows and
# the certified energy floor of every shipped loop.  Not gated — the
# inefficient example exists precisely to carry advice.
advise: build
	dune exec bin/vdram.exe -- advise examples/*.dram

check: test lint

# Abstract interpretation over the shipped descriptions: certified
# bounds (cross-checked against 500 concrete samples each), per-lens
# monotonicity, and whole-sweep legality across the roadmap.
check-model: build
	dune exec bin/vdram.exe -- check --samples 500 examples/*.dram

bench:
	dune exec bench/main.exe
	dune exec bench/bench_lint.exe

# The layered benchmark's correctness oracles (perfbench/NOTES.md): a
# short untraced run of every workload plus a traced corners run.  Each
# must report "correct": true and "failed": 0 on its last line.
PERFBENCH_RUNS = \
  "--workload corners-20k --trace 0" \
  "--workload sensitivity-roadmap --trace 0" \
  "--workload serve-mixed --trace 0" \
  "--workload static-check --trace 0" \
  "--workload corners-20k --trace 1"

perfbench-check:
	@for run in $(PERFBENCH_RUNS); do \
	  last=$$(bash perfbench/run.sh $$run --seed 1 --seconds 3 | tail -n 1) || exit 1; \
	  echo "$$run: $$last"; \
	  printf '%s' "$$last" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
	    || { echo "$$run: not correct, or items failed"; exit 1; }; \
	done

# Supervised runtime under deterministic fault injection: must exit 3
# (partial results) and report only injected mix-stage failures.
chaos: build
	@for seed in 7 11 42; do \
	  code=0; \
	  VDRAM_FAULTS="seed=$$seed,rate=0.02,raise=mix" \
	    dune exec bin/vdram.exe -- corners --node 55nm --samples 400 \
	      --jobs 2 --keep-going --fail-log chaos_$$seed.json || code=$$?; \
	  [ "$$code" -eq 3 ] || { echo "seed $$seed: expected exit 3, got $$code"; exit 1; }; \
	  grep -q '"injected": true' chaos_$$seed.json || { echo "seed $$seed: no injected failures"; exit 1; }; \
	  ! grep -q '"injected": false' chaos_$$seed.json || { echo "seed $$seed: non-injected failure leaked"; exit 1; }; \
	  echo "chaos seed $$seed: ok"; \
	done

# Serve daemon end-to-end: boot the real binary under fault
# injection, drive concurrent mixed traffic (coalescing and
# injected-only failures are counter-verified), then SIGTERM it and
# assert a clean drain.  See doc/SERVE.md.
serve-smoke: build
	dune exec tools/serve_smoke.exe -- _build/default/bin/vdram.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/datasheet_check.exe
	dune exec examples/server_power.exe
	dune exec examples/design_explorer.exe
	dune exec examples/future_dram.exe
	dune exec examples/mobile_standby.exe
	dune exec examples/dimm_power.exe

export:
	dune exec bin/vdram.exe -- export --outdir .

doc:
	dune build @doc

clean:
	dune clean
