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
# (partial results) and write a version-1 failure report holding at
# least one mix-stage failure, every one of them injected.  The same
# supervised run without faults must exit 0 and record no failure.
CHAOS_CHECK = import json, sys; r = json.load(open(sys.argv[1])); fs = r["failures"]; \
  print(sys.argv[1] + ": %d injected mix failure(s)" % sum(f["stage"] == "mix" for f in fs)); \
  sys.exit(0 if r["version"] == 1 and any(f["stage"] == "mix" for f in fs) \
  and all(f["injected"] is True for f in fs) else 1)

CHAOS_RUN = dune exec bin/vdram.exe -- corners --node 55nm --samples 400 \
  --jobs 2 --keep-going

chaos: build
	@for seed in 7 11 42; do \
	  code=0; \
	  VDRAM_FAULTS="seed=$$seed,rate=0.02,raise=mix" \
	    $(CHAOS_RUN) --fail-log chaos_$$seed.json || code=$$?; \
	  [ "$$code" -eq 3 ] || { echo "seed $$seed: expected exit 3, got $$code"; exit 1; }; \
	  python3 -c '$(CHAOS_CHECK)' chaos_$$seed.json \
	    || { echo "seed $$seed: no injected mix failures, or a non-injected one leaked"; exit 1; }; \
	  echo "chaos seed $$seed: ok"; \
	done
	@code=0; env -u VDRAM_FAULTS $(CHAOS_RUN) --fail-log chaos_clean.json || code=$$?; \
	[ "$$code" -eq 0 ] || { echo "clean run: expected exit 0, got $$code"; exit 1; }; \
	python3 -c 'import json, sys; sys.exit(0 if json.load(open(sys.argv[1]))["failures"] == [] else 1)' chaos_clean.json \
	  || { echo "clean run: failures recorded"; exit 1; }; \
	echo "chaos clean run: ok"

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
