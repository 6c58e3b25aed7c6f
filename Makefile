# Convenience entry points over dune. `make check` is the tier-1 gate
# (see ROADMAP.md): the full build, every test suite, and the four
# determinism smokes (bench, fuzz, service bench, perf) that
# `dune runtest` wires in via the runtest alias.

.PHONY: all build check test bench slo steal recover perfsmoke fuzz fuzz-txn clean

all: build

build:
	dune build

check: build
	dune runtest --force

test: check

bench:
	dune exec bench/service.exe -- --shards 2 --ops 120 --crash 2

# Rolling-crash availability scenario: an open-loop client keeps
# offering load while power failures land mid-run; reports availability,
# downtime windows and p99 in vs out of recovery per recoverable mode,
# plus the windowed timeline for capri.
slo:
	dune exec bench/service.exe -- --rolling --shards 2 --ops 120 --crash 3 --period 8

# Recovery-at-scale scenario: a store bulk-loaded with 100k committed
# keys per shard serves 1x..10x request histories and crashes late in
# each run; the table shows the restart bill growing with history when
# journal compaction is off and staying flat when it is on. The smoke
# assertions behind this table (compaction-on tail bounded by the
# interval, trial --jobs 1 == 4 byte-identical) run in `make check`
# via bench/service_smoke.exe.
recover:
	dune exec bench/service.exe -- --recovery --shards 2 --keys 100000 --ops 20

# Work-stealing scheduler showcase: the noisy-neighbor table (one
# zipfian-heavy tenant against uniform neighbors; stealing on vs off
# over the byte-identical workload, per-tenant p99 and worst-shard
# queue depth), the contended hot-key 2PC table (commit/abort ratio
# under pinned / steal-off / steal-on), and a steal-focused fuzz
# campaign over scheduled multi-tenant stores.
steal:
	dune exec bench/service.exe -- --noisy --shards 6 --ops 30 --tenants 3 --cores 4 --skew 3.0 --period 120
	dune exec bench/service.exe -- --hot-key --shards 4 --ops 20 --tenants 3 --cores 2 --hot-txns 8
	dune exec fuzz/main.exe -- --service --steal --budget 260

# Scheduler-equivalence gate: tiny-scale micro shapes + a kernel + a
# generated multi-core program, Executor.run vs Executor.run_reference,
# all five modes.
perfsmoke:
	dune exec bench/perfsmoke.exe

fuzz:
	dune exec fuzz/main.exe -- --service --budget 200

# 2PC-focused campaign: every trial carries cross-shard transactions and
# half the crash points aim at the protocol's region boundaries (vote
# seal, decision, apply), so crashes land mid-2PC by construction.
fuzz-txn:
	dune exec fuzz/main.exe -- --service --min-txns 1 --max-txns 3 --budget 250

clean:
	dune clean
