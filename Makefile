# Developer entry points.  `make check` is the tier-1 gate used by CI and
# by every PR: it must stay green.

.PHONY: all check build test lint smoke soak service fmt bench clean

all: build

build:
	dune build

test:
	dune runtest

check: build test

# Static analysis, both halves (DESIGN.md §12 and §17).  detlint works
# on the parsetree alone: unseeded randomness, wall-clock leakage,
# unordered Hashtbl iteration, polymorphic compare in protocol modules,
# Marshal/== outside lib/persist, unsealed library modules.  alloclint
# works on typedtrees (cmt files, hence the `dune build @check`): heap
# allocation, unknown calls, polymorphic compares, Obj escapes and
# growable structures reachable from the hot-path registry and from
# [@alloc.zero] functions.  A hard CI gate either way: exit 1 on any
# finding not covered by a justified `detlint:` allowlist comment.
lint:
	dune exec bin/detlint.exe -- lib bin test
	dune build @check
	dune exec bin/alloclint.exe -- lib

# Adversarial smoke: all three faithful targets (crash-stop,
# crash-recovery, and anti-entropy-under-watchdog with message-losing
# partitions) clean over the budget; every seeded mutant — the four
# Algorithm 5 bugs, the skip-log-replay amnesia bug and the skip-digest
# anti-entropy bug — found, shrunk and replayed from its builder-spec
# text (DESIGN.md §13), with the trace digest required to reproduce
# byte-for-byte.  One finding additionally replays from a binary trace
# artifact.  Shrunk .spec files land in _artifacts/smoke/.
smoke:
	dune exec bin/ecsim.exe -- explore --smoke --plans 500 -j 2 --artifacts _artifacts/smoke

# Long-budget crash-safe soak campaign (DESIGN.md §15): the
# partition-hardened legs (anti-entropy digests under the convergence
# watchdog, with and without crash-recovery adversities) explored far
# past the CI budget.  Every run is guarded by an event budget and a
# monotonic wall-clock deadline (stuck runs poison their seed instead
# of hanging the campaign), findings are quarantined and auto-shrunk to
# replayable .spec repros, and campaign state is journaled through the
# framed CRC32 codec — interrupt it (Ctrl-C, SIGKILL, power loss) and
# `dune exec bin/ecsim.exe -- soak --resume _artifacts/soak/campaign.journal`
# continues deterministically.
soak:
	dune exec bin/ecsim.exe -- soak --budget 5000 -j 4 \
	  --artifacts _artifacts/soak

# Closed-loop service-layer gate (DESIGN.md §16): runs experiment E22 —
# the full client population (timeouts, capped backoff, retry budgets,
# admission control, circuit breakers, crash-triggered migration) over
# ETOB vs the Paxos baseline under a crash+partition schedule — and the
# generator-driven determinism/retry-amplification smoke.  Hard-fails if
# ETOB's degraded (speculative) availability does not strictly beat
# Paxos in the minority partition, if retry amplification exceeds 2x, if
# replica-side dedup leaks a duplicate apply, or if replay diverges.
# BENCH_service.json and the latency histograms land in
# _artifacts/service/.
service:
	dune exec bin/ecsim.exe -- service --smoke --artifacts _artifacts/service

# Requires ocamlformat (version pinned in .ocamlformat); a no-op check
# elsewhere so environments without the formatter can still run `make check`.
fmt:
	dune build @fmt --auto-promote

bench:
	dune exec bench/main.exe

clean:
	dune clean
