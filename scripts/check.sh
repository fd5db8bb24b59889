#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, rustdoc, and the full test suite.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings: no broken or private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test =="
cargo test --workspace -q

echo "== fault suite (injection + durability + WAL crash proptests) =="
cargo test -p planar-core -q --features fault-injection \
  --test fault_injection --test durability_proptests --test wal_crash_proptests

echo "== one-CPU leg (every fan-out runs inline on the caller: parallel ≡ sharded ≡ serial, panic isolation) =="
if command -v taskset >/dev/null 2>&1; then
  taskset -c 0 cargo test -p planar-core -q --features fault-injection \
    --test parallel_proptests --test shard_proptests --test fault_injection \
    --test box_proptests
elif [ -n "${CI:-}" ]; then
  # CI runs this leg only here, so a runner without taskset must fail it.
  echo "   taskset not installed, and CI is set: the one-CPU leg cannot run" >&2
  exit 1
else
  echo "   taskset not installed; skipping the one-CPU leg"
fi

echo "== concurrency suite (snapshot isolation + group-commit crash sweep) =="
cargo test -p planar-core -q --test concurrent_proptests

echo "== bench reports (every BENCH_*.json experiment at smoke scale, key paths vs committed) =="
cargo test --release -p planar-bench -q --test reports

echo "== replication suite (transport fault sweep + failover promotion) =="
cargo test -p planar-core -q --features fault-injection \
  --test replication_faults --test failover_proptests

echo "== chaos suite (socket-level chaos proxy sweep + quorum crash/reopen) =="
cargo test -p planar-serve -q --test netrepl_chaos
cargo test -p planar-core -q --features fault-injection --lib quorum

echo "== quantization suite (quantized ≡ unquantized twins, both dispatches) =="
cargo test -p planar-core -q --test quant_proptests
PLANAR_FORCE_PORTABLE=1 cargo test -p planar-core -q --test quant_proptests
PLANAR_FORCE_PORTABLE=1 cargo test -p planar-geom -q

echo "== block-mask verification suite (block masks and box-settled blocks ≡ SeqScan, forced-portable dispatch) =="
PLANAR_FORCE_PORTABLE=1 cargo test -p planar-core -q --test simd_pruning_proptests --test box_proptests

echo "== box ablation check (box alone ≡ index + box on every shard, n = 20k) =="
cargo run --release -q --example box_ablation -- 20000

echo "== parallel batch check (single query_with ≡ query_batch at 4 threads, n = 10k) =="
cargo run --release -q --example parallel_batch

echo "== serving suite (loopback wire round trips, coalescing identity, overload) =="
cargo test -p planar-serve -q

echo "== benchmark smoke (every workload at n = 20k: served ≡ direct ≡ SeqScan) =="
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== planar-core unit tests with fault injection compiled in =="
cargo test -p planar-core -q --features fault-injection --lib

echo "== ThreadSanitizer smoke over epoch publish/reclaim (nightly) =="
# TSan needs an instrumented std (-Zbuild-std), which needs the nightly
# rust-src component; without it std's internals drown the report in
# false positives, so skip rather than mislead.
sysroot="$(rustc +nightly --print sysroot 2>/dev/null || true)"
if [ -n "${sysroot}" ] && [ -f "${sysroot}/lib/rustlib/src/rust/library/Cargo.lock" ]; then
  RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -p planar-core --lib tsan_smoke \
    -Zbuild-std --target x86_64-unknown-linux-gnu
else
  echo "   nightly rust-src not installed; skipping TSan smoke (CI 'concurrency' job runs it)"
fi

echo "All checks passed."
