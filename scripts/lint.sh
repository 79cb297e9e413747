#!/usr/bin/env bash
# Repo-invariant lint: greppable rules the compiler cannot express,
# enforced in CI (see .github/workflows/ci.yml, `lint` job).
#
# Run locally from the repo root:  bash scripts/lint.sh
#
# Each rule prints every violation it finds; the script exits nonzero if
# any rule fired. Rules live here (not in a wiki) so adding one is a
# one-line diff reviewed next to the code it constrains.
set -u

cd "$(dirname "$0")/.."

failures=0

fail() {
  echo "LINT FAIL: $1" >&2
  shift
  for line in "$@"; do echo "    $line" >&2; done
  failures=$((failures + 1))
}

# ---------------------------------------------------------------------------
# 1. Concurrency primitives live in util/ only.
#
# std::thread: the shared ThreadPool (util/parallel.*) is the engine's one
# concurrency substrate — a stray std::thread elsewhere bypasses the
# STACCATO_THREADS knob, nested-region inlining, and the TSan matrix.
# (Promoted from the PR-3 CHANGES.md claim "grep std::thread src/ now hits
# only util/parallel.*" into an enforced rule.)
hits=$(grep -rn "std::thread" src/ --include="*.h" --include="*.cc" \
  | grep -v "^src/util/parallel\." || true)
if [ -n "$hits" ]; then
  fail "raw std::thread outside util/parallel.* (use ThreadPool/ParallelFor)" "$hits"
fi

# std::mutex / std::condition_variable / lock guards: every component
# locks through the annotated util::Mutex / util::MutexLock / util::CondVar
# wrappers (util/mutex.h) so clang -Wthread-safety can check the lock
# discipline. Raw primitives are allowed only inside util/ itself (the
# wrappers' own implementation).
hits=$(grep -rnE "std::(mutex|condition_variable|lock_guard|unique_lock|scoped_lock|shared_mutex|shared_lock)" \
  src/ --include="*.h" --include="*.cc" \
  | grep -v "^src/util/mutex\.h" || true)
if [ -n "$hits" ]; then
  fail "raw std::mutex/condvar/lock outside util/mutex.h (use util::Mutex/MutexLock/CondVar)" "$hits"
fi

# ---------------------------------------------------------------------------
# 2. No #include of a .cc file (hides ODR violations and double-compiles).
hits=$(grep -rnE "#include .*\.cc\"" src/ tests/ bench/ examples/ || true)
if [ -n "$hits" ]; then
  fail "#include of a .cc file" "$hits"
fi

# ---------------------------------------------------------------------------
# 3. No `using namespace` at namespace scope in headers (leaks into every
# includer). Function-local using-declarations are fine; headers are not.
hits=$(grep -rn "using namespace" src/ --include="*.h" || true)
if [ -n "$hits" ]; then
  fail "'using namespace' in a header" "$hits"
fi

# ---------------------------------------------------------------------------
# 4. Headers use #pragma once (the repo convention; a missing guard is an
# eventual double-definition surprise).
missing=""
while IFS= read -r header; do
  if ! grep -q "#pragma once" "$header"; then
    missing="$missing$header"$'\n'
  fi
done < <(find src -name "*.h")
if [ -n "$missing" ]; then
  fail "header without #pragma once" "$missing"
fi

# ---------------------------------------------------------------------------
# 5. Locking goes through the annotated wrappers: a bare Lock()/Unlock()
# pair outside util/ evades the SCOPED_CAPABILITY analysis (MutexLock) and
# is exception-unsafe. (AssertHeld and TryLock are fine.)
hits=$(grep -rnE "\.(Lock|Unlock)\(\)|->(Lock|Unlock)\(\)" \
  src/ --include="*.h" --include="*.cc" \
  | grep -v "^src/util/" || true)
if [ -n "$hits" ]; then
  fail "manual Lock()/Unlock() outside util/ (use util::MutexLock)" "$hits"
fi

# ---------------------------------------------------------------------------
# 6. No NO_THREAD_SAFETY_ANALYSIS escapes outside util/: the annotation
# opt-out is for primitives the analysis genuinely cannot follow, not for
# silencing violations in engine code.
hits=$(grep -rn "NO_THREAD_SAFETY_ANALYSIS" src/ --include="*.h" --include="*.cc" \
  | grep -v "^src/util/thread_annotations\.h" || true)
if [ -n "$hits" ]; then
  fail "NO_THREAD_SAFETY_ANALYSIS outside util/thread_annotations.h" "$hits"
fi

# ---------------------------------------------------------------------------
# 7. The WAL's on-disk format is private to src/rdbms/wal.*: every other
# component resolves the log file through WalPath() and reads/writes
# frames through WalWriter/WalReader, so recovery invariants live in one
# place. The "wal.log" literal and the frame constants must not leak
# (tests/wal_test.cc, the format's own test harness, is the one
# exception).
hits=$(grep -rnE '"wal\.log"|kWalFrame[A-Za-z]*' \
  src/ tests/ bench/ examples/ --include="*.h" --include="*.cc" \
  | grep -vE "^(src/rdbms/wal\.(h|cc)|tests/wal_test\.cc):" || true)
if [ -n "$hits" ]; then
  fail "WAL format internals outside src/rdbms/wal.* (use WalPath/WalWriter/WalReader)" "$hits"
fi

# ---------------------------------------------------------------------------
# 8. Shard directory naming is private to src/rdbms/shard.*: every other
# component resolves a shard's directory through ShardDirName() (and the
# shard count through Open/OpenExisting), so the on-disk layout can change
# in one place. The '"shard."' literal must not leak. The shard-count
# meta file's name and its magics (the current one and the retired one it
# refuses) live in src/rdbms/shard.cc alone; tests/shard_test.cc, which
# writes a retired-format file to check the refusal, is the one exception.
hits=$(grep -rn '"shard\.' src/ tests/ bench/ examples/ \
  --include="*.h" --include="*.cc" \
  | grep -vE "^src/rdbms/shard\.(h|cc):" || true)
if [ -n "$hits" ]; then
  fail "shard directory literal outside src/rdbms/shard.* (use ShardDirName)" "$hits"
fi
hits=$(grep -rnE 'shards\.meta|STACSHR' src/ tests/ bench/ examples/ \
  --include="*.h" --include="*.cc" \
  | grep -vE "^(src/rdbms/shard\.cc|tests/shard_test\.cc):" || true)
if [ -n "$hits" ]; then
  fail "shard meta file name or magic outside src/rdbms/shard.cc (use ShardedDb::Open/OpenExisting)" "$hits"
fi

# ---------------------------------------------------------------------------
# 9. Clock reads are confined: production code never reads steady_clock
# outside util/timer.h (the Timer abstraction), rdbms/service.cc (where
# QueryControl arms and checks deadlines and the admission queue computes
# its wait bound), and telemetry/clock.cc (the trace-timestamp seam). The
# executor polls QueryControl::Check() instead of reading a clock, so
# "how much time is left" has exactly one implementation — and tests can
# fake budgets (born-expired deadlines, step caps) without mocking time.
# All trace timestamps go through telemetry::MonotonicNanos(), so traces
# are fake-clock-testable (telemetry::FakeClock) for the same reason.
hits=$(grep -rn 'steady_clock' src/ --include="*.h" --include="*.cc" \
  | grep -vE "^src/(util/timer\.h|rdbms/service\.cc|telemetry/clock\.(h|cc)):" || true)
if [ -n "$hits" ]; then
  fail "steady_clock read outside util/timer.h / rdbms/service.cc / telemetry/clock.* (poll QueryControl or use telemetry::MonotonicNanos)" "$hits"
fi

# ---------------------------------------------------------------------------
# 10. A database epoch's file layout is private to src/rdbms/base_epoch.*:
# every other engine component reaches the relations and the blob store
# through a BaseEpoch, so the relation set, their schemas and their file
# names are defined once. In src/, the relation and blob file-name
# literals and the HeapTable/BlobStore Create/Open calls must not leak
# (their own definitions in heap_table.* and blob_store.* are exempt).
# Tests stay free to name files.
hits=$(grep -rnE '\.tbl"|"/?blobs\.|(HeapTable|BlobStore)::(Create|Open)\(' \
  src/ --include="*.h" --include="*.cc" \
  | grep -vE "^src/rdbms/(base_epoch|heap_table|blob_store)\.(h|cc):" || true)
if [ -n "$hits" ]; then
  fail "epoch file layout outside src/rdbms/base_epoch.* (use BaseEpoch)" "$hits"
fi

# ---------------------------------------------------------------------------
# 11. Table pages and blobs are read through util::CheckedPRead, the read
# seam of util/fault_fs.h: a FaultOp::kRead rule then reaches heap fetches
# and blob fetches alike, and no read shares a file position. The heap
# table and blob store sources call neither fread( nor pread( directly.
hits=$(grep -nE '(^|[^[:alnum:]_])(fread|pread)\(' \
  src/rdbms/heap_table.h src/rdbms/heap_table.cc \
  src/rdbms/blob_store.h src/rdbms/blob_store.cc || true)
if [ -n "$hits" ]; then
  fail "page or blob read outside util::CheckedPRead in src/rdbms/{heap_table,blob_store}.*" "$hits"
fi

# ---------------------------------------------------------------------------
# 12. The executor has one caller: PreparedQuery's scatter-gather in
# src/rdbms/session.cc, which always passes its stats and its plan-cache
# entry, so every query runs through a Session and the Session's table
# stays the only plan cache. `ExecutePlan(` appears nowhere else.
hits=$(grep -rn 'ExecutePlan(' src/ tests/ bench/ examples/ e2ebench/ \
  --include="*.h" --include="*.cc" --include="*.cpp" \
  | grep -vE "^src/rdbms/(plan\.(h|cc)|session\.cc):" || true)
if [ -n "$hits" ]; then
  fail "ExecutePlan( outside src/rdbms/plan.{h,cc} and src/rdbms/session.cc (run queries through a Session)" "$hits"
fi

# ---------------------------------------------------------------------------
# 13. The environment-knob table in README.md ("### Environment knobs")
# matches the code: every "STACCATO_..." string literal in src/ has a row,
# and every row names a variable src/ reads. A knob nobody documents is
# invisible to operators; a documented knob nothing reads is a lie.
src_knobs=$(grep -rhoE '"STACCATO_[A-Z0-9_]+"' src/ --include="*.h" --include="*.cc" \
  | tr -d '"' | sort -u)
table_knobs=$(sed -n '/^### Environment knobs/,/^### /p' README.md \
  | grep -oE '^\| `STACCATO_[A-Z0-9_]+`' | grep -oE 'STACCATO_[A-Z0-9_]+' \
  | sort -u)
hits=$(comm -23 <(echo "$src_knobs") <(echo "$table_knobs") | grep -v '^$' || true)
if [ -n "$hits" ]; then
  fail "environment variable read in src/ without a row in README's knob table" "$hits"
fi
hits=$(comm -13 <(echo "$src_knobs") <(echo "$table_knobs") | grep -v '^$' || true)
if [ -n "$hits" ]; then
  fail "README knob-table row for a variable src/ does not read" "$hits"
fi

# ---------------------------------------------------------------------------
if [ "$failures" -ne 0 ]; then
  echo "" >&2
  echo "lint: $failures rule(s) failed" >&2
  exit 1
fi
echo "lint: all rules clean"
