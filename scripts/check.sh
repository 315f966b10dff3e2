#!/usr/bin/env bash
# Tier-1 verify plus the quick benchmark suite.
#
# Builds everything, runs the full test suite through ctest, re-runs the
# ingestion, serving and evaluator suites under ASan+UBSan with debug
# checks live, then smoke-runs the quick benches (bench_navigation,
# bench_eval_succinct, bench_build) into build/ and validates their JSON.
# The repo-root BENCH_*.json files are full-scale runs committed per PR
# (the perf trajectory); the quick smoke outputs deliberately do not
# overwrite them.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)")

# The examples are tier-1 API surface: they must build (src/core/,
# src/persist/ and src/util/ compile with -Wall -Wextra -Werror, so an API
# wart that leaks a warning into the serving layer is a build failure) and
# the quickstart must run clean.
./build/quickstart > /dev/null
printf '<r><a><k/></a><a><k/><k/></a></r>' > build/check_smoke.xml
test "$(./build/xpath_grep '//k' build/check_smoke.xml --count)" = "3"
test "$(./build/xpath_grep '//k' build/check_smoke.xml --count --limit 2)" = "2"
test "$(./build/xpath_grep '//k' build/check_smoke.xml --count --deadline-ms 5000)" = "3"

# Persistence round-trip through the example binaries: save an index image
# from XML, reopen it via mmap, and require identical answers; same for a
# whole collection through quickstart. The saved image is version 2, so
# value-predicate queries and --xml serialization (both need the text
# content) must give identical answers from the image.
rm -rf build/check_smoke_idx build/check_smoke_lib
printf '<r><a id="a1">red</a><a><k/></a><a id="a3">blue</a></r>' \
  > build/check_smoke_text.xml
./build/xpath_grep '//k' build/check_smoke.xml --save-index build/check_smoke_idx \
  --count 2> /dev/null > /dev/null
test "$(./build/xpath_grep '//k' --index build/check_smoke_idx --count)" = "3"
test "$(./build/xpath_grep '//k' --index build/check_smoke_idx --count --limit 2)" = "2"
rm -rf build/check_smoke_text_idx
./build/xpath_grep '//a' build/check_smoke_text.xml \
  --save-index build/check_smoke_text_idx --count 2> /dev/null > /dev/null
test "$(./build/xpath_grep "//a[@id='a3']" --index build/check_smoke_text_idx --count)" = "1"
test "$(./build/xpath_grep "//a[text()='red']" --index build/check_smoke_text_idx --count)" = "1"
test "$(./build/xpath_grep "//a[contains(text(),'e')]" --index build/check_smoke_text_idx --exists)" = "true"
test "$(./build/xpath_grep "//a[text()='green']" --index build/check_smoke_text_idx --exists)" = "false"
diff <(./build/xpath_grep '//a' build/check_smoke_text.xml --xml) \
     <(./build/xpath_grep '//a' --index build/check_smoke_text_idx --xml)
./build/quickstart --save-index build/check_smoke_lib > /dev/null
diff <(./build/quickstart) <(./build/quickstart --index build/check_smoke_lib \
  | tail -n +2)

# A damaged image must fail with a clean corruption error, never serve:
# flip one byte in the middle of the saved image and expect a non-zero
# exit mentioning corruption.
python3 - <<'PY'
with open("build/check_smoke_idx/index.xpq", "r+b") as f:
    data = bytearray(f.read())
    data[len(data) // 2] ^= 0xFF
    f.seek(0)
    f.write(data)
PY
if ./build/xpath_grep '//k' --index build/check_smoke_idx --count \
     2> build/check_corrupt.err; then
  echo "check.sh: corrupt image was served" >&2
  exit 1
fi
grep -qi "corruption" build/check_corrupt.err

# The query server end to end: serve the (uncorrupted) saved v2 text image
# over HTTP on an ephemeral port, hit /health, run two value-predicate
# queries through the full socket → runtime → image path, validate the
# /stats composite JSON shape, then SIGTERM and require a clean drain
# (exit 0).
rm -f build/xpathd.port
./build/xpathd --index build/check_smoke_text_idx --port-file build/xpathd.port \
  --scrub-ms 200 > build/xpathd.log 2>&1 &
XPATHD_PID=$!
for _ in $(seq 1 200); do
  [ -s build/xpathd.port ] && break
  sleep 0.05
done
[ -s build/xpathd.port ] || { echo "check.sh: xpathd never bound" >&2; exit 1; }
XPATHD_PORT=$(cat build/xpathd.port)
curl -sSf "http://127.0.0.1:${XPATHD_PORT}/health" | grep -q '"status":"ok"'
curl -sSf -G "http://127.0.0.1:${XPATHD_PORT}/query" \
  --data-urlencode "q=//a[@id='a3']" > build/xpathd_q1.json
curl -sSf -G "http://127.0.0.1:${XPATHD_PORT}/query" \
  --data-urlencode "q=//a[text()='red']" > build/xpathd_q2.json
curl -sSf "http://127.0.0.1:${XPATHD_PORT}/stats" > build/xpathd_stats.json
python3 - <<'PY'
import json

# Both value-predicate queries select exactly the one matching <a> element.
for path in ("build/xpathd_q1.json", "build/xpathd_q2.json"):
    q = json.load(open(path))
    assert q["status"] == "OK", f"{path}: {q}"
    assert q["total_nodes"] == 1, f"{path}: expected 1 node, got {q}"
    rows = q["documents"]
    assert len(rows) == 1 and rows[0]["status"] == "OK", f"{path}: {rows}"
    assert len(rows[0]["nodes"]) == 1, f"{path}: {rows}"

# /stats is the lock-free composite snapshot: server gauges, net counters,
# the runtime's admission/outcome counters and its histogram buckets, and
# the scrubber's sweep counts (interval is 200 ms and two queries have
# landed, so at least one sweep must have checked the document).
s = json.load(open("build/xpathd_stats.json"))
assert s["server"]["documents"] == 1, s["server"]
for key in ("connections_accepted", "requests", "responses_ok",
            "disconnects_mid_query"):
    assert key in s["net"], f"stats missing net.{key}"
assert s["net"]["responses_ok"] >= 2, s["net"]
rt = s["runtime"]
for section, key in (("admission", "submitted"), ("admission", "doa_evicted"),
                     ("outcomes", "ok"), ("scrub", "sweeps"),
                     ("scrub", "quarantined")):
    assert key in rt[section], f"stats missing runtime.{section}.{key}"
assert rt["admission"]["submitted"] >= 2, rt["admission"]
assert rt["scrub"]["quarantined"] == 0, rt["scrub"]
for hist in ("latency_us", "visited_nodes"):
    assert isinstance(rt[hist]["buckets"], list) and rt[hist]["buckets"], \
        f"stats missing {hist} buckets"
print("check.sh: xpathd query + stats shape OK")
PY
kill -TERM "$XPATHD_PID"
wait "$XPATHD_PID"   # non-zero (hard drain) fails the script via set -e
grep -q "drained clean" build/xpathd.log

# Start-up race: a supervisor may stop xpathd the moment its port file
# appears, so xpathd installs its drain handlers before it announces the
# port. A SIGTERM sent at once must still drain clean (exit 0).
rm -f build/xpathd_early.port
./build/xpathd --index build/check_smoke_text_idx \
  --port-file build/xpathd_early.port > build/xpathd_early.log 2>&1 &
XPATHD_PID=$!
for _ in $(seq 1 1000); do
  [ -s build/xpathd_early.port ] && break
  sleep 0.01
done
[ -s build/xpathd_early.port ] || { echo "check.sh: xpathd never bound" >&2; exit 1; }
kill -TERM "$XPATHD_PID"
wait "$XPATHD_PID"
grep -q "drained clean" build/xpathd_early.log

# Sanitizer pass over the ingestion pipeline, the compressed postings, and
# the serving API: the streaming parser and the builders juggle a rolling
# buffer plus string_views into it, the posting decoders walk raw byte
# streams with hand-rolled varint reads, and the cursor tests include the
# two-thread shared-PreparedQuery smoke test — exactly the kind of code
# ASan/UBSan catch regressions in. The Persist* suites are the corruption
# sweep: every byte of a saved image flipped, truncations at every section
# boundary, structural faults behind valid checksums — all of it must fail
# with clean Status objects and zero sanitizer reports. The evaluator
# suites run here too: the ASTA evaluator keeps frames, partial results and
# posting cursors in hand-managed stacks and indexes, and its position
# arithmetic and cursor monotonicity are XPWQO_DCHECKs. The sanitizer
# builds therefore compile with -O2 -g and without -DNDEBUG (CMake's
# RelWithDebInfo default adds it), so every debug check is live.
SANITIZER_FLAGS=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
                 -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g")
cmake -B build-asan -S . "${SANITIZER_FLAGS[@]}" -DXPWQO_SANITIZE=ON
cmake --build build-asan -j"$(nproc)" --target xpwqo_tests
./build-asan/xpwqo_tests \
  --gtest_filter='XmlParser*:XmlSerializer*:StreamingBuild*:StructuralScan*:BulkLoad*:TreeBuilder*:SuccinctTree*:*SuccinctTreeRandom*:Document*:LabelIndex*:PostingList*:ResultCursor*:PreparedQuery*:Collection*:Persist*:ExecMonitor*:ServingRuntime*:TextStore*:*PredicateParity*:PredicateQuery*:HttpCodec*:NetServer*:AstaEval*:*AstaEvalProperty*:CrossEngine*:*CrossEngine*:StatsRegression*:EvalCounters*:Hybrid*:TopDownJump*:*JumpProperty*:TreeIndex*:*TreeIndexRandom*:ResultSet*:NodeList*:StateMask*:Engine*'

# The same ingestion suites again with every SIMD path compiled out
# (-DXPWQO_FORCE_SCALAR=ON drops the SSE4.2/AVX2/BMI2 gates): the scalar
# scanner and the un-accelerated rank/select paths must pass the identical
# parity and parser tests under ASan/UBSan. This is the build CI falls back
# to on machines without the extensions, so it gets the same scrutiny.
cmake -B build-scalar -S . "${SANITIZER_FLAGS[@]}" \
  -DXPWQO_SANITIZE=ON -DXPWQO_FORCE_SCALAR=ON
cmake --build build-scalar -j"$(nproc)" --target xpwqo_tests
./build-scalar/xpwqo_tests \
  --gtest_filter='XmlParser*:StreamingBuild*:StructuralScan*:BulkLoad*:SuccinctTree*:BitVector*:BalancedParens*:TextStore*:*PredicateParity*'

# ThreadSanitizer pass over the serving runtime, the bulk loader, and the
# network server: the thread pool, the shared query cache, the
# lazy-load/quarantine paths and the lock-free stats are exactly where a
# release-mode race would hide. The ServingStress suites run N client
# threads with mixed deadlines, cancellations and an unhealthy shard mix
# against one runtime, plus a concurrent VerifyAll scrubber; BulkLoadStress
# races LoadAll's parser fan-out (shared-alphabet interning) against
# concurrent PrepareCached compilations; NetServerStress drives 8
# concurrent persistent HTTP connections (mixed healthy/deadline/shed/
# corrupt plus mid-query disconnects) through the epoll loop's
# worker-to-loop completion handoff — TSan must come back clean.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DXPWQO_SANITIZE=thread
cmake --build build-tsan -j"$(nproc)" --target xpwqo_tests
./build-tsan/xpwqo_tests \
  --gtest_filter='ServingStress*:BulkLoadStress*:NetServerStress*'

./build/bench_navigation --quick --out build/BENCH_navigation.quick.json
./build/bench_eval_succinct --quick --out build/BENCH_eval_succinct.quick.json
./build/bench_build --quick --out build/BENCH_build.quick.json
./build/bench_serving --quick --out build/BENCH_serving.quick.json
./build/bench_net --quick --out build/BENCH_net.quick.json

for f in build/BENCH_navigation.quick.json build/BENCH_eval_succinct.quick.json \
         build/BENCH_build.quick.json build/BENCH_serving.quick.json \
         build/BENCH_net.quick.json; do
  if ! python3 -m json.tool "$f" > /dev/null; then
    echo "check.sh: $f is not valid JSON" >&2
    exit 1
  fi
done

# The index-memory report must survive from-scratch runs: the eval bench
# carries the postings accounting at the top level, the build bench per
# pipeline plus the compression summary.
python3 - <<'PY'
import json, sys

ev = json.load(open("build/BENCH_eval_succinct.quick.json"))
for key in ("label_index_bytes", "label_index_vector_bytes",
            "label_index_compression", "dense_labels", "sparse_labels",
            "succinct_tree_bytes", "text_store_bytes"):
    assert key in ev, f"BENCH_eval_succinct missing {key}"
assert ev["label_index_bytes"] > 0, "empty label index reported"
assert ev["label_index_compression"] > 1.0, \
    f"postings larger than vectors: {ev['label_index_compression']}"
assert ev["text_store_bytes"] > 0, "empty text store reported"

# The value-predicate series: every query's relaxed-plan + post-filter
# answer must match the baseline's native evaluation, and the
# filter accounting must balance — every candidate the relaxed plan
# produced was either kept (and so selected) or rejected.
assert ev.get("predicate_series"), "BENCH_eval_succinct missing predicate_series"
for row in ev["predicate_series"]:
    q = row["query"]
    for key in ("xpath", "full_ms", "first_match_us", "selected",
                "filter_checked", "filter_rejected", "match"):
        assert key in row, f"predicate_series {q} missing {key}"
    assert row["match"], f"{q}: filtered answer diverged from the baseline"
    assert row["filter_checked"] > 0, f"{q}: the post-filter never ran"
    assert row["filter_checked"] == row["selected"] + row["filter_rejected"], \
        f"{q}: filter accounting broken ({row['filter_checked']} checked, " \
        f"{row['selected']} selected, {row['filter_rejected']} rejected)"

# The LIMIT-k serving series: cursors must emit exact prefixes of the full
# run, and the visited-node counters must scale with k, not with |D| —
# LIMIT-1 may not sweep the document.
assert ev.get("limit_series"), "BENCH_eval_succinct missing limit_series"
for row in ev["limit_series"]:
    q = row["query"]
    for key in ("first_match_us", "full_ms", "full_visited", "limits"):
        assert key in row, f"limit_series {q} missing {key}"
    assert row["first_match_us"] > 0, f"{q}: empty first-match timing"
    assert row["prefix_ok"], f"{q}: truncated drain was not a prefix"
    visits = [p["visited"] for p in row["limits"]]
    assert visits == sorted(visits), f"{q}: visited not monotone in k"
    assert visits[-1] <= row["full_visited"], f"{q}: limit visited > full"
    assert visits[0] < row["full_visited"], \
        f"{q}: LIMIT-1 swept the document ({visits[0]} vs " \
        f"{row['full_visited']} visited)"

bb = json.load(open("build/BENCH_build.quick.json"))
for key in ("label_index_compression", "image_open_speedup_vs_rebuild"):
    assert key in bb, f"BENCH_build missing {key}"
for row in bb["results"]:
    for key in ("label_index_mb", "label_index_vector_mb", "first_query_us"):
        assert key in row, f"BENCH_build result {row['pipeline']} missing {key}"
    assert row["label_index_mb"] > 0, f"{row['pipeline']}: empty label index"
pipelines = {row["pipeline"] for row in bb["results"]}
assert "image_open" in pipelines, "BENCH_build missing the image_open series"
assert bb["image_open_speedup_vs_rebuild"] > 1.0, \
    f"image open no faster than rebuild: {bb['image_open_speedup_vs_rebuild']}"

# The two-stage ingestion series. Stage-1 structural scanning alone must
# be strictly faster than the full parse+build pipeline it feeds — if the
# scanner ever drops below end-to-end throughput it has become the
# bottleneck rather than the accelerator.
assert "hardware_threads" in bb, "BENCH_build missing hardware_threads"
ss = bb["simd_scan"]
assert ss["kernel"], "simd_scan missing its kernel name"
assert ss["entries"] > 0, "simd_scan produced an empty tape"
stream = next(r for r in bb["results"] if r["pipeline"] == "succinct_stream")
assert ss["mb_per_s"] > stream["mb_per_s"], \
    f"scan ({ss['mb_per_s']} MB/s) slower than full build " \
    f"({stream['mb_per_s']} MB/s)"

# The bulk loader: all four thread counts present, every shard loaded in
# every run, and — when the machine actually has the cores — parsing
# independent shards in parallel must scale (>= 1.5x at 4 threads).
bl = bb["bulk_load"]
assert bl["all_rows_ok"], "a bulk_load run failed or dropped shards"
series = bl["series"]
assert [r["threads"] for r in series] == [1, 2, 4, 8], \
    f"bulk_load thread counts wrong: {[r['threads'] for r in series]}"
for r in series:
    assert r["ms"] > 0 and r["mb_per_s"] > 0, f"empty bulk_load row: {r}"
if bb["hardware_threads"] >= 4:
    four = next(r for r in series if r["threads"] == 4)
    assert four["speedup"] >= 1.5, \
        f"bulk_load speedup at 4 threads only {four['speedup']}x"

# The serving bench: overload must degrade gracefully — the 4x phase sheds
# with retryable errors instead of queueing without bound, admitted jobs
# keep a bounded p99 (well under a second even fully oversubscribed), and
# the admission/outcome accounting balances in every phase.
sv = json.load(open("build/BENCH_serving.quick.json"))
assert sv.get("accounting_ok"), "serving accounting identity broken"
phases = {p["multiplier"]: p for p in sv["overload"]}
assert set(phases) == {1, 2, 4}, f"overload phases wrong: {sorted(phases)}"
for mult, p in phases.items():
    assert p["submitted"] > 0, f"{mult}x: no jobs submitted"
    assert p["ok"] > 0, f"{mult}x: no jobs completed"
    assert 0 < p["p99_us"] < 1_000_000, f"{mult}x: p99 unbounded: {p['p99_us']}"
    assert p["shed"] + p["ok"] + p["deadline_exceeded"] + p["cancelled"] \
        <= p["submitted"], f"{mult}x: outcome counts exceed submissions"
assert phases[4]["shed"] > 0, "4x overload did not shed"

# The socket-path overload ladder: the same 1x/2x/4x shape measured through
# xpathd's server stack with real HTTP clients. Every phase must complete
# work (rps > 0), every response a client read must be accounted one of
# 200/503/504/error, and at 4x the shedder — not unbounded queueing — must
# absorb the oversubscription.
nb = json.load(open("build/BENCH_net.quick.json"))
net_phases = {p["multiplier"]: p for p in nb["phases"]}
assert set(net_phases) == {1, 2, 4}, f"net phases wrong: {sorted(net_phases)}"
for mult, p in net_phases.items():
    assert p["ok"] > 0 and p["rps"] > 0, f"net {mult}x: no goodput: {p}"
    assert 0 < p["p99_us"] < 5_000_000, f"net {mult}x: p99 unbounded: {p}"
    assert p["ok"] + p["shed"] + p["deadline"] + p["errors"] >= p["requests"], \
        f"net {mult}x: response accounting broken: {p}"
assert net_phases[4]["shed"] > 0, "net 4x overload did not shed over HTTP"
print("check.sh: index-memory and serving fields OK")
PY
echo "check.sh: OK"
