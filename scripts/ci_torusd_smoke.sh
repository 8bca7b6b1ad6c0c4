#!/usr/bin/env bash
# ci_torusd_smoke.sh — black-box smoke test of the torusd binary.
#
# Builds cmd/torusd, boots it on a local port with the pprof sidecar
# enabled, polls /healthz until ready, issues one POST /v1/analyze, and
# asserts a 200 with well-formed JSON plus a live /debug/pprof/ index on
# the sidecar before shutting the server down. The analytic fast lane
# (on by default) is asserted next: a linear-placement request must come
# back with engine "analytic" and exact true, and a T³₂₅₆ request — 4000x
# past the computed pipeline's node cap — must answer analytically too.
# Computed-path legs use random placements throughout so they exercise
# the pool and cache rather than the lane. The observability surface is
# covered next: /metrics must be valid Prometheus text with the headline
# families present, the traceparent response header must be well formed,
# and /debug/traces on the sidecar must hold a full pipeline trace (>= 5
# named stages) including the request we just made. It then exercises the
# chaos surface end to end: arms a failpoint through /debug/failpoints on the
# sidecar, asserts the injected 500, and asserts the next request recovers.
# Finally the async search job API: POST /v1/optimize
# must answer 202 with a job id, the poll URL must walk the job to a done
# state whose result beats or matches its own starting placement (and, on
# T²₆, is the proven optimum), and the torusd_jobs_* metric families must
# tally the run. Run from the repository root; CI runs it via
# `make smoke-torusd`.
set -euo pipefail

PORT="${TORUSD_PORT:-18080}"
DEBUG_PORT="${TORUSD_DEBUG_PORT:-18081}"
BASE="http://127.0.0.1:${PORT}"
DEBUG_BASE="http://127.0.0.1:${DEBUG_PORT}"
BIN="$(mktemp -d)/torusd"
trap 'rm -rf "$(dirname "$BIN")"' EXIT

echo "smoke: building cmd/torusd"
go build -o "$BIN" ./cmd/torusd

"$BIN" -addr "127.0.0.1:${PORT}" -debug-addr "127.0.0.1:${DEBUG_PORT}" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true; rm -rf "$(dirname "$BIN")"' EXIT

echo "smoke: waiting for /healthz"
ready=""
for _ in $(seq 1 60); do
    if curl -fsS "${BASE}/healthz" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.5
done
if [ -z "$ready" ]; then
    echo "smoke: FAIL — torusd never became healthy on ${BASE}" >&2
    exit 1
fi

echo "smoke: POST /v1/analyze (computed path)"
body='{"k":8,"d":2,"placement":"random:8","routing":"odr"}'
status=$(curl -sS -o /tmp/torusd_smoke_analyze.json -w '%{http_code}' \
    -H 'Content-Type: application/json' -d "$body" "${BASE}/v1/analyze")
if [ "$status" != "200" ]; then
    echo "smoke: FAIL — /v1/analyze returned ${status}:" >&2
    cat /tmp/torusd_smoke_analyze.json >&2
    exit 1
fi

echo "smoke: validating response JSON"
jq -e '.e_max > 0 and .processors == 8 and .k == 8 and .d == 2
    and (.engine | length) > 0 and .engine != "analytic"' \
    /tmp/torusd_smoke_analyze.json >/dev/null || {
    echo "smoke: FAIL — malformed analyze response:" >&2
    cat /tmp/torusd_smoke_analyze.json >&2
    exit 1
}

echo "smoke: POST /v1/analyze (analytic fast lane)"
lane_body='{"k":8,"d":2,"placement":"linear","routing":"odr"}'
status=$(curl -sS -o /tmp/torusd_smoke_lane.json -w '%{http_code}' \
    -H 'Content-Type: application/json' -d "$lane_body" "${BASE}/v1/analyze")
if [ "$status" != "200" ]; then
    echo "smoke: FAIL — analytic-lane analyze returned ${status}:" >&2
    cat /tmp/torusd_smoke_lane.json >&2
    exit 1
fi
jq -e '.engine == "analytic" and .exact == true and .theorem == "theorem2"
    and .e_max == 4 and .processors == 8 and .placement == "linear:0"' \
    /tmp/torusd_smoke_lane.json >/dev/null || {
    echo "smoke: FAIL — lane response malformed (want theorem2 with e_max = 8^1/2 = 4):" >&2
    cat /tmp/torusd_smoke_lane.json >&2
    exit 1
}

echo "smoke: analytic lane on T^3_256 (16.7M nodes, far past the computed cap)"
big_body='{"k":256,"d":3,"placement":"linear","routing":"odr"}'
status=$(curl -sS -o /tmp/torusd_smoke_big.json -w '%{http_code}' \
    -H 'Content-Type: application/json' -d "$big_body" "${BASE}/v1/analyze")
if [ "$status" != "200" ]; then
    echo "smoke: FAIL — T^3_256 analytic analyze returned ${status}:" >&2
    cat /tmp/torusd_smoke_big.json >&2
    exit 1
fi
jq -e '.engine == "analytic" and .exact == true and .processors == 65536 and .e_max == 32768' \
    /tmp/torusd_smoke_big.json >/dev/null || {
    echo "smoke: FAIL — T^3_256 lane response malformed:" >&2
    cat /tmp/torusd_smoke_big.json >&2
    exit 1
}
# The same torus must still be rejected on the computed path (node cap).
status=$(curl -sS -o /dev/null -w '%{http_code}' -H 'Content-Type: application/json' \
    -d '{"k":256,"d":3,"placement":"random:8","routing":"odr"}' "${BASE}/v1/analyze")
if [ "$status" = "200" ]; then
    echo "smoke: FAIL — oversized computed request was admitted" >&2
    exit 1
fi

echo "smoke: checking pprof sidecar on ${DEBUG_BASE}"
curl -fsS "${DEBUG_BASE}/debug/pprof/" | grep -q 'goroutine' || {
    echo "smoke: FAIL — pprof index not served on -debug-addr" >&2
    exit 1
}
if curl -fsS "${BASE}/debug/pprof/" >/dev/null 2>&1; then
    echo "smoke: FAIL — pprof must not be exposed on the public API address" >&2
    exit 1
fi

echo "smoke: checking /debug/vars counters"
# cache_misses comes from the computed random:8 request; analytic_hits from
# the two lane answers (T^2_8 linear and T^3_256 linear).
curl -fsS "${BASE}/debug/vars" | jq -e '.torusd.cache_misses >= 1 and .torusd.requests >= 1
    and .torusd.analytic_hits >= 2' >/dev/null || {
    echo "smoke: FAIL — /debug/vars missing expected torusd counters" >&2
    exit 1
}

echo "smoke: validating Prometheus text at /metrics"
curl -fsS "${BASE}/metrics" > /tmp/torusd_smoke_metrics.txt
if grep -vE '^(#.*)?$|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$' \
    /tmp/torusd_smoke_metrics.txt | grep -q .; then
    echo "smoke: FAIL — /metrics lines that are not valid Prometheus text:" >&2
    grep -vE '^(#.*)?$|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$' \
        /tmp/torusd_smoke_metrics.txt >&2
    exit 1
fi
for fam in torusd_requests_total torusd_request_duration_seconds_bucket \
    torusd_requests_by_endpoint_total torusd_in_flight torusd_uptime_seconds \
    torusd_analytic_hits_total; do
    grep -q "^${fam}" /tmp/torusd_smoke_metrics.txt || {
        echo "smoke: FAIL — /metrics is missing the ${fam} family" >&2
        exit 1
    }
done

echo "smoke: checking traceparent echo and /debug/traces"
tp=$(curl -sSD - -o /dev/null -H 'Content-Type: application/json' -d "$body" \
    "${BASE}/v1/analyze" | tr -d '\r' | awk 'tolower($1)=="traceparent:"{print $2}')
case "$tp" in
    00-????????????????????????????????-????????????????-01) ;;
    *)
        echo "smoke: FAIL — bad or missing traceparent response header: '${tp}'" >&2
        exit 1
        ;;
esac
tid=$(printf '%s' "$tp" | cut -d- -f2)
curl -fsS "${DEBUG_BASE}/debug/traces" > /tmp/torusd_smoke_traces.json
# At least one buffered trace must carry the full pipeline (>= 5 named
# stages), and the trace ID we were just handed must be among them.
jq -e --arg tid "$tid" '
    .stats.exported >= 1
    and ([.traces[] | [.spans[].name] | unique | length] | max >= 5)
    and ([.traces[].trace_id] | index($tid) != null)' \
    /tmp/torusd_smoke_traces.json >/dev/null || {
    echo "smoke: FAIL — /debug/traces lacks a full pipeline trace:" >&2
    cat /tmp/torusd_smoke_traces.json >&2
    exit 1
}

echo "smoke: arming service.cache.get failpoint via the sidecar"
curl -fsS -X PUT -d '1*error' "${DEBUG_BASE}/debug/failpoints/service.cache.get" >/dev/null || {
    echo "smoke: FAIL — could not arm failpoint via /debug/failpoints" >&2
    exit 1
}
status=$(curl -sS -o /tmp/torusd_smoke_fault.json -w '%{http_code}' \
    -H 'Content-Type: application/json' -d "$body" "${BASE}/v1/analyze")
if [ "$status" != "500" ]; then
    echo "smoke: FAIL — injected cache fault should 500, got ${status}:" >&2
    cat /tmp/torusd_smoke_fault.json >&2
    exit 1
fi
# The spec was counted (1*error), so the same request must succeed again.
status=$(curl -sS -o /dev/null -w '%{http_code}' \
    -H 'Content-Type: application/json' -d "$body" "${BASE}/v1/analyze")
if [ "$status" != "200" ]; then
    echo "smoke: FAIL — analyze did not recover after the counted fault (${status})" >&2
    exit 1
fi

echo "smoke: submitting an async search job via POST /v1/optimize"
job_body='{"k":6,"d":2,"routing":"odr"}'
status=$(curl -sS -o /tmp/torusd_smoke_job.json -w '%{http_code}' \
    -H 'Content-Type: application/json' -d "$job_body" "${BASE}/v1/optimize")
if [ "$status" != "202" ]; then
    echo "smoke: FAIL — /v1/optimize returned ${status}, want 202:" >&2
    cat /tmp/torusd_smoke_job.json >&2
    exit 1
fi
job_id=$(jq -r '.id' /tmp/torusd_smoke_job.json)
poll=$(jq -r '.poll' /tmp/torusd_smoke_job.json)
if [ -z "$job_id" ] || [ "$poll" != "/v1/jobs/${job_id}" ]; then
    echo "smoke: FAIL — malformed 202 body:" >&2
    cat /tmp/torusd_smoke_job.json >&2
    exit 1
fi

echo "smoke: polling ${poll} to completion"
state=""
for _ in $(seq 1 120); do
    curl -fsS "${BASE}${poll}" > /tmp/torusd_smoke_jobpoll.json
    state=$(jq -r '.state' /tmp/torusd_smoke_jobpoll.json)
    [ "$state" != "running" ] && break
    sleep 0.5
done
if [ "$state" != "done" ]; then
    echo "smoke: FAIL — job ended in state '${state}', want done:" >&2
    cat /tmp/torusd_smoke_jobpoll.json >&2
    exit 1
fi
# The search must never come back worse than its own starting placement,
# and on T²₆ (auto → branch-and-bound, 36 nodes) it proves the optimum:
# E_max = 2, strictly better than the linear construction's 3.
jq -e '.result.e_max <= .result.start_e_max
    and .result.e_max == 2 and .result.proven == true
    and (.result.nodes | length) == 6 and .result.strategy == "bnb"' \
    /tmp/torusd_smoke_jobpoll.json >/dev/null || {
    echo "smoke: FAIL — job result malformed (want proven e_max 2 on T²₆):" >&2
    cat /tmp/torusd_smoke_jobpoll.json >&2
    exit 1
}

echo "smoke: checking torusd_jobs_* metric families"
curl -fsS "${BASE}/metrics" > /tmp/torusd_smoke_metrics.txt
for fam in torusd_jobs_submitted_total torusd_jobs_done_total \
    torusd_jobs_running torusd_jobs_tracked torusd_job_duration_seconds_bucket; do
    grep -q "^${fam}" /tmp/torusd_smoke_metrics.txt || {
        echo "smoke: FAIL — /metrics is missing the ${fam} family" >&2
        exit 1
    }
done
# One job submitted and done; none running now, but its record is tracked.
grep -q '^torusd_jobs_submitted_total 1$' /tmp/torusd_smoke_metrics.txt \
    && grep -q '^torusd_jobs_done_total 1$' /tmp/torusd_smoke_metrics.txt \
    && grep -q '^torusd_jobs_running 0$' /tmp/torusd_smoke_metrics.txt \
    && grep -q '^torusd_jobs_tracked 1$' /tmp/torusd_smoke_metrics.txt || {
    echo "smoke: FAIL — job metrics do not tally the completed run:" >&2
    grep '^torusd_jobs' /tmp/torusd_smoke_metrics.txt >&2
    exit 1
}

echo "smoke: graceful shutdown"
kill -TERM "$PID"
wait "$PID"
trap 'rm -rf "$(dirname "$BIN")"' EXIT
echo "smoke: OK"

# ---------------------------------------------------------------------------
# Cluster leg (TORUSD_SMOKE_CLUSTER=1, run via `make smoke-cluster`): boot a
# 3-node cluster (one owner per key), verify a hot key dearer than a peer
# fill is computed exactly once cluster-wide — peer-filled by both other
# nodes — then kill its owner
# mid-load and evict it (epoch 2). A second key warmed only at the dead
# owner must then come back exact on every survivor, computed once
# cluster-wide by its new owner. Finally restart the dead node, re-admit it
# through /debug/cluster/membership (epoch 3), and assert it serves again.
# ---------------------------------------------------------------------------
if [ "${TORUSD_SMOKE_CLUSTER:-0}" != "1" ]; then
    exit 0
fi

CPORTS=(18090 18091 18092)
CDEBUG=(18095 18096 18097)
PEERS="http://127.0.0.1:${CPORTS[0]},http://127.0.0.1:${CPORTS[1]},http://127.0.0.1:${CPORTS[2]}"
CPIDS=()

echo "smoke-cluster: booting 3 nodes"
for i in 0 1 2; do
    "$BIN" -addr "127.0.0.1:${CPORTS[$i]}" -debug-addr "127.0.0.1:${CDEBUG[$i]}" \
        -cluster -self "http://127.0.0.1:${CPORTS[$i]}" -peers "$PEERS" &
    CPIDS[$i]=$!
done
trap 'for p in "${CPIDS[@]}"; do kill "$p" 2>/dev/null || true; done; wait 2>/dev/null || true; rm -rf "$(dirname "$BIN")"' EXIT

echo "smoke-cluster: waiting for /readyz on all nodes"
for i in 0 1 2; do
    ready=""
    for _ in $(seq 1 60); do
        if curl -fsS "http://127.0.0.1:${CPORTS[$i]}/readyz" >/dev/null 2>&1; then
            ready=1
            break
        fi
        sleep 0.5
    done
    if [ -z "$ready" ]; then
        echo "smoke-cluster: FAIL — node $i never became ready" >&2
        exit 1
    fi
done

# The hot key canonicalizes to this cache key. A node fills a miss from its
# owner only when the cost model prices the compute above one fill (about
# 75 µs), so the hot key and K2 below are FAR on T^3_8 over 64 random
# processors, priced at milliseconds; no analytic lane answers them.
hot_body='{"k":8,"d":3,"placement":"random:64:1","routing":"far"}'
hot_key='analyze|k=8|d=3|p=random:64:1|a=far'

echo "smoke-cluster: resolving the hot key's owner via /debug/cluster"
owner_url=$(curl -fsS --get --data-urlencode "key=${hot_key}" \
    "http://127.0.0.1:${CDEBUG[0]}/debug/cluster" | jq -r '.owner')
owner_idx=""
others=()
for i in 0 1 2; do
    if [ "$owner_url" = "http://127.0.0.1:${CPORTS[$i]}" ]; then
        owner_idx=$i
    else
        others+=("$i")
    fi
done
if [ -z "$owner_idx" ]; then
    echo "smoke-cluster: FAIL — owner '${owner_url}' is not a member" >&2
    exit 1
fi
echo "smoke-cluster: hot key owner: node ${owner_idx}"

echo "smoke-cluster: driving the hot key through every node"
emaxes=()
for i in "$owner_idx" $(for j in 0 1 2; do [ "$j" != "$owner_idx" ] && echo "$j"; done); do
    status=$(curl -sS -o /tmp/torusd_smoke_cluster.json -w '%{http_code}' \
        -H 'Content-Type: application/json' -d "$hot_body" "http://127.0.0.1:${CPORTS[$i]}/v1/analyze")
    if [ "$status" != "200" ]; then
        echo "smoke-cluster: FAIL — node $i analyze returned ${status}" >&2
        exit 1
    fi
    emaxes+=("$(jq -r '.e_max' /tmp/torusd_smoke_cluster.json)")
done
if [ "${emaxes[0]}" != "${emaxes[1]}" ] || [ "${emaxes[0]}" != "${emaxes[2]}" ]; then
    echo "smoke-cluster: FAIL — nodes disagree on e_max: ${emaxes[*]}" >&2
    exit 1
fi

echo "smoke-cluster: asserting one compute cluster-wide (one peer fill on every other node)"
# The owner computed the key once; each other node missed, filled it from
# the owner with one peer fill, and cached it.
curl -fsS "http://127.0.0.1:${CPORTS[$owner_idx]}/debug/vars" \
    | jq -e '.torusd.cache_misses == 1 and .torusd.peer_hops >= 1' >/dev/null || {
    echo "smoke-cluster: FAIL — owner counters do not show exactly one compute" >&2
    curl -fsS "http://127.0.0.1:${CPORTS[$owner_idx]}/debug/vars" | jq '.torusd' >&2
    exit 1
}
for i in "${others[@]}"; do
    curl -fsS "http://127.0.0.1:${CPORTS[$i]}/debug/vars" \
        | jq -e '.torusd.peer_fills == 1 and .torusd.cluster.fills == 1 and .torusd.cluster.fill_errors == 0' >/dev/null || {
        echo "smoke-cluster: FAIL — node $i did not answer the hot key via one peer fill" >&2
        curl -fsS "http://127.0.0.1:${CPORTS[$i]}/debug/vars" | jq '.torusd' >&2
        exit 1
    }
done

echo "smoke-cluster: warming a second key at its owner only"
# K2 is homed on the same (about-to-die) owner and warmed only there, so
# the kill loses its only cached copy.
k2_body=""
k2_key=""
for seed in $(seq 2 40); do
    key="analyze|k=8|d=3|p=random:64:${seed}|a=far"
    o=$(curl -fsS --get --data-urlencode "key=${key}" \
        "http://127.0.0.1:${CDEBUG[0]}/debug/cluster" | jq -r '.owner')
    if [ "$o" = "$owner_url" ]; then
        k2_body="{\"k\":8,\"d\":3,\"placement\":\"random:64:${seed}\",\"routing\":\"far\"}"
        k2_key=$key
        break
    fi
done
if [ -z "$k2_body" ]; then
    echo "smoke-cluster: FAIL — no second key homed on node ${owner_idx} among seeds 2..40" >&2
    exit 1
fi
status=$(curl -sS -o /tmp/torusd_smoke_cluster.json -w '%{http_code}' \
    -H 'Content-Type: application/json' -d "$k2_body" "http://127.0.0.1:${CPORTS[$owner_idx]}/v1/analyze")
if [ "$status" != "200" ]; then
    echo "smoke-cluster: FAIL — K2 warm at owner returned ${status}" >&2
    exit 1
fi
k2_emax=$(jq -r '.e_max' /tmp/torusd_smoke_cluster.json)

echo "smoke-cluster: killing the home shard (node ${owner_idx}) mid-load"
kill -TERM "${CPIDS[$owner_idx]}"
failures=0
for _ in $(seq 1 10); do
    for i in 0 1 2; do
        [ "$i" = "$owner_idx" ] && continue
        status=$(curl -sS -o /dev/null -w '%{http_code}' \
            -H 'Content-Type: application/json' -d "$hot_body" "http://127.0.0.1:${CPORTS[$i]}/v1/analyze")
        [ "$status" != "200" ] && failures=$((failures + 1))
    done
done
wait "${CPIDS[$owner_idx]}" 2>/dev/null || true
if [ "$failures" != "0" ]; then
    echo "smoke-cluster: FAIL — ${failures} hot-key requests failed while the home shard died" >&2
    exit 1
fi

echo "smoke-cluster: evicting the dead node via /debug/cluster/membership"
for i in 0 1 2; do
    [ "$i" = "$owner_idx" ] && continue
    epoch=$(curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "{\"leave\":\"${owner_url}\"}" \
        "http://127.0.0.1:${CDEBUG[$i]}/debug/cluster/membership" | jq -r '.epoch')
    if [ "$epoch" != "2" ]; then
        echo "smoke-cluster: FAIL — node $i leave epoch = ${epoch}, want 2" >&2
        exit 1
    fi
done

echo "smoke-cluster: K2 must come back exact on every survivor, computed once cluster-wide"
# After the evict K2 has a new owner among the survivors. Ask the new owner
# first (it computes), then the other survivor (it peer-fills from the new
# owner). A node's computes are its cache misses minus its peer fills.
k2_owner_url=$(curl -fsS --get --data-urlencode "key=${k2_key}" \
    "http://127.0.0.1:${CDEBUG[${others[0]}]}/debug/cluster" | jq -r '.owner')
k2_order=()
for i in "${others[@]}"; do
    [ "$k2_owner_url" = "http://127.0.0.1:${CPORTS[$i]}" ] && k2_order=("$i" "${k2_order[@]}") || k2_order+=("$i")
done
if [ "$k2_owner_url" != "http://127.0.0.1:${CPORTS[${k2_order[0]}]}" ]; then
    echo "smoke-cluster: FAIL — K2's new owner '${k2_owner_url}' is not a survivor" >&2
    exit 1
fi
node_computes() {
    curl -fsS "http://127.0.0.1:${CPORTS[$1]}/debug/vars" | jq -r '.torusd.cache_misses - .torusd.peer_fills'
}
computes_before=0
for i in "${others[@]}"; do
    computes_before=$((computes_before + $(node_computes "$i")))
done
for i in "${k2_order[@]}"; do
    status=$(curl -sS -o /tmp/torusd_smoke_cluster.json -w '%{http_code}' \
        -H 'Content-Type: application/json' -d "$k2_body" "http://127.0.0.1:${CPORTS[$i]}/v1/analyze")
    if [ "$status" != "200" ]; then
        echo "smoke-cluster: FAIL — post-kill K2 request on node $i returned ${status}" >&2
        exit 1
    fi
    jq -e --argjson want "$k2_emax" '.e_max == $want and .exact == true' \
        /tmp/torusd_smoke_cluster.json >/dev/null || {
        echo "smoke-cluster: FAIL — node $i K2 answer diverges from the pre-kill value ${k2_emax}:" >&2
        cat /tmp/torusd_smoke_cluster.json >&2
        exit 1
    }
done
computes_after=0
for i in "${others[@]}"; do
    computes_after=$((computes_after + $(node_computes "$i")))
done
if [ $((computes_after - computes_before)) != "1" ]; then
    echo "smoke-cluster: FAIL — K2 computed $((computes_after - computes_before)) times cluster-wide after the evict, want 1" >&2
    exit 1
fi

echo "smoke-cluster: restarting node ${owner_idx} and re-admitting it"
"$BIN" -addr "127.0.0.1:${CPORTS[$owner_idx]}" -debug-addr "127.0.0.1:${CDEBUG[$owner_idx]}" \
    -cluster -self "$owner_url" -peers "$PEERS" &
CPIDS[$owner_idx]=$!
ready=""
for _ in $(seq 1 60); do
    if curl -fsS "http://127.0.0.1:${CPORTS[$owner_idx]}/readyz" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.5
done
if [ -z "$ready" ]; then
    echo "smoke-cluster: FAIL — restarted node never became ready" >&2
    exit 1
fi
for i in 0 1 2; do
    [ "$i" = "$owner_idx" ] && continue
    epoch=$(curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "{\"join\":\"${owner_url}\"}" \
        "http://127.0.0.1:${CDEBUG[$i]}/debug/cluster/membership" | jq -r '.epoch')
    if [ "$epoch" != "3" ]; then
        echo "smoke-cluster: FAIL — node $i rejoin epoch = ${epoch}, want 3" >&2
        exit 1
    fi
done
for i in 0 1 2; do
    [ "$i" = "$owner_idx" ] && continue
    curl -fsS "http://127.0.0.1:${CPORTS[$i]}/readyz" \
        | jq -e '.epoch == 3' >/dev/null || {
        echo "smoke-cluster: FAIL — node $i /readyz does not report epoch 3" >&2
        exit 1
    }
done
# The rejoined node serves traffic again.
status=$(curl -sS -o /dev/null -w '%{http_code}' \
    -H 'Content-Type: application/json' -d "$hot_body" "http://127.0.0.1:${CPORTS[$owner_idx]}/v1/analyze")
if [ "$status" != "200" ]; then
    echo "smoke-cluster: FAIL — rejoined node analyze returned ${status}" >&2
    exit 1
fi

echo "smoke-cluster: graceful shutdown"
for i in 0 1 2; do
    kill -TERM "${CPIDS[$i]}"
    wait "${CPIDS[$i]}" 2>/dev/null || true
done
trap 'rm -rf "$(dirname "$BIN")"' EXIT
echo "smoke-cluster: OK"
