GO ?= go
FUZZTIME ?= 5s
# fuzz targets as <package>:<FuzzName> pairs, one short budget each.
FUZZ_TARGETS := \
	./internal/torus:FuzzCoordDelta \
	./internal/torus:FuzzNodeRoundTrip \
	./internal/torus:FuzzLeeDistance \
	./internal/torus:FuzzWrapCoord \
	./internal/torus:FuzzTranslateEdge \
	./internal/placement:FuzzStructuredStabilizer \
	./internal/bisect:FuzzCuts \
	./internal/load:FuzzRingFlow \
	./internal/routing:FuzzFARKernel \
	./internal/service:FuzzDecodeAnalyzeRequest \
	./internal/service:FuzzDecodeStrict \
	./internal/service:FuzzAnswerRecord \
	./internal/service:FuzzJSONFloat \
	./internal/cluster:FuzzHashRing \
	./internal/lintcheck:FuzzLintIgnoreDirective

.PHONY: all build test race vet fmt-check lint lint-fix fuzz-smoke serve bench-smoke bench-module smoke-torusd smoke-cluster chaos profile ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt-check fails if any tracked Go file outside the nested bench/ module
# is not gofmt-formatted.
fmt-check:
	@out="$$(gofmt -l $$(git ls-files '*.go' ':!bench'))"; \
		test -z "$$out" || { echo "fmt-check: gofmt would reformat:" >&2; echo "$$out" >&2; exit 1; }

# lint runs the repository's own static-analysis suite (cmd/toruslint);
# it exits nonzero on any finding.
lint:
	$(GO) run ./cmd/toruslint ./...

# lint-fix applies every finding's mechanical fix, then fails if the fixes
# changed anything that was not committed (CI runs this to guarantee the
# tree is already in its fixed form) or if unfixable findings remain.
lint-fix:
	$(GO) run ./cmd/toruslint -fix ./...
	@git diff --exit-code -- . ':!results' || \
		{ echo "lint-fix: toruslint -fix changed files; commit the fixes above" >&2; exit 1; }

# fuzz-smoke gives each fuzz target a short budget; failures persist a
# crasher under <package>/testdata/fuzz for replay with plain go test.
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$pkg $$fn"; \
		$(GO) test $$pkg -run='^$$' -fuzz="^$$fn$$" -fuzztime=$(FUZZTIME) || exit 1; \
	done

# serve runs the torusd analysis service in the foreground (ctrl-c stops it).
serve:
	$(GO) run ./cmd/torusd -addr :8080

# bench-smoke is the CI performance gate: fails on a >30% regression in
# allocs/op or in the generic/fast speed ratio against the committed
# expectations in results/BENCH_load_baseline.json (machine-independent
# checks only; see scripts/ci_bench_smoke.sh).
bench-smoke:
	./scripts/ci_bench_smoke.sh

# bench-module vets and tests the nested torusnet/bench module (torusbench).
# It has its own go.mod, so the root build, vet, and test targets never
# compile it; this target is what catches an internal API change that
# breaks the benchmark.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# smoke-torusd builds the real binary, boots it, and drives one analyze
# request through /healthz + /v1/analyze + /debug/vars (CI gate).
smoke-torusd:
	./scripts/ci_torusd_smoke.sh

# smoke-cluster runs the full smoke plus the 3-node cluster leg: boot a
# sharded cluster (one owner per key), assert a hot key computes once
# cluster-wide and peer-fills everywhere else, kill its owner mid-load and
# assert the survivors stay available, evict it, and assert a key lost
# with it comes back exact on every survivor, computed once cluster-wide
# by its new owner. The in-process multi-node suite
# (internal/cluster/harness) runs under -race first.
smoke-cluster:
	$(GO) test -race -count=1 ./internal/cluster/...
	TORUSD_SMOKE_CLUSTER=1 ./scripts/ci_torusd_smoke.sh

# profile captures a CPU profile from a running torusd's debug sidecar
# while streaming uncached analyze load at the API, then prints the top
# functions and the pprof label breakdown (endpoint/engine/experiment
# labels). Boot the server first:
#   go run ./cmd/torusd -addr :8080 -debug-addr 127.0.0.1:6060
profile:
	./scripts/profile_torusd.sh

# chaos runs the fault-injection suite under the race detector: every
# registered failpoint (including the cluster.* sites) fires against a live
# server and the server converges back to exact answers, pool workers are
# crashed and wedged, the client drains bodies for connection reuse, a
# peer fill against an overloaded (429) owner fails fast to local compute,
# a multi-node cluster is churned with kills, partitions, and armed
# cluster faults, and each test asserts a goroutine-leak-free recovery.
# The deadline and cancellation tests (a queued job past its deadline, the
# compute's context, a follower outliving its leader's client, a fill
# against a stalled owner) run 20 times: a reused timer or a close race
# shows only on repeated runs.
chaos:
	$(GO) test -race -count=1 ./internal/failpoint
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestClientDrains|TestPeerFillFailsFast' \
		./internal/service
	$(GO) test -race -count=20 \
		-run 'TestQueuedJobPastDeadlineNeverComputes|TestComputeContextCarriesDeadline|TestFollowerOutlivesCanceledLeader|TestPooledTimerDeliversNoStaleTick' \
		./internal/service
	$(GO) test -race -count=1 -run 'TestCluster' ./internal/cluster/harness
	$(GO) test -race -count=20 -run 'TestPeerFillStalledOwnerHonorsDeadline' ./internal/cluster/harness

ci: build vet fmt-check test race lint chaos bench-module
