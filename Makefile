# Convenience entry points; each is a thin wrapper over the go tool so
# CI and contributors run exactly the same commands.

GO ?= go

.PHONY: build test race lint analyze fuzz-smoke bench bench-ref bench-compare bench-obs bench-audit bench-policy bench-load load-smoke conformance cluster-soak verify-audit check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Authorization-safety analyzers (docs/ANALYSIS.md) plus the doc
# cross-reference check. Fails on any finding; waive only with an
# //authlint:ignore comment carrying a reason.
lint:
	$(GO) run ./cmd/authlint ./...

# Static policy semantics analysis (docs/POLICY-ANALYSIS.md) over the
# example policies, with the site file marked local so the conflict
# pass runs — the same check CI's policy-analyze step does.
analyze:
	$(GO) run ./cmd/policycheck -analyze \
		-policy examples/policies/nfc-vo.policy \
		-policy examples/policies/nfc-local.policy \
		-local examples/policies/nfc-local.policy

# Replay every fuzz corpus and probe briefly for new crashers — the
# same smoke CI runs.
fuzz-smoke:
	$(GO) test ./internal/rsl/ -run '^$$' -fuzz 'FuzzParse$$' -fuzztime=10s
	$(GO) test ./internal/rsl/ -run '^$$' -fuzz 'FuzzParseSpec$$' -fuzztime=10s
	$(GO) test ./internal/policy/ -run '^$$' -fuzz 'FuzzCompiledEquivalence$$' -fuzztime=10s
	$(GO) test ./internal/policy/analyze/ -run '^$$' -fuzz 'FuzzAnalyze$$' -fuzztime=10s
	$(GO) test ./internal/gsi/ -run '^$$' -fuzz 'FuzzVerifyMemoEquivalence$$' -fuzztime=10s
	$(GO) test ./internal/gram/ -run '^$$' -fuzz 'FuzzMessageCodec$$' -fuzztime=10s
	$(GO) test ./internal/gsi/ -run '^$$' -fuzz 'FuzzHandshakeCodec$$' -fuzztime=10s
	$(GO) test ./internal/gsi/ -run '^$$' -fuzz 'FuzzCertificateCodec$$' -fuzztime=10s
	$(GO) test ./internal/gsi/ -run '^$$' -fuzz 'FuzzTicketCodec$$' -fuzztime=10s
	$(GO) test ./internal/gridftp/ -run '^$$' -fuzz 'FuzzGridFTPCodec$$' -fuzztime=10s

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) test ./internal/gram/ -run 'TestMessageCodecAllocations' -bench 'BenchmarkMessageCodec' -benchmem
	$(GO) test ./internal/gsi/ -run 'TestHandshakeCodecAllocations' -bench 'BenchmarkHandshakeCodec' -benchmem

# The reference benchmark (bench/README.md, BENCHMARK.json): four
# full-stack workloads, about 25 s each, tracing off. Every performance
# claim names a metric and a workload from it.
bench-ref:
	$(GO) run ./bench

# Compare two result sets written with `go run ./bench -out FILE`:
#   make bench-compare A=parent.json B=change.json
bench-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-compare A=parent.json B=change.json"; exit 2; }
	$(GO) run ./bench -compare $(A) $(B)

# The paper-scenario conformance suite under the race detector — the
# same run CI's conformance job does.
conformance:
	$(GO) test -race -run 'TestConformance' -v .

# The federated-cluster chaos soak (docs/CLUSTER.md): three nodes, one
# resource, node kills, a publisher partition and a mid-traffic policy
# revocation under the race detector — the same run CI's cluster-soak
# job does.
cluster-soak:
	$(GO) test -race -timeout 120s -run 'TestClusterSoak' -v .

# Machine-readable observability benchmark series (P7/P10).
bench-obs:
	$(GO) test -run=NONE -bench 'BenchmarkP7_SessionResumption|BenchmarkP10_TraceOverhead' -benchtime=1x -json . | tee BENCH_obs.json

# Machine-readable audit-pipeline series (P11): append throughput,
# tuning knobs and the full-stack overhead pair (docs/PERFORMANCE.md).
bench-audit:
	$(GO) test -run=NONE -bench 'BenchmarkP11_AuditThroughput' -benchtime=1x -json . | tee BENCH_audit.json

# Machine-readable compiled-policy-engine series (P12): the
# interpreted-vs-compiled sweep at 1k-1M rules across the three
# workload shapes, compile cost, and the 1M-distinct-subject uniform
# workload (docs/PERFORMANCE.md).
bench-policy:
	$(GO) test -run=NONE -bench 'BenchmarkP12_CompiledPolicy' -benchtime=1x -json . | tee BENCH_policy.json

# Tier-1 slice of the P13 full-stack load harness: a small closed-loop
# mixed-traffic run against a real gatekeeper (loadsmoke_test.go).
load-smoke:
	$(GO) test -run 'TestLoadSmoke' -v .

# The full P13 experiment grid (docs/PERFORMANCE.md): closed- and
# open-loop load against the full service stack, up to a million
# synthetic identities, written to BENCH_load.json at the repo root —
# the baseline cmd/benchdiff compares CI runs against.
bench-load:
	$(GO) run ./scripts/experiments

# Run the conformance suite with each test writing a real sealed
# segment log, then prove every log's integrity with cmd/auditverify —
# the end-to-end tamper-evidence loop (docs/AUDIT.md).
verify-audit:
	rm -rf /tmp/gridauth-conformance-audit
	CONFORMANCE_AUDIT_DIR=/tmp/gridauth-conformance-audit $(GO) test -run 'TestConformance' .
	$(GO) run ./cmd/auditverify -dir /tmp/gridauth-conformance-audit

check: build test lint analyze
