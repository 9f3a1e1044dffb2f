# Convenience targets; everything here is plain go tool invocations.

.PHONY: test race lint golden golden-check serve-smoke fuzz bench bench-scale

# bench/ is a nested module, so the root ./... skips it; vet and test it
# separately (it implements engine interfaces such as radio.CellMedium).
test:
	go build ./... && go test ./...
	cd bench && go vet ./... && go test ./...

race:
	go test -race ./...

# Determinism lint: build rbvet (the repo's go/analysis-style
# multichecker, see DESIGN.md "Determinism lint") and run it over the
# whole module, then over the nested bench/ module, which the root
# ./... skips. Findings exit nonzero; suppressions happen in source
# via //rbvet:allow <analyzer> <reason>.
lint:
	go build -o bin/rbvet ./cmd/rbvet && bin/rbvet ./...
	cd bench && ../bin/rbvet ./...

# Regenerate the checked-in golden JSON documents after a change that
# intentionally moves the numbers (a new family instance, a new ladder
# rung, an engine change allowed to reorder randomness). CI and the
# cmd/rbexp tests diff rbexp's output against these bytes.
golden:
	go run ./cmd/rbexp -exp families -json -q -seed 1 > cmd/rbexp/testdata/families_golden.json
	go run ./cmd/rbexp -exp matrix -json -q -seed 1 > cmd/rbexp/testdata/matrix_golden.json
	go run ./cmd/rbexp -exp dropoff -json -q -seed 1 > cmd/rbexp/testdata/dropoff_golden.json
	go run ./cmd/rbexp -exp epidemic -json -q -seed 1 > cmd/rbexp/testdata/epidemic_golden.json
	go run ./cmd/rbexp -exp clustered -json -q -seed 1 > cmd/rbexp/testdata/clustered_golden.json

# Diff rbexp's current output against the checked-in goldens without
# touching them, failing loudly on any drift. The golden documents are
# produced on the default in-process transport; transports must never
# move them (the UDP equivalence tests pin that).
golden-check:
	@status=0; \
	for exp in families matrix dropoff epidemic clustered; do \
		go run ./cmd/rbexp -exp $$exp -json -q -seed 1 | \
			diff -u cmd/rbexp/testdata/$${exp}_golden.json - || \
			{ echo "GOLDEN DRIFT: $$exp (regenerate deliberately with 'make golden')"; status=1; }; \
	done; exit $$status

# End-to-end smoke for `rbexp serve` over real sockets: start a server
# on a fresh cache, submit the families grid, diff the aggregate tables
# endpoint against the checked-in golden, and assert a warm re-submit
# executes zero cells (see scripts/serve_smoke.sh; CI's serve job runs
# exactly this target).
serve-smoke:
	./scripts/serve_smoke.sh

# The two measured benchmark suites. The CI bench job runs these
# targets (see .github/workflows/ci.yml), so local numbers are
# comparable to the gated ones. bench is the sub-second dense-round,
# small-broadcast, sparse-calendar, connectivity-pass and round
# fan-out suites, with -benchmem so their B/op and allocs/op are gated
# too (OneHopRB's broadcast benchmark lives in its driver package,
# which the root package does not import; BenchmarkRoundFanout's
# 4096-device rows, at one and two workers, are the suite's only
# rounds that fan out); bench-scale is the 100k+ regime — single
# iterations, 3 counts, -benchmem — plus the opt-in million-device
# round when BENCH_SCALE_1M=1 is exported.
bench:
	go test -run '^$$' -bench 'BenchmarkDenseRound(Linear|Indexed|4096|Disk)|BenchmarkSingleBroadcast(NW|MP|Epidemic|OneHop)$$|BenchmarkSparseCalendar|BenchmarkLiveComponents(Cluster4096|Uniform16384)|BenchmarkRoundFanout/^n=4096$$/' \
		-count 5 -benchtime 0.3s -benchmem . ./internal/sim ./internal/topo ./internal/proto/onehop/driver

bench-scale:
	go test -run '^$$' -bench 'BenchmarkDenseRound(65536|262144|1M)$$' \
		-count 3 -benchtime 1x -benchmem .

# Short local fuzz pass over the -param parser, the typed getters, the
# adversary-mix label parser, the fault-plan grammar, the MultiPathRB
# frame decoder and the slot cursor (CI replays the checked-in corpus
# under testdata/fuzz on every run).
fuzz:
	go test ./internal/core/ -fuzz FuzzParseParam -fuzztime 30s -run '^$$'
	go test ./internal/core/ -fuzz FuzzParamsGetters -fuzztime 30s -run '^$$'
	go test ./internal/experiment/ -fuzz FuzzParseMix -fuzztime 30s -run '^$$'
	go test ./internal/faultnet/ -fuzz FuzzParsePlan -fuzztime 30s -run '^$$'
	go test ./internal/bitcodec/ -fuzz FuzzDecodeFrame -fuzztime 30s -run '^$$'
	go test ./internal/schedule/ -fuzz FuzzSlotCursor -fuzztime 30s -run '^$$'
