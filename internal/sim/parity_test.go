package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/obs"
	"flowsched/internal/overload"
	"flowsched/internal/resilience"
)

// parityDigestFile pins the unified engine's observable output, one digest
// per configuration of TestEngineParityDigests. It is regenerated only for
// an intended behaviour change:
//
//	go test ./internal/sim -run TestEngineParityDigests -update-parity
const parityDigestFile = "testdata/engine_parity.digest"

var updateParity = flag.Bool("update-parity", false, "rewrite "+parityDigestFile+" from the current engine")

// digester feeds values into a SHA-256 stream. Floats hash by their bits with
// every NaN folded onto one canonical pattern, so a NaN sentinel compares
// equal whatever arithmetic produced it; a nil slice hashes differently from
// an empty one, because a disabled layer's nil metric fields are part of the
// contract.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.h.Write(d.buf[:])
}

func (d *digester) f64(x float64) {
	if math.IsNaN(x) {
		d.u64(0x7ff8000000000001)
		return
	}
	d.u64(math.Float64bits(x))
}

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

// digestSkip names the metrics fields that value leaves out: the run's
// tasks are input, not output. Stretches follow from them and the flows,
// and digestRun hashes MaxStretch and MeanStretch after the struct.
var digestSkip = map[reflect.Type]map[string]bool{
	reflect.TypeOf(Metrics{}): {"tasks": true},
}

// value hashes v field by field (unexported fields included, digestSkip's
// left out), so a field added to ElasticMetrics or FlightEvent is covered
// without touching this test.
func (d *digester) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		d.f64(v.Float())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.u64(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			d.u64(1)
		} else {
			d.u64(0)
		}
	case reflect.String:
		d.str(v.String())
	case reflect.Slice:
		if v.IsNil() {
			d.u64(math.MaxUint64)
			return
		}
		fallthrough
	case reflect.Array:
		d.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Struct:
		skip := digestSkip[v.Type()]
		for i := 0; i < v.NumField(); i++ {
			if !skip[v.Type().Field(i).Name] {
				d.value(v.Field(i))
			}
		}
	case reflect.Pointer:
		if v.IsNil() {
			d.u64(0)
			return
		}
		d.u64(1)
		d.value(v.Elem())
	default:
		panic(fmt.Sprintf("parity digest: unsupported kind %s", v.Kind()))
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }

// parityLink names a link setting. Configs carry per-run state, so build
// makes fresh ones for every run.
type parityLink struct {
	name  string
	build func(m int, horizon core.Time) Config
}

// crashGrayPlan is a seeded crash plan merged with a seeded gray plan.
func crashGrayPlan(m int, horizon core.Time) *faults.Plan {
	crash := faults.Generate(m, horizon, float64(horizon)/3, float64(horizon)/40, rand.New(rand.NewSource(11)))
	gray := faults.GenerateGray(m, horizon, faults.GrayConfig{MTBF: float64(horizon) / 4, MTTR: float64(horizon) / 10},
		rand.New(rand.NewSource(12)))
	return crash.Merge(gray)
}

// slowPlan makes server 0 four times slow over the middle half of the run.
func slowPlan(m int, horizon core.Time) *faults.Plan {
	return faults.Empty(m).Slow(0, horizon/4, 3*horizon/4, 4)
}

var parityRetry = RetryPolicy{MaxAttempts: 4, Backoff: 0.5, BackoffFactor: 2}

func parityLinks() []parityLink {
	script := func(m int, h core.Time) *elastic.Config {
		return &elastic.Config{
			Initial: m, Min: 3, Max: m, WarmUp: 0.5,
			Script: []elastic.Event{{At: h * 0.2, Delta: -2}, {At: h * 0.45, Delta: -1}, {At: h * 0.6, Delta: 3}},
		}
	}
	hedged := func(name string, hc hedge.Config) parityLink {
		return parityLink{name, func(m int, h core.Time) Config {
			c := hc
			return Config{Plan: slowPlan(m, h), Hedge: &c}
		}}
	}
	shed := func(policy overload.ShedPolicy) *overload.Config {
		return &overload.Config{Shedder: &overload.Shedder{Policy: policy, Watermark: 4, Seed: 3}}
	}
	resil := func() *resilience.Config {
		return &resilience.Config{
			Jitter: resilience.JitterFull, Seed: 5, RetryBudget: 0.2,
			Breaker: &resilience.BreakerConfig{Window: 8, FailureThreshold: 0.5, Cooldown: 3, SlowFactor: 3},
		}
	}
	return []parityLink{
		{"bare", func(m int, h core.Time) Config { return Config{} }},
		{"crash+gray", func(m int, h core.Time) Config {
			return Config{Plan: crashGrayPlan(m, h), Retry: parityRetry}
		}},
		{"admit-queue", func(m int, h core.Time) Config {
			return Config{Overload: &overload.Config{Admission: overload.QueueBound{MaxQueue: 3}}}
		}},
		{"admit-deadline", func(m int, h core.Time) Config {
			return Config{Overload: &overload.Config{Admission: overload.DeadlineAdmit{D: 8}}}
		}},
		{"shed-newest", func(m int, h core.Time) Config { return Config{Overload: shed(overload.DropNewest)} }},
		{"shed-stretch", func(m int, h core.Time) Config { return Config{Overload: shed(overload.DropLargestStretch)} }},
		{"eject", func(m int, h core.Time) Config {
			return Config{Plan: slowPlan(m, h), Overload: &overload.Config{Ejector: &overload.Ejector{}}}
		}},
		{"guard", func(m int, h core.Time) Config {
			return Config{Overload: &overload.Config{Guard: overload.NewEstimatorCapacity(0.4 * float64(m))}}
		}},
		{"drain-rejoin", func(m int, h core.Time) Config { return Config{Elastic: script(m, h)} }},
		hedged("hedge-delay", hedge.Config{Delay: 2}),
		hedged("hedge-delay-cancel", hedge.Config{Delay: 2, CancelRunning: true}),
		hedged("hedge-quantile", hedge.Config{Quantile: 0.9, MinSamples: 30}),
		hedged("hedge-quantile-cancel", hedge.Config{Quantile: 0.9, MinSamples: 30, CancelRunning: true}),
		hedged("hedge-tied", hedge.Config{Tied: true}),
		hedged("hedge-tied-cancel", hedge.Config{Tied: true, CancelRunning: true}),
		{"resilience", func(m int, h core.Time) Config {
			return Config{Plan: crashGrayPlan(m, h), Retry: parityRetry, Resilience: resil()}
		}},
		{"all", func(m int, h core.Time) Config {
			return Config{
				Plan:  crashGrayPlan(m, h),
				Retry: parityRetry,
				Overload: &overload.Config{
					Admission: overload.DeadlineAdmit{D: 12},
					Shedder:   &overload.Shedder{Policy: overload.DropNewest, Watermark: 5, Seed: 3},
					Ejector:   &overload.Ejector{},
					Guard:     overload.NewEstimatorCapacity(0.4 * float64(m)),
				},
				Elastic:    script(m, h),
				Hedge:      &hedge.Config{Delay: 2, CancelRunning: true},
				Resilience: resil(),
			}
		}},
	}
}

// tiedInstance draws integer releases and integer processing times: many
// arrivals share an instant and many completions coincide, so every
// same-instant ordering rule of the engine is exercised.
func tiedInstance(m, n int, load float64, rng *rand.Rand) *core.Instance {
	tasks := make([]core.Task, n)
	t := 0.0
	for i := range tasks {
		t += rng.ExpFloat64() / (load * float64(m) / 2)
		var set core.ProcSet
		if rng.Intn(4) > 0 {
			set = core.MustRingInterval(rng.Intn(m), 3, m)
		}
		tasks[i] = core.Task{Release: math.Floor(t), Proc: float64(1 + rng.Intn(3)), Set: set, Key: i % m}
	}
	return core.NewInstance(m, tasks)
}

// parityRuns yields every configuration of the parity matrix: integer
// (tie-heavy) and real releases × every link setting × all seven routers.
func parityRuns(f func(name string, inst *core.Instance, link parityLink, router Router)) {
	const m, n = 8, 1200
	insts := []struct {
		name string
		inst *core.Instance
	}{
		{"int", tiedInstance(m, n, 0.95, rand.New(rand.NewSource(21)))},
		{"real", overloadedInstance(m, n, 1.1, rand.New(rand.NewSource(22)))},
	}
	for _, in := range insts {
		for _, link := range parityLinks() {
			for i, kind := range allRouterKinds {
				router, _ := routerPair(kind, int64(100+i))
				f(in.name+"/"+link.name+"/"+kind, in.inst, link, router)
			}
		}
	}
}

// parityDigest runs one configuration through the arena with a flight
// recorder attached and hashes its output (see digestRun).
func parityDigest(t *testing.T, arena *Arena, rec *obs.FlightRecorder, inst *core.Instance, link parityLink, router Router) string {
	t.Helper()
	cfg := link.build(inst.M, inst.Tasks[inst.N()-1].Release)
	cfg.Probe = obs.Multi(rec)
	rec.Reset()
	s, em, err := arena.Run(inst, router, cfg)
	return digestRun(t, rec, s, em, err)
}

// digestRun hashes a run's schedule, every ElasticMetrics field but the
// input (digestSkip), the run's maximum and mean stretch, and the full probe
// event stream the flight recorder kept (or the run's error).
func digestRun(t *testing.T, rec *obs.FlightRecorder, s *core.Schedule, em *ElasticMetrics, err error) string {
	t.Helper()
	d := newDigester()
	if err != nil {
		d.str(err.Error())
		return d.sum()
	}
	if rec.Dropped() > 0 {
		t.Fatalf("flight recorder overflowed (%d events dropped): grow its ring", rec.Dropped())
	}
	d.value(reflect.ValueOf(s.Machine))
	d.value(reflect.ValueOf(s.Start))
	d.value(reflect.ValueOf(*em))
	d.f64(em.MaxStretch())
	d.f64(em.MeanStretch())
	d.value(reflect.ValueOf(rec.Events()))
	return d.sum()
}

func readParityDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(parityDigestFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update-parity)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", parityDigestFile, line)
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestEngineParityDigests proves engine refactors byte-identical: for every
// configuration of the matrix (integer and real releases, 17 link settings
// from the bare engine to all links at once, seven routers) the schedule,
// all metrics and the probe event stream must hash to the digest recorded in
// testdata. One arena serves every run, as in production batch loops.
func TestEngineParityDigests(t *testing.T) {
	arena := NewArena()
	rec := obs.NewFlightRecorder(1 << 16)
	got := map[string]string{}
	var names []string
	parityRuns(func(name string, inst *core.Instance, link parityLink, router Router) {
		got[name] = parityDigest(t, arena, rec, inst, link, router)
		names = append(names, name)
	})
	if *updateParity {
		var b strings.Builder
		b.WriteString("# Unified-engine parity digests (TestEngineParityDigests): the first 8 bytes\n")
		b.WriteString("# of SHA-256 over schedule, ElasticMetrics and flight-recorder events.\n")
		b.WriteString("# Regenerate only for an intended behaviour change:\n")
		b.WriteString("#   go test ./internal/sim -run TestEngineParityDigests -update-parity\n")
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(parityDigestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(names), parityDigestFile)
		return
	}
	want := readParityDigests(t)
	var bad []string
	for _, name := range names {
		if w, ok := want[name]; !ok {
			bad = append(bad, name+" (no recorded digest)")
		} else if w != got[name] {
			bad = append(bad, name)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			bad = append(bad, name+" (recorded but no longer run)")
		}
	}
	if total := len(bad); total > 0 {
		sort.Strings(bad)
		if total > 20 {
			bad = append(bad[:20], "…")
		}
		t.Fatalf("%d of %d configurations diverge from %s:\n  %s",
			total, len(names), parityDigestFile, strings.Join(bad, "\n  "))
	}
}
