package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"laminar"
	"laminar/internal/budget"
	"laminar/internal/difc"
)

// tracer records spans in memory around the calls the benchmark makes into
// each layer. Off, begin costs one branch and reads no clock. Nothing
// shorter than about a microsecond is timed: barriers, flow checks and
// budget charges are counted by the layers' own counters instead.
type tracer struct {
	on    bool
	base  time.Time
	spans []span
	open  []int32
	req   int32
}

type span struct {
	Name   string `json:"name"`
	Req    int32  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Req: t.req, Parent: parent, Start: int64(time.Since(t.base))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.base))
	t.open = t.open[:len(t.open)-1]
}

// request opens the root span of a new request.
func (t *tracer) request() int32 {
	if !t.on {
		return -1
	}
	t.req++
	return t.begin("request")
}

// record adds a finished root span that began at start, for work that
// cannot nest: requests that overlap (netrpc's window), or a set-up phase
// whose inner calls are not traced.
func (t *tracer) record(name string, start time.Time) {
	if !t.on {
		return
	}
	if name == "request" {
		t.req++
	}
	t.spans = append(t.spans, span{Name: name, Req: t.req, Parent: -1,
		Start: int64(start.Sub(t.base)), End: int64(time.Since(t.base))})
}

// selfTimes fills each span's self time: its duration minus the time its
// children cover (children never overlap: one client goroutine).
func (t *tracer) selfTimes() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerCounters are the program's own counters, read before and after
// the traced run.
type layerCounters struct {
	regions, barriers, labelSyncs uint64
	regionNanos                   int64
	hooks                         uint64
	syscalls                      uint64 // issued by the benchmark
	budgetSpent                   uint64
	exhaustedKeys                 int
	ticks, idleTicks              uint64 // issued by the benchmark
	jvmInstructions, jvmBarriers  uint64
}

// tracedRequests fixes the traced run's length per workload, so that its
// counts repeat exactly for a seed on the deterministic workloads.
var tracedRequests = map[string]int{
	"gradesheet": 60000,
	"fileio":     40000,
	"netrpc":     6000,
	"jvm":        20000,
}

// networkMetrics are the per-layer metrics only netrpc exercises; the
// other workloads leave them out, as BENCHMARK.json does.
var networkMetrics = []string{
	"kernel.send_us_p50", "kernel.recv_us_p50",
	"cluster.ticks_per_op", "cluster.idle_tick_share", "cluster.tick_us_p50",
	"cluster.tick_busy_share", "cluster.join_s",
}

// tracedBlock is the interleaving unit: blocks alternate untraced and
// traced so host drift hits both sides of trace.overhead_ratio alike.
const tracedBlock = 250

// runTraced boots with spans on, then runs a fixed number of requests in
// alternating untraced and traced blocks and reports per-layer metrics.
func runTraced(name string, build builder, seed int64, spansOut string) (result, error) {
	rec := newRecorder(0)
	tr := &tracer{on: true, base: time.Now()}
	w, _, err := boot(build, seed, tr, rec)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	n := tracedRequests[name]
	bootSpans := len(tr.spans)

	difcBefore := readDifc()
	before := w.counters()
	var plainWall, tracedWall time.Duration
	var plainOps, tracedOps int
	var allocBytes, gcs uint64
	var ms runtime.MemStats
	start := rec.attempted
	for traced := false; rec.attempted-start < n; traced = !traced {
		tr.on = traced
		if !traced {
			runtime.ReadMemStats(&ms)
			allocBytes -= ms.TotalAlloc
			gcs -= uint64(ms.NumGC)
		}
		b0 := rec.attempted
		t0 := time.Now()
		for rec.attempted-b0 < tracedBlock {
			w.step(rec)
		}
		d := time.Since(t0)
		if traced {
			tracedWall += d
			tracedOps += rec.attempted - b0
		} else {
			plainWall += d
			plainOps += rec.attempted - b0
			runtime.ReadMemStats(&ms)
			allocBytes += ms.TotalAlloc
			gcs += uint64(ms.NumGC)
		}
	}
	tr.on = false
	after := w.counters()
	difcAfter := readDifc()
	w.finish(rec)

	tr.selfTimes()
	if spansOut != "" {
		if err := tr.write(spansOut); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
	}

	ops := float64(rec.attempted - start)
	per := func(a, b uint64) float64 { return float64(a-b) / ops }
	ratio := func(hits, total uint64) float64 {
		if total == 0 {
			return 0
		}
		return float64(hits) / float64(total)
	}
	durs := map[string][]time.Duration{}
	self := map[string][]time.Duration{}
	var kernelTime, tickTime time.Duration
	for _, s := range tr.spans[bootSpans:] {
		d := time.Duration(s.End - s.Start)
		durs[s.Name] = append(durs[s.Name], d)
		self[s.Name] = append(self[s.Name], time.Duration(s.Self))
		switch s.Name {
		case "kernel.open", "kernel.read", "kernel.write", "kernel.close", "kernel.send", "kernel.recv":
			kernelTime += d
		case "cluster.Tick":
			tickTime += d
		}
	}
	p50 := func(m map[string][]time.Duration, name string) float64 {
		v := m[name]
		if len(v) == 0 {
			return 0
		}
		sortDurations(v)
		return quantile(v, 0.5)
	}
	medianSeconds := func(name string) float64 {
		var xs []float64
		for _, s := range tr.spans[:bootSpans] {
			if s.Name == name {
				xs = append(xs, time.Duration(s.End-s.Start).Seconds())
			}
		}
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	share := func(part time.Duration, whole time.Duration) float64 {
		if whole <= 0 {
			return 0
		}
		return part.Seconds() / whole.Seconds()
	}
	flowLookups := difcAfter.flowHits + difcAfter.flowMisses - difcBefore.flowHits - difcBefore.flowMisses
	internTotal := difcAfter.internHits + difcAfter.internMisses - difcBefore.internHits - difcBefore.internMisses
	verdictTotal := difcAfter.verdictHits + difcAfter.verdictMisses - difcBefore.verdictHits - difcBefore.verdictMisses
	plainOpsF := float64(plainOps)
	overhead := 0.0
	if plainOps > 0 && tracedOps > 0 {
		overhead = (tracedWall.Seconds() / float64(tracedOps)) / (plainWall.Seconds() / plainOpsF)
	}

	count, us, s, ratioU := "count", "us", "s", "ratio"
	m := map[string]metric{
		"rt.regions_per_op":     {per(after.regions, before.regions), count},
		"rt.barriers_per_op":    {per(after.barriers, before.barriers), count},
		"rt.label_syncs_per_op": {per(after.labelSyncs, before.labelSyncs), count},
		"rt.in_region_share":    {share(time.Duration(after.regionNanos-before.regionNanos), plainWall+tracedWall), ratioU},
		"rt.secure_self_us_p50": {p50(self, "rt.Secure"), us},

		"difc.flowcache_lookups_per_op": {float64(flowLookups) / ops, count},
		"difc.flowcache_hit_ratio":      {ratio(difcAfter.flowHits-difcBefore.flowHits, flowLookups), ratioU},
		"difc.intern_hit_ratio":         {ratio(difcAfter.internHits-difcBefore.internHits, internTotal), ratioU},
		"difc.verdictcache_hit_ratio":   {ratio(difcAfter.verdictHits-difcBefore.verdictHits, verdictTotal), ratioU},
		"kernel.syscalls_per_op":        {per(after.syscalls, before.syscalls), count},
		"kernel.hooks_per_op":           {per(after.hooks, before.hooks), count},
		"kernel.open_us_p50":            {p50(durs, "kernel.open"), us},
		"kernel.read_us_p50":            {p50(durs, "kernel.read"), us},
		"kernel.write_us_p50":           {p50(durs, "kernel.write"), us},
		"kernel.close_us_p50":           {p50(durs, "kernel.close"), us},
		"kernel.send_us_p50":            {p50(durs, "kernel.send"), us},
		"kernel.recv_us_p50":            {p50(durs, "kernel.recv"), us},
		"kernel.busy_share":             {share(kernelTime, tracedWall), ratioU},
		"budget.units_charged_per_op":   {per(after.budgetSpent, before.budgetSpent), count},
		"budget.exhausted_keys":         {float64(after.exhaustedKeys), count},
		"cluster.ticks_per_op":          {per(after.ticks, before.ticks), count},
		"cluster.idle_tick_share":       {ratio(after.idleTicks-before.idleTicks, after.ticks-before.ticks), ratioU},
		"cluster.tick_us_p50":           {p50(durs, "cluster.Tick"), us},
		"cluster.tick_busy_share":       {share(tickTime, tracedWall), ratioU},
		"cluster.join_s":                {medianSeconds("cluster.join"), s},
		"jvm.instructions_per_op":       {per(after.jvmInstructions, before.jvmInstructions), count},
		"jvm.barrier_checks_per_op":     {per(after.jvmBarriers, before.jvmBarriers), count},
		"jvm.compile_s":                 {medianSeconds("jvm.compile"), s},
		"runtime.alloc_bytes_per_op":    {float64(allocBytes) / plainOpsF, "B"},
		"runtime.gc_per_kop":            {float64(gcs) / plainOpsF * 1000, count},
		"setup.build_s":                 {medianSeconds("setup.build"), s},
		"trace.overhead_ratio":          {overhead, ratioU},
	}
	if name != "netrpc" {
		for _, k := range networkMetrics {
			delete(m, k)
		}
	}
	return result{correct: rec.correct(), attempted: rec.attempted, failed: rec.failed,
		samples: map[string]int{"traced_ops": tracedOps, "untraced_ops": plainOps}, metrics: m}, nil
}

type difcCounters struct {
	flowHits, flowMisses       uint64
	internHits, internMisses   uint64
	verdictHits, verdictMisses uint64
}

func readDifc() difcCounters {
	var c difcCounters
	c.flowHits, c.flowMisses, _ = difc.FlowCacheStats()
	c.internHits, c.internMisses = difc.InternStats()
	c.verdictHits, c.verdictMisses, _ = difc.VerdictCacheStats()
	return c
}

// vmCounters reads the rt layer's counters.
func vmCounters(vm *laminar.VM) layerCounters {
	st := vm.Stats()
	return layerCounters{
		regions:     st.RegionsEntered.Load(),
		barriers:    st.ReadBarriers.Load() + st.WriteBarriers.Load() + st.AllocBarriers.Load(),
		labelSyncs:  st.LabelSyncs.Load(),
		regionNanos: st.RegionNanos.Load(),
	}
}

// ledgerCounts sums the units spent and counts exhausted keys.
func ledgerCounts(leds ...*budget.Ledger) (spent uint64, exhausted int) {
	for _, l := range leds {
		for _, f := range l.Snapshot() {
			spent += f.Spent
			if f.Exhausted() {
				exhausted++
			}
		}
	}
	return spent, exhausted
}
