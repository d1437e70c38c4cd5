package eval

import (
	"strings"
	"testing"
	"time"
)

func TestJVMOverheadShape(t *testing.T) {
	rep, err := JVMOverhead(400, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 10 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Shape assertions: both configurations cost something, and dynamic
	// costs more than static on average.
	if rep.GeoStatic <= 0 {
		t.Errorf("static overhead = %.1f%%, want > 0", rep.GeoStatic)
	}
	if rep.GeoDynamic <= rep.GeoStatic {
		t.Errorf("dynamic %.1f%% <= static %.1f%%", rep.GeoDynamic, rep.GeoStatic)
	}
	out := rep.Format()
	for _, want := range []string{"antlr", "pseudojbb", "average"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q", want)
		}
	}
}

func TestCompileTimeShape(t *testing.T) {
	rep, err := CompileTime(3)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CompileRow{}
	for _, row := range rep.Rows {
		byName[row.Config] = row
	}
	// Shape: both barrier configurations multiply compile time well past
	// the baseline (paper: static ≈ 2×, dynamic ≈ 3×; our single-pass
	// compiler reproduces the multiplication, with static's factor coming
	// from cloning and dynamic's from barrier-sequence expansion).
	if byName["static"].Ratio <= 1.3 {
		t.Errorf("static compile ratio = %.2f, want > 1.3", byName["static"].Ratio)
	}
	if byName["dynamic"].Ratio <= 1.3 {
		t.Errorf("dynamic compile ratio = %.2f, want > 1.3", byName["dynamic"].Ratio)
	}
	// Dynamic mode produces denser output per method variant.
	dynDensity := float64(byName["dynamic"].Instrs) / float64(1)
	statDensity := float64(byName["static"].Instrs) / float64(2)
	if dynDensity <= statDensity {
		t.Errorf("dynamic per-variant instrs %.0f <= static %.0f", dynDensity, statDensity)
	}
	if byName["static+opt"].Elided == 0 {
		t.Error("optimizing compile elided nothing")
	}
	if !strings.Contains(rep.Format(), "Compilation time") {
		t.Error("Format missing title")
	}
}

func TestTable2Shape(t *testing.T) {
	rep, err := Table2(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 8 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// The robust shape assertion: overheads stay in the single-digit band
	// the paper reports (allowing generous noise headroom in both
	// directions); exact per-row ordering is left to the recorded runs in
	// EXPERIMENTS.md because nanosecond deltas flutter under CI load.
	for _, r := range rep.Rows {
		if pct := r.OverheadPct(); pct < -25 || pct > 60 {
			t.Errorf("%s overhead = %.1f%%, outside sane band", r.Name, pct)
		}
	}
	if !strings.Contains(rep.Format(), "Table 2") {
		t.Error("Format missing title")
	}
}

func TestTable1Probes(t *testing.T) {
	rep, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.LaminarHeterogeneous {
		t.Error("Laminar heterogeneous-label probe failed")
	}
	if rep.FlumeHeterogeneous {
		t.Error("process-granularity monitor passed the heterogeneous probe")
	}
	if rep.PageGranularityPages < rep.ObjectCount {
		t.Errorf("page granularity pinned %d pages for %d distinct-label objects",
			rep.PageGranularityPages, rep.ObjectCount)
	}
	if !rep.LaminarFilesEnforced {
		t.Error("kernel did not enforce labels on files")
	}
	if !strings.Contains(rep.Format(), "Table 1") {
		t.Error("Format missing title")
	}
}

func TestFlumeCompareShape(t *testing.T) {
	rep, err := FlumeCompare(2000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LaminarPipeNs <= 0 || rep.FlumeIPCNs <= 0 {
		t.Fatalf("non-positive latencies: %+v", rep)
	}
	// The monitor-crossing model must put the ratio in the paper's
	// 4-35x direction (allow slack for noise). Under the race detector
	// the kernel's per-syscall fine-grained lock operations carry heavy
	// instrumentation overhead the single-lock monitor avoids, so only
	// the direction survives, not the magnitude.
	floor := 2.0
	if raceEnabled {
		floor = 1.1
	}
	if rep.Ratio < floor {
		t.Errorf("monitor/kernel ratio = %.2f, want >= %.1f", rep.Ratio, floor)
	}
	if !strings.Contains(rep.Format(), "ratio") {
		t.Error("Format missing ratio")
	}
}

func TestConcurrencyShape(t *testing.T) {
	// Small scale: the shape assertion is the acceptance criterion —
	// sharded locking must at least double io-storm throughput over the
	// big lock once several tasks issue device waits concurrently. Four
	// tasks keep each big-lock run (which serializes every modeled device
	// wait) well under a second. Each cpu-storm run lasts only a few
	// milliseconds, so one preemption by a concurrently running test
	// package can halve a single trial; the best of three trials per row
	// filters that noise out of both modes alike.
	rep, err := Concurrency(4, 1200, 3, 30*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 (2 storms × 3 procs × 2 modes)", len(rep.Rows))
	}
	if rep.HeadlineIO < 2.0 {
		t.Errorf("io-storm sharded/biglock speedup at GOMAXPROCS=8 = %.2fx, want >= 2x", rep.HeadlineIO)
	}
	// The cpu storm on however many cores exist must not regress badly:
	// fine-grained locking may cost a little on one core but not halve
	// throughput.
	for _, row := range rep.Rows {
		if row.Workload == "cpu" && row.Mode == "sharded" && row.SpeedupVsB < 0.5 {
			t.Errorf("cpu storm at procs=%d: sharded is %.2fx of biglock, want >= 0.5x", row.Procs, row.SpeedupVsB)
		}
	}
	out := rep.Format()
	for _, want := range []string{"headline", "sharded", "biglock"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q", want)
		}
	}
	if _, err := rep.JSON(); err != nil {
		t.Errorf("JSON render: %v", err)
	}
}

func TestAppsReport(t *testing.T) {
	rep, err := Apps(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Secured <= 0 || row.Unsecured <= 0 {
			t.Errorf("%s: non-positive times %v/%v", row.Name, row.Secured, row.Unsecured)
		}
		if row.Regions == 0 {
			t.Errorf("%s: no regions entered", row.Name)
		}
		if row.PctInSR <= 0 {
			t.Errorf("%s: no time in SR", row.Name)
		}
	}
	// Battleship spends far more of its time in regions than FreeCS
	// (54% vs <1% in the paper).
	var bship, chat float64
	for _, row := range rep.Rows {
		if row.Name == "Battleship" {
			bship = row.PctInSR
		}
		if row.Name == "FreeCS" {
			chat = row.PctInSR
		}
	}
	if bship <= chat {
		t.Errorf("Battleship %%SR %.1f <= FreeCS %.1f", bship, chat)
	}
	if !strings.Contains(rep.Format(), "Figure 9") {
		t.Error("Format missing title")
	}
}

func TestRegionDensityShape(t *testing.T) {
	rep, err := RegionDensity(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// The all-inside point must cost more than the all-outside point:
	// region entry/exit and in-region checks dominate at high density,
	// while at 0% only the cheap outside barriers remain.
	lo, hi := rep.Rows[0], rep.Rows[len(rep.Rows)-1]
	if lo.PctInside != 0 || hi.PctInside != 100 {
		t.Fatalf("sweep endpoints = %d%%..%d%%", lo.PctInside, hi.PctInside)
	}
	if hi.Overhead <= lo.Overhead {
		t.Errorf("density curve flat or inverted: 0%% -> %.1f%%, 100%% -> %.1f%%",
			lo.Overhead, hi.Overhead)
	}
	if !strings.Contains(rep.Format(), "inside-50%") {
		t.Error("Format missing sweep point")
	}
}

func TestTable4Format(t *testing.T) {
	out := Table4(16, 8).Format()
	for _, want := range []string{"GradeCell", "Student", "TA", "Professor"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 missing %q", want)
		}
	}
}

func TestAblations(t *testing.T) {
	rep, err := Ablations(3000, 20)
	if err != nil {
		t.Fatal(err)
	}
	// The deterministic quantity: lazy issues zero label syscalls on
	// syscall-free regions, eager issues two per region.
	if rep.LazySyncs != 0 {
		t.Errorf("lazy syncs = %d, want 0", rep.LazySyncs)
	}
	if rep.EagerSyncs != 2*3000 {
		t.Errorf("eager syncs = %d, want %d", rep.EagerSyncs, 2*3000)
	}
	if rep.OptimizedChecks >= rep.UnoptimizedChecks {
		t.Errorf("optimization did not reduce checks: %d >= %d",
			rep.OptimizedChecks, rep.UnoptimizedChecks)
	}
	if !strings.Contains(rep.Format(), "Ablation") {
		t.Error("Format missing title")
	}
}

func TestUnitCosts(t *testing.T) {
	u, err := MeasureUnitCosts()
	if err != nil {
		t.Fatal(err)
	}
	if u.RegionNs <= 0 {
		t.Errorf("region cost = %v", u.RegionNs)
	}
}

func TestWikiCompare(t *testing.T) {
	rep, err := WikiCompare(400)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LaminarRegions == 0 {
		t.Error("laminar wiki entered no regions")
	}
	// The monitor pays at least four round trips per private request
	// (3 of every 4 requests are private).
	if rep.SyscallsPerReq < 3 {
		t.Errorf("monitor syscalls per request = %.1f, want >= 3", rep.SyscallsPerReq)
	}
	if !strings.Contains(rep.Format(), "monitor round trips") {
		t.Error("Format missing syscall count")
	}
}
