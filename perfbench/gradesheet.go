package main

import (
	"fmt"
	"math/rand"
	"time"

	"laminar"
	"laminar/internal/apps/gradesheet"
	"laminar/internal/budget"
	"laminar/internal/kernel"
)

// gradesheet drives the §7.1 grade server with the Table 4 principals,
// calling Server methods directly (no request-handling padding). Regions,
// barriers, difc checks and region-exit budget charges do almost all the
// work; there are no file syscalls and no network.
//
// Mix (per request): StudentRead 36% and TAReadColumn 12% are reads,
// TAWrite 30% is a write, ProfessorAverage 8% is a declassify, and
// cross-student reads 10% and cross-project writes 4% are denials. Column
// reads are a quarter of the reads and cross-project writes (whose refusal
// formats a TA's whole capability set) under a third of the denials, so
// each class's p50 and p90 sit inside one method's distribution rather
// than in the gap between two.
const (
	gsStudents = 128
	gsProjects = 256
	gsZipfS    = 1.1
)

type gradesheetWL struct {
	sys    *laminar.System
	srv    *gradesheet.Server
	ledger *budget.Ledger
	rng    *rand.Rand
	zipf   *rand.Zipf
	tr     *tracer
	// marks mirrors every cell: the value the benchmark last wrote.
	marks [][]int
}

func newGradesheet(seed int64, tr *tracer) (workload, error) {
	sp := tr.begin("setup.build")
	defer tr.end(sp)
	led := budget.New()
	sys := laminar.NewSystem(kernel.WithBudget(led))
	srv, err := gradesheet.New(sys, gsStudents, gsProjects)
	if err != nil {
		return nil, fmt.Errorf("gradesheet: %w", err)
	}
	// The server keeps its tags private; the professor's average region
	// names every student tag, so learn them from one audited average and
	// give each a limit the run can never exhaust.
	var tags []laminar.Tag
	srv.VM().SetAudit(func(e laminar.AuditEvent) {
		if e.Kind == laminar.EvRegionEnter && tags == nil {
			tags = e.Labels.S.Tags()
		}
	})
	if _, err := srv.ProfessorAverage(0); err != nil {
		return nil, fmt.Errorf("gradesheet: audited average: %w", err)
	}
	srv.VM().SetAudit(nil)
	if len(tags) != gsStudents {
		return nil, fmt.Errorf("gradesheet: audited %d student tags, want %d", len(tags), gsStudents)
	}
	for _, t := range tags {
		if err := led.SetLimit(t, 0, 1<<62); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	w := &gradesheetWL{sys: sys, srv: srv, ledger: led, rng: rng, tr: tr,
		zipf:  rand.NewZipf(rng, gsZipfS, 1, gsStudents-1),
		marks: make([][]int, gsStudents)}
	for i := range w.marks {
		w.marks[i] = make([]int, gsProjects)
	}
	return w, nil
}

func (w *gradesheetWL) prime(rec *recorder) {
	for _, op := range []int{0, 36, 48, 78, 86, 96} {
		w.request(rec, op)
	}
}

func (w *gradesheetWL) step(rec *recorder) { w.request(rec, w.rng.Intn(100)) }

func (w *gradesheetWL) request(rec *recorder, op int) {
	i := int(w.zipf.Uint64())
	j := w.rng.Intn(gsProjects)
	v := w.rng.Intn(1000)
	other := func(x, n int) int { return (x + 1 + w.rng.Intn(n-1)) % n }
	req := w.tr.request()
	defer w.tr.end(req)
	t0 := time.Now()
	switch {
	case op < 36:
		sp := w.tr.begin("apps.StudentRead")
		got, err := w.srv.StudentRead(i, i, j)
		w.tr.end(sp)
		if err != nil {
			rec.fail("StudentRead", err)
			return
		}
		rec.done(read, time.Since(t0))
		rec.checkInt("StudentRead", got, w.marks[i][j])
	case op < 48:
		sp := w.tr.begin("apps.TAReadColumn")
		col, err := w.srv.TAReadColumn(j, j)
		w.tr.end(sp)
		if err != nil {
			rec.fail("TAReadColumn", err)
			return
		}
		rec.done(read, time.Since(t0))
		sum, want := 0, 0
		for s := range col {
			sum += col[s]
			want += w.marks[s][j]
		}
		rec.checkInt("TAReadColumn sum", sum, want)
	case op < 78:
		sp := w.tr.begin("apps.TAWrite")
		err := w.srv.TAWrite(j, i, j, v)
		w.tr.end(sp)
		if err != nil {
			rec.fail("TAWrite", err)
			return
		}
		rec.done(write, time.Since(t0))
		w.marks[i][j] = v
	case op < 86:
		sp := w.tr.begin("apps.ProfessorAverage")
		avg, err := w.srv.ProfessorAverage(j)
		w.tr.end(sp)
		if err != nil {
			rec.fail("ProfessorAverage", err)
			return
		}
		rec.done(declassify, time.Since(t0))
		sum := 0
		for s := range w.marks {
			sum += w.marks[s][j]
		}
		rec.checkInt("ProfessorAverage", avg, sum/gsStudents)
	case op < 96:
		sp := w.tr.begin("apps.StudentRead")
		_, err := w.srv.StudentRead(other(i, gsStudents), i, j)
		w.tr.end(sp)
		rec.refused("cross-student read", err, time.Since(t0), gradesheet.ErrDenied)
	default:
		sp := w.tr.begin("apps.TAWrite")
		err := w.srv.TAWrite(other(j, gsProjects), i, j, v)
		w.tr.end(sp)
		rec.refused("cross-project write", err, time.Since(t0), gradesheet.ErrDenied)
	}
}

func (w *gradesheetWL) finish(rec *recorder) {
	// Every cell still holds the value last written: read each column
	// once through its TA.
	for j := 0; j < gsProjects; j++ {
		col, err := w.srv.TAReadColumn(j, j)
		if err != nil {
			rec.wrongf("final column %d: %v", j, err)
			continue
		}
		for i := range col {
			if col[i] != w.marks[i][j] {
				rec.wrongf("final cell (%d,%d) = %d, want %d", i, j, col[i], w.marks[i][j])
			}
		}
	}
}

func (w *gradesheetWL) counters() layerCounters {
	c := vmCounters(w.srv.VM())
	c.hooks = w.sys.Kernel().HookCalls()
	c.budgetSpent, c.exhaustedKeys = ledgerCounts(w.ledger)
	return c
}

func (w *gradesheetWL) close() {}
