package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"time"
)

// class is a request class. Latency is reported per class, never across
// a mixed workload: on GradeSheet an overall p50 falls in the gap
// between classes.
type class int

const (
	read class = iota
	write
	declassify
	// deny is a request the policy must refuse; a refusal with the
	// expected error is a correct result.
	deny
	nClasses
)

func (c class) String() string {
	return [...]string{"read", "write", "declassify", "deny"}[c]
}

// recorder collects per-class latencies and result checks. attempted and
// failed count every request of the run (set-up, warm-up and measured);
// latencies only those of the measured window.
type recorder struct {
	lat       [nClasses][]time.Duration
	measuring bool
	attempted int
	failed    int
	wrong     int
	// checks numbers every expectation compared so far; when it reaches
	// corruptAt (the self-check) that one expectation is made wrong.
	checks    int
	corruptAt int
}

func newRecorder(corruptAt int) *recorder { return &recorder{corruptAt: corruptAt} }

func (r *recorder) startMeasuring() {
	r.measuring = true
	for c := range r.lat {
		r.lat[c] = r.lat[c][:0]
	}
}

// done records one completed request.
func (r *recorder) done(c class, d time.Duration) {
	r.attempted++
	if r.measuring {
		r.lat[c] = append(r.lat[c], d)
	}
}

// fail records a request that ended in an unexpected error or was lost.
func (r *recorder) fail(what string, err error) {
	r.attempted++
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: failed %s: %v\n", what, err)
	}
}

// mark is the recorder's progress at one instant of the measured window:
// requests completed and latencies recorded per class so far.
type mark struct {
	at   time.Time
	done int
	lat  [nClasses]int
}

func (r *recorder) mark(at time.Time) mark {
	m := mark{at: at}
	for c, l := range r.lat {
		m.lat[c] = len(l)
		m.done += len(l)
	}
	return m
}

func (r *recorder) correct() bool { return r.wrong == 0 }

func (r *recorder) wrongf(format string, args ...any) {
	r.wrong++
	if r.wrong <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: WRONG: "+format+"\n", args...)
	}
}

// arm reports whether the expectation being checked is the self-check's
// wrong one.
func (r *recorder) arm() bool {
	r.checks++
	return r.checks == r.corruptAt
}

func (r *recorder) checkInt(what string, got, want int) {
	if r.arm() {
		want++
	}
	if got != want {
		r.wrongf("%s: got %d, want %d", what, got, want)
	}
}

func (r *recorder) checkBytes(what string, got, want []byte) {
	if r.arm() {
		want = append([]byte{^want[0]}, want[1:]...)
	}
	if !bytes.Equal(got, want) {
		r.wrongf("%s: got %d bytes %x…, want %d bytes %x…", what, len(got), head(got), len(want), head(want))
	}
}

// refused records a deny request that took d: the policy must refuse it
// with one of the errors in want, and a refusal is a correct, completed
// request.
func (r *recorder) refused(what string, err error, d time.Duration, want ...error) {
	if err == nil {
		r.attempted++
		r.wrongf("%s was allowed", what)
		return
	}
	r.done(deny, d)
	if r.arm() {
		want = nil
	}
	for _, w := range want {
		if errors.Is(err, w) {
			return
		}
	}
	r.wrongf("%s: got %v, want a refusal among %v", what, err, want)
}

func head(b []byte) []byte {
	if len(b) > 8 {
		return b[:8]
	}
	return b
}
