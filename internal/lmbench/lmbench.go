// Package lmbench reimplements the lmbench microbenchmarks of Table 2
// against the simulated kernel: each benchmark times one syscall pattern
// with the Laminar security module installed and again on the bare kernel,
// reporting the per-operation latency and the module's relative overhead.
// Absolute times are properties of the simulation, but the *ratio* —
// which operations pay for hooks, and that a trivial syscall (null I/O)
// pays the most relatively — is the Table 2 result being reproduced.
package lmbench

import (
	"fmt"
	"sort"
	"time"

	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
)

// Benchmark is one lmbench microbenchmark.
type Benchmark struct {
	Name string
	// Setup prepares kernel state and returns the per-iteration body.
	Setup func(k *kernel.Kernel, t *kernel.Task) (func() error, error)
}

// Result is one row of Table 2.
type Result struct {
	Name         string
	BaseNanos    float64 // per-op, unmodified kernel
	LaminarNanos float64 // per-op, Laminar module installed (see Run)
}

// OverheadPct returns the relative overhead in percent.
func (r Result) OverheadPct() float64 {
	if r.BaseNanos == 0 {
		return 0
	}
	return (r.LaminarNanos - r.BaseNanos) / r.BaseNanos * 100
}

// String formats the row like the paper's table (microseconds).
func (r Result) String() string {
	return fmt.Sprintf("%-16s %10.3f %10.3f %8.1f%%",
		r.Name, r.BaseNanos/1000, r.LaminarNanos/1000, r.OverheadPct())
}

// Suite returns the Table 2 benchmarks.
func Suite() []Benchmark {
	return []Benchmark{
		{Name: "stat", Setup: setupStat},
		{Name: "fork", Setup: setupFork},
		{Name: "exec", Setup: setupExec},
		{Name: "0k file create", Setup: setupCreate},
		{Name: "0k file delete", Setup: setupDelete},
		{Name: "mmap latency", Setup: setupMmap},
		{Name: "prot fault", Setup: setupProtFault},
		{Name: "null I/O", Setup: setupNullIO},
	}
}

func setupStat(k *kernel.Kernel, t *kernel.Task) (func() error, error) {
	fd, err := k.Open(t, "/tmp/statfile", kernel.OCreate|kernel.OWrite)
	if err != nil {
		return nil, err
	}
	k.Close(t, fd)
	return func() error {
		_, err := k.Stat(t, "/tmp/statfile")
		return err
	}, nil
}

func setupFork(k *kernel.Kernel, t *kernel.Task) (func() error, error) {
	return func() error {
		child, err := k.Fork(t, nil)
		if err != nil {
			return err
		}
		k.Exit(child)
		return nil
	}, nil
}

func setupExec(k *kernel.Kernel, t *kernel.Task) (func() error, error) {
	fd, err := k.Open(t, "/tmp/prog", kernel.OCreate|kernel.OWrite)
	if err != nil {
		return nil, err
	}
	if _, err := k.Write(t, fd, []byte("#!prog")); err != nil {
		return nil, err
	}
	k.Close(t, fd)
	return func() error {
		child, err := k.Fork(t, nil)
		if err != nil {
			return err
		}
		err = k.Exec(child, "/tmp/prog")
		k.Exit(child)
		return err
	}, nil
}

func setupCreate(k *kernel.Kernel, t *kernel.Task) (func() error, error) {
	// Pure create: zero-length files with unique names, as lat_fs does.
	n := 0
	return func() error {
		n++
		fd, err := k.Open(t, fmt.Sprintf("/tmp/c%d", n), kernel.OCreate|kernel.OWrite)
		if err != nil {
			return err
		}
		return k.Close(t, fd)
	}, nil
}

func setupDelete(k *kernel.Kernel, t *kernel.Task) (func() error, error) {
	// Create-then-unlink; the create cost is identical in both kernel
	// configurations' numerators, so the delta is dominated by unlink's
	// two extra permission hooks.
	n := 0
	return func() error {
		n++
		name := fmt.Sprintf("/tmp/d%d", n)
		fd, err := k.Open(t, name, kernel.OCreate|kernel.OWrite)
		if err != nil {
			return err
		}
		k.Close(t, fd)
		return k.Unlink(t, name)
	}, nil
}

func setupMmap(k *kernel.Kernel, t *kernel.Task) (func() error, error) {
	fd, err := k.Open(t, "/tmp/mapfile", kernel.OCreate|kernel.OWrite|kernel.ORead)
	if err != nil {
		return nil, err
	}
	if _, err := k.Write(t, fd, make([]byte, 16*kernel.PageSize)); err != nil {
		return nil, err
	}
	return func() error {
		addr, err := k.Mmap(t, 16*kernel.PageSize, kernel.ProtRead, fd)
		if err != nil {
			return err
		}
		return k.Munmap(t, addr)
	}, nil
}

func setupProtFault(k *kernel.Kernel, t *kernel.Task) (func() error, error) {
	fd, err := k.Open(t, "/tmp/pffile", kernel.OCreate|kernel.OWrite|kernel.ORead)
	if err != nil {
		return nil, err
	}
	if _, err := k.Write(t, fd, make([]byte, kernel.PageSize)); err != nil {
		return nil, err
	}
	addr, err := k.Mmap(t, kernel.PageSize, kernel.ProtRead|kernel.ProtWrite, fd)
	if err != nil {
		return nil, err
	}
	return func() error {
		if err := k.Mprotect(t, addr, kernel.ProtRead); err != nil {
			return err
		}
		if err := k.PageFault(t, addr, false); err != nil {
			return err
		}
		return k.Mprotect(t, addr, kernel.ProtRead|kernel.ProtWrite)
	}, nil
}

func setupNullIO(k *kernel.Kernel, t *kernel.Task) (func() error, error) {
	zfd, err := k.Open(t, "/dev/zero", kernel.ORead)
	if err != nil {
		return nil, err
	}
	nfd, err := k.Open(t, "/dev/null", kernel.OWrite)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 1)
	return func() error {
		if _, err := k.Read(t, zfd, buf); err != nil {
			return err
		}
		_, err := k.Write(t, nfd, buf)
		return err
	}, nil
}

// newKernel builds a kernel (with or without the Laminar module) and a
// task working in /tmp.
func newKernel(withLSM bool) (*kernel.Kernel, *kernel.Task, error) {
	var k *kernel.Kernel
	if withLSM {
		mod := lsm.New()
		k = kernel.New(kernel.WithSecurityModule(mod))
		mod.InstallSystemIntegrity(k)
	} else {
		k = kernel.New()
	}
	t, err := k.Spawn(k.InitTask(), nil)
	if err != nil {
		return nil, nil, err
	}
	if err := k.Chdir(t, "/tmp"); err != nil {
		return nil, nil, err
	}
	return k, t, nil
}

// pairBlock is the number of iterations timed on one kernel before
// switching to the other. A block of null I/O takes about 50 µs, far
// shorter than a scheduler time slice, so a host stall usually lands in
// one block and moves only that block pair's ratio.
const pairBlock = 100

// prepare builds a fresh kernel (with or without the Laminar module),
// sets the benchmark up on it and warms it up.
func prepare(b Benchmark, withLSM bool) (func() error, error) {
	k, t, err := newKernel(withLSM)
	if err != nil {
		return nil, err
	}
	body, err := b.Setup(k, t)
	if err != nil {
		return nil, err
	}
	_, err = timeRuns(body, 16)
	return body, err
}

// timeRuns runs body n times and returns the mean nanoseconds per run.
func timeRuns(body func() error, n int) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := body(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// Run executes the whole suite, returning one Result per benchmark. Each
// of trials builds a fresh bare and a fresh Laminar kernel and runs iters
// iterations (whole blocks only) on each, in alternating blocks of
// pairBlock iterations; every
// block pair is one paired trial yielding one laminar/base ratio, and the
// order within a pair alternates from pair to pair. The row reports the
// median base block latency and, as LaminarNanos, that base scaled by the
// median ratio, so OverheadPct is the median paired overhead. Pairing is
// what keeps the row steady: the host's speed drifts between windows (on
// a 2-core amd64 host bare null I/O read about 400 or about 600 ns from
// one fresh kernel to the next), and a minimum taken per side can set a
// fast bare window against a slow Laminar one, while a block pair sees
// both kernels at nearly the same moment.
func Run(iters, trials int) ([]Result, error) {
	block := max(1, min(iters, pairBlock))
	sides := [2]string{"base", "laminar"}
	order := [2][2]int{{0, 1}, {1, 0}}
	var out []Result
	for _, b := range Suite() {
		var bases, ratios []float64
		for trial := 0; trial < trials; trial++ {
			var bodies [2]func() error // [0] bare kernel, [1] Laminar
			for i := range bodies {
				var err error
				if bodies[i], err = prepare(b, i == 1); err != nil {
					return nil, fmt.Errorf("%s (%s): %w", b.Name, sides[i], err)
				}
			}
			for done := 0; done+block <= iters; done += block {
				var ns [2]float64
				for _, i := range order[len(ratios)%2] {
					var err error
					if ns[i], err = timeRuns(bodies[i], block); err != nil {
						return nil, fmt.Errorf("%s (%s): %w", b.Name, sides[i], err)
					}
				}
				bases = append(bases, ns[0])
				ratios = append(ratios, ns[1]/ns[0])
			}
		}
		res := Result{Name: b.Name, BaseNanos: median(bases)}
		res.LaminarNanos = res.BaseNanos * median(ratios)
		out = append(out, res)
	}
	return out, nil
}

// median returns the median of xs (the mean of the middle two for an even
// count, 0 for none), sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
