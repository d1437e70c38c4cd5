package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"time"

	"laminar"
	"laminar/internal/budget"
	"laminar/internal/kernel"
)

// fileio drives labeled file I/O: many principals, each with its own tag,
// a directory labeled with it, and files inside. Each request is one
// Secure region that opens, reads or truncate-writes, and closes. The
// kernel's syscalls and LSM hooks, the label syncs and the difc caches
// do the work; there are few barriers and no network.
//
// Mix: reads 45%, writes 35%, declassify 10% (digest a file, then copy
// the digest to the principal's public file from a nested region holding
// the minus capability), deny 10% (open another principal's file).
// Principals are drawn Zipf-skewed; each owns more files than the
// 128-slot per-task verdict cache holds.
const (
	fioPrincipals = 96
	fioFiles      = 160
	fioPayload    = 256
	fioZipfS      = 1.1
	fioHome       = "/home/perfbench"
)

type fileioWL struct {
	sys    *laminar.System
	vm     *laminar.VM
	main   *laminar.Thread
	ledger *budget.Ledger
	rng    *rand.Rand
	zipf   *rand.Zipf
	tr     *tracer

	tags     []laminar.Tag
	threads  []*laminar.Thread
	contents [][][]byte // what the benchmark last wrote to each file
	digests  []string   // what each public file must hold ("" = untouched)
	buf      []byte
	syscalls uint64
}

func filePath(p, f int) string {
	return fioHome + "/p" + strconv.Itoa(p) + "/f" + strconv.Itoa(f)
}

func pubPath(p int) string { return fioHome + "/pub/p" + strconv.Itoa(p) }

func newFileIO(seed int64, tr *tracer) (workload, error) {
	sp := tr.begin("setup.build")
	defer tr.end(sp)
	led := budget.New()
	sys := laminar.NewSystem(kernel.WithBudget(led))
	shell, err := sys.Login("perfbench")
	if err != nil {
		return nil, err
	}
	vm, main, err := sys.LaunchVM(shell)
	if err != nil {
		return nil, err
	}
	k := sys.Kernel()
	rng := rand.New(rand.NewSource(seed))
	w := &fileioWL{sys: sys, vm: vm, main: main, ledger: led, rng: rng, tr: tr,
		zipf:     rand.NewZipf(rng, fioZipfS, 1, fioPrincipals-1),
		contents: make([][][]byte, fioPrincipals),
		digests:  make([]string, fioPrincipals),
		buf:      make([]byte, 2*fioPayload)}
	if err := k.Mkdir(main.Task(), fioHome+"/pub", 0o755); err != nil {
		return nil, fmt.Errorf("fileio: mkdir pub: %w", err)
	}
	for p := 0; p < fioPrincipals; p++ {
		tag, err := main.CreateTag()
		if err != nil {
			return nil, err
		}
		if err := led.SetLimit(tag, 0, 1<<62); err != nil {
			return nil, err
		}
		labels := laminar.Labels{S: laminar.NewLabel(tag)}
		if err := k.MkdirLabeled(main.Task(), fioHome+"/p"+strconv.Itoa(p), 0o700, labels); err != nil {
			return nil, fmt.Errorf("fileio: mkdir principal %d: %w", p, err)
		}
		fd, err := k.Open(main.Task(), pubPath(p), kernel.OWrite|kernel.OCreate)
		if err != nil {
			return nil, fmt.Errorf("fileio: create public file %d: %w", p, err)
		}
		if err := k.Close(main.Task(), fd); err != nil {
			return nil, err
		}
		th, err := main.Fork([]laminar.Capability{{Tag: tag, Kind: laminar.CapBoth}})
		if err != nil {
			return nil, err
		}
		w.tags = append(w.tags, tag)
		w.threads = append(w.threads, th)
		// The principal creates its own files from inside its region, so
		// they take the region's labels.
		w.contents[p] = make([][]byte, fioFiles)
		var cerr error
		err = th.Secure(labels, laminar.EmptyCapSet, func(r *laminar.Region) {
			for f := 0; f < fioFiles && cerr == nil; f++ {
				data := w.payload()
				fd, err := r.OpenFile(filePath(p, f), kernel.OWrite|kernel.OCreate)
				if err != nil {
					cerr = err
					return
				}
				if _, err := r.WriteFile(fd, data); err != nil {
					cerr = err
				}
				if err := r.CloseFile(fd); err != nil && cerr == nil {
					cerr = err
				}
				w.contents[p][f] = data
			}
		}, nil)
		if err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("fileio: populate principal %d: %w", p, err)
		}
	}
	return w, nil
}

// payload draws a file body from the seeded stream.
func (w *fileioWL) payload() []byte {
	b := make([]byte, fioPayload)
	w.rng.Read(b)
	return b
}

func (w *fileioWL) prime(rec *recorder) {
	for _, op := range []int{0, 45, 80, 90} {
		w.request(rec, op)
	}
}

func (w *fileioWL) step(rec *recorder) { w.request(rec, w.rng.Intn(100)) }

func (w *fileioWL) request(rec *recorder, op int) {
	p := int(w.zipf.Uint64())
	f := w.rng.Intn(fioFiles)
	labels := laminar.Labels{S: laminar.NewLabel(w.tags[p])}
	th := w.threads[p]
	var data []byte
	if op >= 45 && op < 80 {
		data = w.payload()
	}
	req := w.tr.request()
	defer w.tr.end(req)
	t0 := time.Now()
	switch {
	case op < 45:
		var got []byte
		err := w.secure(th, labels, laminar.EmptyCapSet, func(r *laminar.Region) error {
			var err error
			got, err = w.readFile(r, filePath(p, f))
			return err
		})
		if err != nil {
			rec.fail("read", err)
			return
		}
		rec.done(read, time.Since(t0))
		rec.checkBytes("read "+filePath(p, f), got, w.contents[p][f])
	case op < 80:
		err := w.secure(th, labels, laminar.EmptyCapSet, func(r *laminar.Region) error {
			return w.writeFile(r, filePath(p, f), data)
		})
		if err != nil {
			rec.fail("write", err)
			return
		}
		rec.done(write, time.Since(t0))
		w.contents[p][f] = data
	case op < 90:
		minus := laminar.NewCapSet(laminar.EmptyLabel, labels.S)
		err := w.secure(th, labels, minus, func(r *laminar.Region) error {
			got, err := w.readFile(r, filePath(p, f))
			if err != nil {
				return err
			}
			h := fnv.New64a()
			h.Write(got)
			agg := r.Alloc(nil)
			r.Set(agg, "digest", strconv.FormatUint(h.Sum64(), 16))
			return w.secure(th, laminar.Labels{}, minus, func(r2 *laminar.Region) error {
				pub := r2.CopyAndLabel(agg, laminar.Labels{})
				return w.writeFile(r2, pubPath(p), []byte(r2.Get(pub, "digest").(string)))
			})
		})
		if err != nil {
			rec.fail("declassify", err)
			return
		}
		rec.done(declassify, time.Since(t0))
		h := fnv.New64a()
		h.Write(w.contents[p][f])
		w.digests[p] = strconv.FormatUint(h.Sum64(), 16)
	default:
		q := (p + 1 + w.rng.Intn(fioPrincipals-1)) % fioPrincipals
		var openErr error
		err := w.secure(th, labels, laminar.EmptyCapSet, func(r *laminar.Region) error {
			sp := w.tr.begin("kernel.open")
			fd, err := r.OpenFile(filePath(q, f), kernel.ORead)
			w.tr.end(sp)
			w.syscalls++
			if err == nil {
				w.syscalls++
				if err := r.CloseFile(fd); err != nil {
					return err
				}
			}
			openErr = err
			return nil
		})
		if err != nil {
			rec.fail("deny", err)
			return
		}
		rec.refused("cross-principal open", openErr, time.Since(t0), kernel.ErrNoEnt, kernel.ErrAccess)
	}
}

// secure runs body in a region and returns the body's error, or the
// region's own error (entry refused, or a violation the catch absorbed).
func (w *fileioWL) secure(th *laminar.Thread, labels laminar.Labels, caps laminar.CapSet, body func(*laminar.Region) error) error {
	sp := w.tr.begin("rt.Secure")
	defer w.tr.end(sp)
	var berr error
	err := th.Secure(labels, caps, func(r *laminar.Region) { berr = body(r) },
		func(r *laminar.Region, e any) { berr = fmt.Errorf("region violation: %v", e) })
	if err != nil {
		return err
	}
	return berr
}

func (w *fileioWL) readFile(r *laminar.Region, path string) ([]byte, error) {
	sp := w.tr.begin("kernel.open")
	fd, err := r.OpenFile(path, kernel.ORead)
	w.tr.end(sp)
	w.syscalls++
	if err != nil {
		return nil, err
	}
	sp = w.tr.begin("kernel.read")
	n, err := r.ReadFile(fd, w.buf)
	w.tr.end(sp)
	sp = w.tr.begin("kernel.close")
	cerr := r.CloseFile(fd)
	w.tr.end(sp)
	w.syscalls += 2
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), w.buf[:n]...), cerr
}

func (w *fileioWL) writeFile(r *laminar.Region, path string, data []byte) error {
	sp := w.tr.begin("kernel.open")
	fd, err := r.OpenFile(path, kernel.OWrite|kernel.OTrunc)
	w.tr.end(sp)
	w.syscalls++
	if err != nil {
		return err
	}
	sp = w.tr.begin("kernel.write")
	n, err := r.WriteFile(fd, data)
	w.tr.end(sp)
	sp = w.tr.begin("kernel.close")
	cerr := r.CloseFile(fd)
	w.tr.end(sp)
	w.syscalls += 2
	if err == nil && n != len(data) {
		err = fmt.Errorf("short write %d/%d", n, len(data))
	}
	if err != nil {
		return err
	}
	return cerr
}

func (w *fileioWL) finish(rec *recorder) {
	// Every public file holds the digest last declassified into it, read
	// back by the unlabeled main thread.
	k := w.sys.Kernel()
	for p, want := range w.digests {
		if want == "" {
			continue
		}
		fd, err := k.Open(w.main.Task(), pubPath(p), kernel.ORead)
		if err != nil {
			rec.wrongf("open %s: %v", pubPath(p), err)
			continue
		}
		n, err := k.Read(w.main.Task(), fd, w.buf)
		k.Close(w.main.Task(), fd)
		if err != nil {
			rec.wrongf("read %s: %v", pubPath(p), err)
			continue
		}
		rec.checkBytes("public digest "+pubPath(p), w.buf[:n], []byte(want))
	}
}

func (w *fileioWL) counters() layerCounters {
	c := vmCounters(w.vm)
	c.hooks = w.sys.Kernel().HookCalls()
	c.syscalls = w.syscalls
	c.budgetSpent, c.exhaustedKeys = ledgerCounts(w.ledger)
	return c
}

func (w *fileioWL) close() {}
