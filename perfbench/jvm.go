package main

import (
	"fmt"
	"math/rand"
	"time"

	"laminar"
	"laminar/internal/dacapo"
	"laminar/internal/jvm"
)

// jvm drives the MiniJVM interpreter over the internal/dacapo mixes,
// compiled with static barriers and the redundant-barrier elimination
// pass; each request is one Machine.Call("run", n). It is the only
// workload for the jvm layer, whose barrier overhead is a suspect.
//
// Mixes that read fields more than they write, allocate or move array
// elements are reads; the rest are writes. A small region program adds
// the other classes: a declassify request loops over a labeled array in a
// region at S={t} holding t−, then enters a nested region that drops t
// and publishes to a static; a deny request stores its labeled result to
// a static from a region without t−, which the static-write barrier
// refuses and the region's catch absorbs. n is calibrated per program so every
// request runs about jvmTarget instructions, keeping each class's
// latency one cluster.
const (
	jvmTarget = 20000
	jvmJitter = 64 // n varies over base..base+jvmJitter-1, seeded
	jvmTag    = laminar.Tag(7)
)

type jvmProg struct {
	name   string
	cls    class
	entry  string
	mc     *jvm.Machine
	th     *jvm.Thread
	base   int
	expect [jvmJitter]int64 // BarrierNone reference result per jitter
}

type jvmWL struct {
	progs   []*jvmProg // dacapo mixes, then declass, then leak
	reads   []int
	writes  []int
	declass *jvmProg
	leak    *jvmProg
	rng     *rand.Rand
	tr      *tracer
}

var jvmOpts = jvm.CompileOptions{Mode: jvm.BarrierStatic, Optimize: true}

func newJVM(seed int64, tr *tracer) (workload, error) {
	sp := tr.begin("setup.build")
	defer tr.end(sp)
	w := &jvmWL{rng: rand.New(rand.NewSource(seed)), tr: tr}
	for _, m := range dacapo.Workloads {
		m := m
		cls := write
		if m.FieldRead >= m.FieldWrite+m.Alloc+m.ArrayOps {
			cls = read
		}
		p, err := w.load(m.Name, cls, "run", func() (*jvm.Program, error) { return dacapo.Build(m) })
		if err != nil {
			return nil, err
		}
		if cls == read {
			w.reads = append(w.reads, len(w.progs))
		} else {
			w.writes = append(w.writes, len(w.progs))
		}
		w.progs = append(w.progs, p)
	}
	var err error
	if w.declass, err = w.load("declass", declassify, "declass", regionProgram); err != nil {
		return nil, err
	}
	if w.leak, err = w.load("leak", deny, "leak", regionProgram); err != nil {
		return nil, err
	}
	return w, nil
}

// load builds a program twice, the measured machine and a BarrierNone
// reference. The measured machine's first call compiles it; n is then
// calibrated from its instruction counts (barriers included), and the
// reference records the result for every jittered n.
func (w *jvmWL) load(name string, cls class, entry string, build func() (*jvm.Program, error)) (*jvmProg, error) {
	p := &jvmProg{name: name, cls: cls, entry: entry}
	var err error
	if p.mc, err = newMachine(build, jvmOpts); err != nil {
		return nil, fmt.Errorf("jvm %s: %w", name, err)
	}
	p.th = p.mc.NewThread()
	instrs := func(n int) (uint64, error) {
		before := p.mc.Stats().Instructions
		_, err := p.mc.Call(p.th, entry, jvm.IntV(int64(n)))
		return p.mc.Stats().Instructions - before, err
	}
	sp := w.tr.begin("jvm.compile")
	one, err := instrs(1)
	w.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("jvm %s first call: %w", name, err)
	}
	two, err := instrs(2)
	if err != nil {
		return nil, fmt.Errorf("jvm %s: %w", name, err)
	}
	perIter := int(two - one)
	if perIter <= 0 {
		return nil, fmt.Errorf("jvm %s: no per-iteration work", name)
	}
	p.base = max(1, (jvmTarget-int(one))/perIter)
	ref, err := newMachine(build, jvm.CompileOptions{Mode: jvm.BarrierNone})
	if err != nil {
		return nil, fmt.Errorf("jvm %s reference: %w", name, err)
	}
	rth := ref.NewThread()
	for j := range p.expect {
		v, err := ref.Call(rth, entry, jvm.IntV(int64(p.base+j)))
		if err != nil {
			return nil, fmt.Errorf("jvm %s reference: %w", name, err)
		}
		p.expect[j] = v.Int()
	}
	return p, nil
}

func newMachine(build func() (*jvm.Program, error), opts jvm.CompileOptions) (*jvm.Machine, error) {
	prog, err := build()
	if err != nil {
		return nil, err
	}
	return jvm.NewMachine(prog, opts)
}

// regionProgram builds the declassify and deny programs. MiniJVM has no
// copy-and-label, and a region method may only dereference its
// parameters, so the host passes n in an unlabeled box. Statics: 0 is
// what the declassify request publishes, 1 the static the deny request
// must not reach.
func regionProgram() (*jvm.Program, error) {
	p := jvm.NewProgram(2)
	minus := laminar.NewCapSet(laminar.EmptyLabel, laminar.NewLabel(jvmTag))

	// publish(box): nested region that drops t (it needs t−) and
	// publishes box.f0+1 to static 0.
	publish := &jvm.Method{Name: "publish", NArgs: 1, NLocal: 1, Secure: &jvm.SecureInfo{Caps: minus}}
	p.Add(publish)
	publish.Code = jvm.NewAsm().Load(0).GetField(0).Const(1).Op(jvm.OpAdd).
		Emit(jvm.OpPutStatic, 0).Op(jvm.OpReturn).MustBuild()

	// labeledLoop runs box.f0 iterations over a 16-slot array the region
	// allocates (so it carries S={t}), folding it into local 3.
	labeledLoop := func() *jvm.Asm {
		a := jvm.NewAsm()
		a.Load(0).GetField(0).Store(2)
		a.Const(16).Emit(jvm.OpNewArray, 0).Store(1)
		a.Const(0).Store(3)
		a.Label("loop")
		a.Load(2).Const(0).Op(jvm.OpCmpLE).JmpIf("done")
		a.Load(2).Const(1).Op(jvm.OpSub).Store(2)
		a.Load(1).Load(2).Const(16).Op(jvm.OpMod).Load(3).Load(2).Op(jvm.OpAdd).Op(jvm.OpAStore)
		a.Load(3).Const(31).Op(jvm.OpMul)
		a.Load(1).Load(2).Const(7).Op(jvm.OpMul).Const(16).Op(jvm.OpMod).Op(jvm.OpALoad)
		a.Op(jvm.OpAdd).Store(3)
		a.Jmp("loop")
		a.Label("done")
		return a
	}
	secret := laminar.Labels{S: laminar.NewLabel(jvmTag)}

	// sum(box): region at S={t} holding t−, which lets it enter publish.
	sum := &jvm.Method{Name: "sum", NArgs: 1, NLocal: 4, Secure: &jvm.SecureInfo{Labels: secret, Caps: minus}}
	p.Add(sum)
	code, err := labeledLoop().Load(0).Invoke(publish).Op(jvm.OpReturn).Build()
	if err != nil {
		return nil, err
	}
	sum.Code = code

	// spill(box): region at S={t} without t−; storing its result to a
	// static is an illegal flow, refused by the static-write barrier.
	spill := &jvm.Method{Name: "spill", NArgs: 1, NLocal: 4, Secure: &jvm.SecureInfo{Labels: secret,
		Catch: jvm.NewAsm().Op(jvm.OpReturn).MustBuild()}}
	p.Add(spill)
	if code, err = labeledLoop().Load(3).Emit(jvm.OpPutStatic, 1).Op(jvm.OpReturn).Build(); err != nil {
		return nil, err
	}
	spill.Code = code

	host := func(name string, region *jvm.Method, static int) {
		m := &jvm.Method{Name: name, NArgs: 1, NLocal: 2}
		p.Add(m)
		m.Code = jvm.NewAsm().New(1).Store(1).Load(1).Load(0).PutField(0).
			Load(1).Invoke(region).Emit(jvm.OpGetStatic, int32(static)).Op(jvm.OpReturnVal).MustBuild()
	}
	host("declass", sum, 0)
	host("leak", spill, 1)
	return p, nil
}

func (w *jvmWL) prime(rec *recorder) {
	w.call(rec, w.progs[w.reads[0]])
	w.call(rec, w.progs[w.writes[0]])
	w.call(rec, w.declass)
	w.call(rec, w.leak)
}

func (w *jvmWL) step(rec *recorder) {
	r := w.rng.Intn(100)
	switch {
	case r < 45:
		w.call(rec, w.progs[w.reads[w.rng.Intn(len(w.reads))]])
	case r < 80:
		w.call(rec, w.progs[w.writes[w.rng.Intn(len(w.writes))]])
	case r < 90:
		w.call(rec, w.declass)
	default:
		w.call(rec, w.leak)
	}
}

func (w *jvmWL) call(rec *recorder, p *jvmProg) {
	j := w.rng.Intn(jvmJitter)
	violations := p.mc.Stats().Violations
	req := w.tr.request()
	t0 := time.Now()
	sp := w.tr.begin("jvm.Call")
	v, err := p.mc.Call(p.th, p.entry, jvm.IntV(int64(p.base+j)))
	w.tr.end(sp)
	d := time.Since(t0)
	w.tr.end(req)
	if err != nil {
		rec.fail("jvm "+p.name, err)
		return
	}
	rec.done(p.cls, d)
	if p.cls == deny {
		// Refused: exactly one violation, absorbed by the region's
		// catch, and the static never written.
		rec.checkInt("jvm leak violations", int(p.mc.Stats().Violations-violations), 1)
		rec.checkInt("jvm leaked static", int(v.Int()), 0)
		return
	}
	rec.checkInt("jvm "+p.name+" checksum", int(v.Int()), int(p.expect[j]))
}

func (w *jvmWL) finish(rec *recorder) {}

func (w *jvmWL) counters() layerCounters {
	var c layerCounters
	for _, p := range append([]*jvmProg{w.declass, w.leak}, w.progs...) {
		st := p.mc.Stats()
		c.jvmInstructions += st.Instructions
		c.jvmBarriers += st.BarrierChecks
	}
	return c
}

func (w *jvmWL) close() {}
