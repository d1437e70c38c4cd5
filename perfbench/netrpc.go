package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"laminar"
	"laminar/internal/budget"
	"laminar/internal/cluster"
	"laminar/internal/kernel"
	"laminar/internal/telemetry"
)

// netrpc drives request/response traffic across a three-node in-process
// cluster on loopback. Request channels open on node 1 and are routed
// through the relay on node 2 to a server on node 3; each response
// channel is routed back from node 3 through node 2 to node 1. netlabel
// framing, the relay's per-hop re-checks, the socket hooks and the
// CostBytes budget charges do the work; rt and files are absent.
//
// A fixed window of nrPairs requests is in flight, one per channel pair
// (with one in flight, throughput spread three times wider). Plain pairs
// carry reads (64 B out, 1 KiB back: the value last written to a key; set-up
// writes every key once through the cluster),
// writes (1 KiB out, its first 64 B echoed back) and denials (opening a
// channel labeled with a tag the client holds no capability for, refused
// locally). Labeled pairs carry declassify requests over channels
// labeled S={t}, which every node's ledger charges per hop.
//
// The client loop ticks every node and yields with runtime.Gosched when a
// round moved nothing. It never sleeps: a sleeping client loop measures the
// timer, not the program.
const (
	nrPlainPairs   = 6
	nrLabeledPairs = 2
	nrPairs        = nrPlainPairs + nrLabeledPairs
	nrKeys         = 4096
	nrReadSize     = 64
	nrWriteSize    = 1024
	nrDeclassSize  = 512
	nrEchoSize     = 64
	nrHeader       = 9 // u32 length, u8 op, u32 key
	nrValueSize    = nrWriteSize - nrHeader
	nrDeadline     = 2 * time.Second
	nrSetupTimeout = 20 * time.Second
)

const (
	opHello byte = iota
	opRead
	opWrite
	opDeclassify
)

type nrNode struct {
	sys *laminar.System
	cl  *cluster.Cluster
	led *budget.Ledger
}

type nrPair struct {
	index          int
	labeled        bool
	client, server *kernel.Task
	reqFD, respFD  kernel.FD // node 1, in client
	srvIn, srvOut  kernel.FD // node 3, in server
	srvBuf         []byte

	busy   bool
	cls    class
	start  time.Time
	want   []byte // the expected response
	got    []byte
	key    int
	value  []byte // a write's value, applied to the shadow on completion
	broken bool
}

type netrpcWL struct {
	nodes    [3]*nrNode
	pairs    []*nrPair
	client   *kernel.Task // node 1, unlabeled
	clientL  *kernel.Task // node 1, at S={t}
	server   *kernel.Task // node 3, unlabeled
	serverL  *kernel.Task // node 3, at S={t}
	tagT     laminar.Tag
	denyTag  laminar.Tag
	rng      *rand.Rand
	tr       *tracer
	store    [nrKeys][]byte // the server's values, on node 3
	shadow   [nrKeys][]byte // the benchmark's copy: what it last wrote
	buf      []byte
	syscalls uint64
	ticks    uint64
	idle     uint64
}

func newNetRPC(seed int64, tr *tracer) (workload, error) {
	sp := tr.begin("setup.build")
	defer tr.end(sp)
	w := &netrpcWL{rng: rand.New(rand.NewSource(seed)), tr: tr, buf: make([]byte, 16*1024)}
	if err := w.boot(); err != nil {
		w.close()
		return nil, fmt.Errorf("netrpc: %w", err)
	}
	return w, nil
}

func (w *netrpcWL) boot() error {
	join := w.tr.begin("cluster.join")
	var seeds []string
	for i := range w.nodes {
		id := uint64(i + 1)
		led := budget.New()
		rec := telemetry.NewRecorder()
		sys := laminar.NewSystem(kernel.WithTelemetry(rec), kernel.WithBudget(led))
		cl := cluster.New(cluster.Config{ID: id, Kernel: sys.Kernel(), Module: sys.Module(),
			Recorder: rec, Seeds: seeds, Batching: true})
		w.nodes[i] = &nrNode{sys: sys, cl: cl, led: led}
		if err := cl.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		if _, err := cl.Join(); err != nil {
			return err
		}
		if i == 0 {
			seeds = []string{cl.Addr()}
		}
	}
	if err := w.until("cluster convergence", func() bool {
		for _, n := range w.nodes {
			if !n.cl.Joined() || !n.cl.Converged(1, 2, 3) {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	w.tr.end(join)

	var err error
	k1, k3 := w.nodes[0].sys.Kernel(), w.nodes[2].sys.Kernel()
	if w.client, err = k1.Spawn(k1.InitTask(), nil); err != nil {
		return err
	}
	if w.clientL, err = k1.Spawn(k1.InitTask(), nil); err != nil {
		return err
	}
	if w.server, err = k3.Spawn(k3.InitTask(), nil); err != nil {
		return err
	}
	if w.serverL, err = k3.Spawn(k3.InitTask(), nil); err != nil {
		return err
	}
	// t labels the declassify channels: clientL creates it and runs at
	// S={t}; node 3's labeled server is cleared for t by its TCB. The
	// deny tag belongs to clientL, so the plain client cannot use it.
	if w.tagT, err = k1.AllocTag(w.clientL); err != nil {
		return err
	}
	if w.denyTag, err = k1.AllocTag(w.clientL); err != nil {
		return err
	}
	labelsT := laminar.Labels{S: laminar.NewLabel(w.tagT)}
	if err := k1.SetTaskLabel(w.clientL, kernel.Secrecy, labelsT.S); err != nil {
		return err
	}
	w.nodes[2].sys.Module().AdoptTaskLabels(w.serverL, labelsT)
	for _, n := range w.nodes {
		for peer := uint64(1); peer <= 3; peer++ {
			if err := n.led.SetLimit(w.tagT, peer, 1<<62); err != nil {
				return err
			}
		}
	}

	for i := 0; i < nrPairs; i++ {
		p := &nrPair{index: i, labeled: i >= nrPlainPairs, client: w.client, server: w.server}
		labels := laminar.Labels{}
		if p.labeled {
			p.client, p.server, labels = w.clientL, w.serverL, labelsT
		}
		if err := w.connect(p, i, labels); err != nil {
			return fmt.Errorf("pair %d: %w", i, err)
		}
		w.pairs = append(w.pairs, p)
	}
	return nil
}

// connect opens the pair's request route (node 1 → 2 → 3) and response
// route (node 3 → 2 → 1). A routed open that lands while a hop briefly
// suspects the next one is dropped silently, so each attempt carries a
// numbered hello and only the channel that delivers it is kept.
func (w *netrpcWL) connect(p *nrPair, idx int, labels laminar.Labels) error {
	var err error
	p.reqFD, p.srvIn, err = w.route(w.nodes[0], p.client, w.nodes[2], p.server, 3, idx, labels)
	if err != nil {
		return fmt.Errorf("request route: %w", err)
	}
	p.srvOut, p.respFD, err = w.route(w.nodes[2], p.server, w.nodes[0], p.client, 1, idx, labels)
	if err != nil {
		return fmt.Errorf("response route: %w", err)
	}
	return nil
}

// route opens a channel from task from on src via node 2 to task to on
// dst (cluster id dstID) and returns the sending and accepted descriptors.
func (w *netrpcWL) route(src *nrNode, from *kernel.Task, dst *nrNode, to *kernel.Task,
	dstID uint64, idx int, labels laminar.Labels) (kernel.FD, kernel.FD, error) {
	ks, kd := src.sys.Kernel(), dst.sys.Kernel()
	type pending struct {
		fd  kernel.FD
		buf []byte
	}
	var accepted []*pending
	deadline := time.Now().Add(nrSetupTimeout)
	for attempt := 1; time.Now().Before(deadline); attempt++ {
		fd, err := src.cl.OpenVia(from, 2, dstID, labels)
		if err != nil {
			w.tickAll()
			runtime.Gosched()
			continue
		}
		hello := make([]byte, nrHeader)
		binary.BigEndian.PutUint32(hello, nrHeader)
		hello[4] = opHello
		binary.BigEndian.PutUint32(hello[5:], uint32(idx<<16|attempt))
		if _, err := ks.Send(from, fd, hello); err != nil {
			return -1, -1, fmt.Errorf("hello: %w", err)
		}
		for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
			if w.tickAll() == 0 {
				runtime.Gosched()
			}
			for {
				afd, _, err := dst.cl.Node().Accept(to)
				if err != nil {
					break
				}
				accepted = append(accepted, &pending{fd: afd})
			}
			for _, a := range accepted {
				if n, err := kd.Recv(to, a.fd, w.buf); err == nil {
					a.buf = append(a.buf, w.buf[:n]...)
				}
				if len(a.buf) >= nrHeader && a.buf[4] == opHello &&
					binary.BigEndian.Uint32(a.buf[5:]) == uint32(idx<<16|attempt) {
					return fd, a.fd, nil
				}
			}
		}
	}
	return -1, -1, errors.New("channel never delivered its hello")
}

// until ticks every node until done holds.
func (w *netrpcWL) until(what string, done func() bool) error {
	deadline := time.Now().Add(nrSetupTimeout)
	for !done() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s timed out", what)
		}
		if w.tickAll() == 0 {
			runtime.Gosched()
		}
	}
	return nil
}

// tickAll advances every node one logical step.
func (w *netrpcWL) tickAll() int {
	work := 0
	for _, n := range w.nodes {
		sp := w.tr.begin("cluster.Tick")
		moved := n.cl.Tick()
		w.tr.end(sp)
		w.ticks++
		if moved == 0 {
			w.idle++
		}
		work += moved
	}
	return work
}

// prime fills the server's store through the cluster, one write per key
// the plain pairs own with every plain pair in flight, then completes a
// request of each remaining class.
func (w *netrpcWL) prime(rec *recorder) {
	deadline := time.Now().Add(nrSetupTimeout)
	next := make([]int, nrPlainPairs)
	for time.Now().Before(deadline) {
		active := false
		for i, p := range w.pairs[:nrPlainPairs] {
			if p.busy {
				active = true
			} else if !p.broken && next[i] < nrKeys/nrPairs {
				w.issueKey(p, rec, opWrite, i+nrPairs*next[i])
				next[i]++
				active = true
			}
		}
		if !active {
			break
		}
		w.poll(rec)
	}
	w.issue(w.pairs[0], rec, opRead)
	w.issue(w.pairs[nrPlainPairs], rec, opDeclassify)
	w.denyRequest(rec)
	for w.inFlight() > 0 && time.Now().Before(deadline) {
		w.poll(rec)
	}
}

func (w *netrpcWL) inFlight() int {
	n := 0
	for _, p := range w.pairs {
		if p.busy {
			n++
		}
	}
	return n
}

func (w *netrpcWL) step(rec *recorder) {
	for _, p := range w.pairs {
		if p.busy || p.broken {
			continue
		}
		if p.labeled {
			w.issue(p, rec, opDeclassify)
			continue
		}
		// Plain pairs: reads 55%, writes 35%, denials 10%. A denial is
		// refused locally, so the pair draws again.
		for {
			r := w.rng.Intn(100)
			if r < 90 {
				op := opRead
				if r >= 55 {
					op = opWrite
				}
				w.issue(p, rec, op)
				break
			}
			w.denyRequest(rec)
		}
	}
	w.poll(rec)
}

// issue sends one request on an idle pair. Each pair owns the keys
// congruent to its index, so no two requests in flight share a key and
// every read's expectation is the value last written.
func (w *netrpcWL) issue(p *nrPair, rec *recorder, op byte) {
	w.issueKey(p, rec, op, p.index+nrPairs*w.rng.Intn(nrKeys/nrPairs))
}

func (w *netrpcWL) issueKey(p *nrPair, rec *recorder, op byte, key int) {
	var msg []byte
	switch op {
	case opRead:
		msg = make([]byte, nrReadSize)
		p.cls, p.want = read, nil
	case opWrite:
		msg = make([]byte, nrWriteSize)
		p.cls = write
	case opDeclassify:
		msg = make([]byte, nrDeclassSize)
		p.cls = declassify
	}
	w.rng.Read(msg[nrHeader:])
	binary.BigEndian.PutUint32(msg, uint32(len(msg)))
	msg[4] = op
	binary.BigEndian.PutUint32(msg[5:], uint32(key))
	switch op {
	case opRead:
		p.want = append(append([]byte(nil), msg[:nrHeader]...), w.shadow[key]...)
	case opWrite:
		p.want = msg[:nrEchoSize]
		p.value = msg[nrHeader:]
	case opDeclassify:
		p.want = msg
	}
	p.key, p.got, p.busy, p.start = key, p.got[:0], true, time.Now()
	sp := w.tr.begin("kernel.send")
	n, err := w.nodes[0].sys.Kernel().Send(p.client, p.reqFD, msg)
	w.tr.end(sp)
	w.syscalls++
	if err == nil && n != len(msg) {
		err = fmt.Errorf("short send %d/%d", n, len(msg))
	}
	if err != nil {
		p.busy, p.broken = false, true
		rec.fail("netrpc send", err)
	}
}

// denyRequest opens a channel to node 2 labeled with a tag the client
// holds no capability for; node 1's labeled-create check must refuse it.
// It opens through the transport, not the cluster's router, so that a
// hop the failure detector briefly suspects cannot answer first.
func (w *netrpcWL) denyRequest(rec *recorder) {
	req := w.tr.request()
	t0 := time.Now()
	fd, err := w.nodes[0].cl.Node().Open(w.client, w.nodes[1].cl.Addr(), laminar.Labels{S: laminar.NewLabel(w.denyTag)})
	d := time.Since(t0)
	w.tr.end(req)
	if err == nil {
		w.nodes[0].sys.Kernel().Close(w.client, fd)
	}
	rec.refused("channel open labeled with an unheld tag", err, d, kernel.ErrAccess, kernel.ErrPerm)
}

// poll runs one client round: tick every node, serve requests on node 3,
// collect responses on node 1.
func (w *netrpcWL) poll(rec *recorder) {
	moved := w.tickAll()
	k1, k3 := w.nodes[0].sys.Kernel(), w.nodes[2].sys.Kernel()
	for _, p := range w.pairs {
		if p.broken {
			continue
		}
		moved += w.serve(k3, p, rec)
		sp := w.tr.begin("kernel.recv")
		n, err := k1.Recv(p.client, p.respFD, w.buf)
		w.tr.end(sp)
		w.syscalls++
		if err != nil || n == 0 {
			if p.busy && time.Since(p.start) > nrDeadline {
				p.busy, p.broken = false, true
				rec.fail("netrpc request", fmt.Errorf("no response within %v: lost", nrDeadline))
			}
			continue
		}
		moved++
		if !p.busy {
			rec.wrongf("unsolicited %d response bytes", n)
			continue
		}
		p.got = append(p.got, w.buf[:n]...)
		if len(p.got) < len(p.want) {
			continue
		}
		p.busy = false
		rec.done(p.cls, time.Since(p.start))
		w.tr.record("request", p.start)
		rec.checkBytes("netrpc "+p.cls.String()+" response", p.got, p.want)
		if p.cls == write {
			w.shadow[p.key] = append(w.shadow[p.key][:0], p.value...)
		}
	}
	if moved == 0 {
		runtime.Gosched()
	}
}

// serve is node 3's server: it reads the pair's request stream and
// answers every complete request.
func (w *netrpcWL) serve(k3 *kernel.Kernel, p *nrPair, rec *recorder) int {
	sp := w.tr.begin("kernel.recv")
	n, err := k3.Recv(p.server, p.srvIn, w.buf)
	w.tr.end(sp)
	w.syscalls++
	if err != nil || n == 0 {
		return 0
	}
	p.srvBuf = append(p.srvBuf, w.buf[:n]...)
	for len(p.srvBuf) >= nrHeader {
		size := int(binary.BigEndian.Uint32(p.srvBuf))
		if len(p.srvBuf) < size {
			break
		}
		msg := p.srvBuf[:size]
		key := int(binary.BigEndian.Uint32(msg[5:])) % nrKeys
		var resp []byte
		switch msg[4] {
		case opRead:
			resp = append(append([]byte(nil), msg[:nrHeader]...), w.store[key]...)
		case opWrite:
			w.store[key] = append(w.store[key][:0], msg[nrHeader:]...)
			resp = append([]byte(nil), msg[:nrEchoSize]...)
		default:
			resp = append([]byte(nil), msg...)
		}
		p.srvBuf = append(p.srvBuf[:0], p.srvBuf[size:]...)
		sp := w.tr.begin("kernel.send")
		_, err := k3.Send(p.server, p.srvOut, resp)
		w.tr.end(sp)
		w.syscalls++
		if err != nil {
			rec.fail("netrpc server send", err)
		}
	}
	return 1
}

func (w *netrpcWL) finish(rec *recorder) {
	deadline := time.Now().Add(nrDeadline)
	for w.inFlight() > 0 && time.Now().Before(deadline) {
		w.poll(rec)
	}
	for key := range w.store {
		if w.shadow[key] != nil {
			rec.checkBytes(fmt.Sprintf("server value %d", key), w.store[key], w.shadow[key])
		}
	}
}

func (w *netrpcWL) counters() layerCounters {
	var c layerCounters
	for _, n := range w.nodes {
		c.hooks += n.sys.Kernel().HookCalls()
	}
	c.syscalls = w.syscalls
	c.budgetSpent, c.exhaustedKeys = ledgerCounts(w.nodes[0].led, w.nodes[1].led, w.nodes[2].led)
	c.ticks, c.idleTicks = w.ticks, w.idle
	return c
}

func (w *netrpcWL) close() {
	for _, n := range w.nodes {
		if n != nil {
			n.cl.Close()
		}
	}
}
