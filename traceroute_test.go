package laminar_test

// End-to-end route reconstruction: a secrecy-labeled flow routed
// 1 → relay at 2 → 3 is denied at hop 2 (node 3's user task lacks the
// tag), and laminar-trace's ExplainRoute must rebuild the hop-by-hop
// path — from hop 2's dump ALONE (the denial self-explains) and from
// the merged three-node dump (every hop present, every recorded check
// re-run and MATCHING) — including after the relay is killed mid-run
// and restarted under a fresh incarnation epoch. The dumps go through
// a real serialize/parse round trip, so the v2 dump format (meta
// header, node identity, trace fields) is exercised, not just the
// in-memory events.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"laminar/internal/cluster"
	"laminar/internal/difc"
	"laminar/internal/kernel"
	"laminar/internal/kernel/lsm"
	"laminar/internal/telemetry"
)

// traceMember is one cluster member with verbose recording and tracing.
type traceMember struct {
	k    *kernel.Kernel
	rec  *telemetry.Recorder
	user *kernel.Task
	cl   *cluster.Cluster
}

func traceBoot(t *testing.T, id uint64, seeds []string, store cluster.Store) *traceMember {
	t.Helper()
	mod := lsm.New()
	rec := telemetry.NewRecorder()
	rec.SetLevel(telemetry.LevelAll)
	k := kernel.New(kernel.WithSecurityModule(mod), kernel.WithTelemetry(rec))
	mod.InstallSystemIntegrity(k)
	mod.SetTelemetry(rec)
	user, err := k.Spawn(k.InitTask(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(cluster.Config{
		ID: id, Kernel: k, Module: mod, Recorder: rec,
		Store: store, Seeds: seeds, Tracing: true,
	})
	if err := cl.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Join(); err != nil {
		t.Fatal(err)
	}
	return &traceMember{k: k, rec: rec, user: user, cl: cl}
}

func traceTickAll(members []*traceMember) {
	for _, m := range members {
		m.cl.Tick()
	}
	time.Sleep(200 * time.Microsecond)
}

func traceConverge(t *testing.T, members []*traceMember, what string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		traceTickAll(members)
		done := true
		for _, m := range members {
			if !m.cl.Joined() || !m.cl.Converged(1, 2, 3) {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never converged (%s)", what)
		}
	}
}

// traceDenyRouted establishes a routed secret channel 1 → 2 → 3 and
// drives the hop-2 denial, returning its trace id as seen at node 3.
func traceDenyRouted(t *testing.T, members []*traceMember, secret difc.Labels, seen map[uint64]bool) uint64 {
	t.Helper()
	n1, n3 := members[0], members[2]
	var fdC kernel.FD
	established := false
	deadline := time.Now().Add(20 * time.Second)
	for !established {
		if time.Now().After(deadline) {
			t.Fatal("routed labeled channel 1 -> relay at 2 -> 3 never established")
		}
		fd, oerr := n1.cl.OpenVia(n1.user, 2, 3, secret)
		if oerr != nil {
			traceTickAll(members)
			continue
		}
		if _, serr := n1.k.Send(n1.user, fd, []byte{0x5A}); serr != nil {
			t.Fatalf("routed probe send: %v", serr)
		}
		for i := 0; i < 400 && !established; i++ {
			traceTickAll(members)
			for {
				afd, labels, aerr := n3.cl.Node().Accept(n3.user)
				if aerr != nil {
					break
				}
				if !labels.S.IsEmpty() {
					fdC, established = afd, true
				}
			}
		}
	}
	if _, rerr := n3.k.Recv(n3.user, fdC, make([]byte, 64)); rerr == nil {
		t.Fatal("secret recv at node 3 allowed; want denial at hop 2")
	}
	var traceID uint64
	for _, e := range n3.rec.Snapshot() {
		if e.Kind == telemetry.KindDeny && e.TraceID != 0 && !seen[e.TraceID] {
			traceID = e.TraceID
		}
	}
	if traceID == 0 {
		t.Fatal("node 3 recorded no fresh traced denial")
	}
	seen[traceID] = true

	// Node 3 can accept the onward leg before the relay has pumped the
	// probe byte: the routed open and the data travel as separate frames.
	// Tick until the relay has forwarded it, so its read and write checks
	// are in node 2's ring before the caller dumps it.
	n2 := members[1]
	deadline = time.Now().Add(20 * time.Second)
	for relayed := false; !relayed; {
		if time.Now().After(deadline) {
			t.Fatal("relay at node 2 never forwarded the traced probe")
		}
		traceTickAll(members)
		for _, e := range n2.rec.Snapshot() {
			if e.TraceID == traceID && e.TraceHop == 1 && e.Kind == telemetry.KindAllow && e.Op == "write" {
				relayed = true
			}
		}
	}
	return traceID
}

// dumpRoundTrip serializes a recorder's ring with its v2 meta header
// and parses it back, returning the events the tooling would see.
func dumpRoundTrip(t *testing.T, rec *telemetry.Recorder) []telemetry.Event {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.DumpWithMeta(&buf); err != nil {
		t.Fatal(err)
	}
	meta, evs, err := telemetry.ReadDumpFull(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta == nil || meta.V != telemetry.DumpVersion {
		t.Fatalf("dump meta = %+v, want v%d header", meta, telemetry.DumpVersion)
	}
	return evs
}

// assertRoute checks a reconstructed route: denial at hop 2, the wanted
// hops present, and no replayable check diverging from its record.
func assertRoute(t *testing.T, rep telemetry.RouteReport, wantHops []uint8, what string) {
	t.Helper()
	if !rep.Denied || rep.DeniedHop != 2 {
		t.Fatalf("%s: denied=%v hop=%d, want denial at hop 2", what, rep.Denied, rep.DeniedHop)
	}
	hops := map[uint8]bool{}
	for _, h := range rep.Hops {
		hops[h.Hop] = true
		for _, c := range h.Checks {
			if c.Result.Replayable && !c.Result.Matches {
				t.Fatalf("%s: hop %d @ node %d replay DIVERGED: %s", what, h.Hop, h.Node, c.Result.Reason)
			}
		}
	}
	for _, hop := range wantHops {
		if !hops[hop] {
			t.Fatalf("%s: route is missing hop %d (hops %v)", what, hop, rep.Hops)
		}
	}
}

// TestTraceRouteExplain: the full satellite — hop-2 denial explained
// from hop 2's dump alone and from the merged dump, then again across
// a relay kill + restart with a bumped incarnation epoch.
func TestTraceRouteExplain(t *testing.T) {
	if testing.Short() {
		t.Skip("routed trace explain is long; skipped in -short")
	}
	store2 := cluster.NewMemStore()
	n1 := traceBoot(t, 1, nil, cluster.NewMemStore())
	defer n1.cl.Close()
	seeds := []string{n1.cl.Addr()}
	n2 := traceBoot(t, 2, seeds, store2)
	n3 := traceBoot(t, 3, seeds, cluster.NewMemStore())
	defer n3.cl.Close()
	members := []*traceMember{n1, n2, n3}
	traceConverge(t, members, "initial join")

	tag, err := n1.k.AllocTag(n1.user)
	if err != nil {
		t.Fatal(err)
	}
	secret := difc.Labels{S: difc.NewLabel(tag)}
	seen := map[uint64]bool{}
	traceID := traceDenyRouted(t, members, secret, seen)

	// Hop 2 self-explains from node 3's dump alone: the denial event
	// carries the full check, so the route tool needs no other node.
	evs3 := dumpRoundTrip(t, n3.rec)
	rep3, err := telemetry.ExplainRoute(traceID, evs3)
	if err != nil {
		t.Fatal(err)
	}
	assertRoute(t, rep3, []uint8{2}, "node-3-only route")

	// The merged dump reconstructs all three hops with MATCHES each.
	merged := append(append(dumpRoundTrip(t, n1.rec), dumpRoundTrip(t, n2.rec)...), evs3...)
	rep, err := telemetry.ExplainRoute(traceID, merged)
	if err != nil {
		t.Fatal(err)
	}
	assertRoute(t, rep, []uint8{0, 1, 2}, "merged route")
	relayEpoch := routeHopEpoch(t, rep, 1)

	// Kill the relay mid-run and restart the same member from its
	// persisted store: the epoch must bump, and a fresh traced flow
	// through the restarted relay must still explain end to end.
	oldEpoch := n2.cl.Epoch()
	n2.cl.Close()
	n2 = traceBoot(t, 2, seeds, store2)
	defer n2.cl.Close()
	if n2.cl.Epoch() <= oldEpoch {
		t.Fatalf("relay restart epoch %d, want > %d", n2.cl.Epoch(), oldEpoch)
	}
	members[1] = n2
	traceConverge(t, members, "after relay kill+restart")

	traceID2 := traceDenyRouted(t, members, secret, seen)
	merged2 := append(append(dumpRoundTrip(t, n1.rec), dumpRoundTrip(t, n2.rec)...), dumpRoundTrip(t, n3.rec)...)
	rep2, err := telemetry.ExplainRoute(traceID2, merged2)
	if err != nil {
		t.Fatal(err)
	}
	assertRoute(t, rep2, []uint8{0, 1, 2}, "post-restart merged route")
	if e := routeHopEpoch(t, rep2, 1); e != n2.cl.Epoch() {
		t.Fatalf("post-restart relay hop epoch = %d, want new incarnation %d (old %d)", e, n2.cl.Epoch(), relayEpoch)
	}
	if fmt.Sprint(telemetry.FormatRoute(rep2)) == "" {
		t.Fatal("FormatRoute rendered nothing")
	}
}

// routeHopEpoch returns the incarnation epoch recorded at one hop.
func routeHopEpoch(t *testing.T, rep telemetry.RouteReport, hop uint8) uint64 {
	t.Helper()
	for _, h := range rep.Hops {
		if h.Hop == hop {
			return h.NodeEpoch
		}
	}
	t.Fatalf("route has no hop %d", hop)
	return 0
}
