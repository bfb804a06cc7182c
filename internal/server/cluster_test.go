package server

import (
	"testing"
	"time"

	"repro/internal/uop"
)

// TestWorkerRejectsJSONDataPlane: router↔worker data travels only as bwire
// frames. A worker answers each JSON stand-in — a routed tuple, a replica
// copy, a close, and a part subscription from a peer that sent no hello —
// with "err", and none of them reaches the own slot, a replay tail, the
// close count, or the subscriber set. A peer that says hello first still
// subscribes.
func TestWorkerRejectsJSONDataPlane(t *testing.T) {
	plan, err := uop.BuildQ1(testQ1Config(0)).Cluster()
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{NewPlan: plan.CompileWorker, FlushEvery: 20 * time.Millisecond, Cluster: true})
	own, other := 0, 1
	ctl := dialServer(t, s)
	ctl.send(Msg{Kind: KindJoin, Shard: &own, Workers: 2, Replicas: 2})
	if m := ctl.recv(5 * time.Second); m.Kind != KindOK {
		t.Fatalf("join: got %+v", m)
	}

	routed := locMsgAt(1000, 1, 3, 4, 150)
	routed.Shard = &own
	replica := locMsgAt(1000, 2, 3, 4, 150)
	replica.Shard, replica.Replica = &other, true
	cases := []struct {
		name string
		msg  Msg
	}{
		{"routed tuple", routed},
		{"replica tuple", replica},
		{"close", Msg{Kind: "close", Source: "locations", T: 5000, Seq: 1}},
		{"sub without hello", Msg{Kind: KindSub}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := dialServer(t, s)
			c.send(tc.msg)
			if m := c.recv(5 * time.Second); m.Kind != KindErr {
				t.Fatalf("got %+v, want err", m)
			}
			st := s.Stats()
			if st.Ingested != 0 || st.Subscribers != 0 {
				t.Errorf("ingested %d, subscribers %d; want 0, 0", st.Ingested, st.Subscribers)
			}
			if cs := st.Cluster; cs.ReplicaLines != 0 || cs.Closes != 0 || cs.Tails[other] != 0 {
				t.Errorf("replica lines %d, closes %d, tail %d; want all 0", cs.ReplicaLines, cs.Closes, cs.Tails[other])
			}
		})
	}

	c := dialServer(t, s)
	c.sendFrames(EncodeBwHello())
	c.send(Msg{Kind: KindSub})
	if m := c.recv(5 * time.Second); m.Kind != KindOK {
		t.Fatalf("sub after hello: got %+v", m)
	}
	if n := s.Stats().Subscribers; n != 1 {
		t.Errorf("subscribers after hello = %d, want 1", n)
	}
}

// TestWorkerFencesStaleLinks: a reset fences every connection older than
// the one that sent it. What a superseded router's link still delivers
// afterwards — own-slot tuples, replica copies, closes, a JSON tuple, a
// checkpoint request — is answered with "err" and reaches neither the
// rewound epoch nor its tails; the resetting connection ingests as usual.
func TestWorkerFencesStaleLinks(t *testing.T) {
	plan, err := uop.BuildQ1(testQ1Config(0)).Cluster()
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{NewPlan: plan.CompileWorker, FlushEvery: 20 * time.Millisecond, Cluster: true})
	own, other := 0, 1
	link := func() *testClient {
		c := dialServer(t, s)
		c.sendFrames(EncodeBwHello())
		c.send(Msg{Kind: KindJoin, Shard: &own, Workers: 2, Replicas: 2})
		if m := c.recv(5 * time.Second); m.Kind != KindOK {
			t.Fatalf("join: got %+v", m)
		}
		return c
	}
	// One batcher per connection: its schema table is connection state, so
	// after the first frame a tuple of the same shape is one TUPLES frame.
	oldEnc, freshEnc := NewBwBatcher(), NewBwBatcher()
	tuples := func(b *BwBatcher, m Msg) []byte {
		if err := b.Add(m); err != nil {
			t.Fatal(err)
		}
		return b.Take()
	}
	routed := locMsgAt(1000, 1, 3, 4, 150)
	routed.Shard = &own
	replica := locMsgAt(1000, 2, 3, 4, 150)
	replica.Shard, replica.Replica = &other, true
	ingested := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.Stats().Ingested != want && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if got := s.Stats().Ingested; got != want {
			t.Fatalf("ingested %d, want %d", got, want)
		}
	}

	old := link()
	old.sendFrames(tuples(oldEnc, routed))
	ingested(1)

	fresh := link()
	fresh.send(Msg{Kind: KindReset, Data: (&ResetBlob{Own: &SlotBlob{Slot: own}}).Encode()})
	if m := fresh.recv(20 * time.Second); m.Kind != KindOK {
		t.Fatalf("reset: got %+v", m)
	}

	for _, tc := range []struct {
		name string
		send func()
	}{
		{"routed tuple", func() { old.sendFrames(tuples(oldEnc, routed)) }},
		{"replica tuple", func() { old.sendFrames(tuples(oldEnc, replica)) }},
		{"close", func() { old.sendFrames(EncodeBwClose("locations", 5000, 1)) }},
		{"json tuple", func() { old.send(locMsgAt(1000, 3, 3, 4, 150)) }},
		{"ckpt", func() { old.send(Msg{Kind: KindCkpt, Ckpt: 9}) }},
	} {
		tc.send()
		if m := old.recv(5 * time.Second); m.Kind != KindErr || m.Error != errStaleLink.Error() {
			t.Errorf("%s on the stale link: got %+v, want err %q", tc.name, m, errStaleLink)
		}
	}
	st := s.Stats()
	if st.Ingested != 1 || st.Cluster.ReplicaLines != 0 || st.Cluster.Closes != 0 || st.Cluster.Tails[other] != 0 {
		t.Errorf("after the stale sends: ingested %d, replica lines %d, closes %d, tail %d; want 1, 0, 0, 0",
			st.Ingested, st.Cluster.ReplicaLines, st.Cluster.Closes, st.Cluster.Tails[other])
	}

	fresh.sendFrames(tuples(freshEnc, routed))
	ingested(2)
}
