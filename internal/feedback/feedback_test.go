package feedback

import (
	"sync"
	"testing"

	"dace/internal/plan"
)

// testTree builds a minimal one-node plan whose fingerprint is unique per id.
func testTree(id int) *plan.Plan {
	return &plan.Plan{
		Database: "t",
		Root:     &plan.Node{Type: plan.SeqScan, EstRows: float64(10 + id), EstCost: float64(100 + id)},
	}
}

// testPlan is testTree as the store and the log take it.
func testPlan(id int) *plan.FlatPlan { return new(plan.FlatPlan).FromTree(testTree(id)) }

func TestStoreDedupsByFingerprint(t *testing.T) {
	s := NewStore(16, 1)
	p := testPlan(1)
	if !s.Add(Sample{Plan: p, ActualMS: 5}) {
		t.Fatal("first add rejected")
	}
	// Same fingerprint (fresh but identical plan): refresh in place.
	if !s.Add(Sample{Plan: testPlan(1), ActualMS: 9}) {
		t.Fatal("dedup refresh rejected")
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d samples, want 1", s.Len())
	}
	if got := s.Snapshot()[0].ActualMS; got != 9 {
		t.Fatalf("dedup kept stale latency %v, want 9", got)
	}
	if st := s.Stats(); st.Updated != 1 || st.Offered != 1 {
		t.Fatalf("stats %+v, want 1 update over 1 offered", st)
	}
}

func TestStoreRejectsInvalidSamples(t *testing.T) {
	s := NewStore(4, 1)
	for _, smp := range []Sample{
		{Plan: nil, ActualMS: 5},
		{Plan: testPlan(1), ActualMS: 0},
		{Plan: testPlan(2), ActualMS: -1},
		{Plan: new(plan.FlatPlan).FromTree(&plan.Plan{Database: "t"}), ActualMS: 5}, // no root
	} {
		if s.Add(smp) {
			t.Fatalf("invalid sample accepted: %+v", smp)
		}
	}
	if s.Len() != 0 {
		t.Fatal("invalid samples became resident")
	}
}

func TestStoreReservoirBoundsCapacity(t *testing.T) {
	const capacity, n = 8, 400
	s := NewStore(capacity, 7)
	kept := 0
	for i := 0; i < n; i++ {
		if s.Add(Sample{Plan: testPlan(i), ActualMS: float64(i + 1)}) {
			kept++
		}
	}
	if s.Len() != capacity {
		t.Fatalf("store holds %d, want capacity %d", s.Len(), capacity)
	}
	st := s.Stats()
	if st.Offered != n || st.Dropped == 0 {
		t.Fatalf("stats %+v: want %d offered and some reservoir drops", st, n)
	}
	// Residents are distinct plans.
	seen := map[plan.Fingerprint]bool{}
	for _, smp := range s.Snapshot() {
		fp := smp.Plan.Fingerprint
		if seen[fp] {
			t.Fatal("duplicate fingerprint resident after reservoir eviction")
		}
		seen[fp] = true
	}
	// Same seed, same stream → identical reservoir (determinism).
	s2 := NewStore(capacity, 7)
	for i := 0; i < n; i++ {
		s2.Add(Sample{Plan: testPlan(i), ActualMS: float64(i + 1)})
	}
	a, b := s.Snapshot(), s2.Snapshot()
	for i := range a {
		if a[i].ActualMS != b[i].ActualMS {
			t.Fatal("reservoir is not deterministic for a fixed seed")
		}
	}
}

func TestStoreDedupAfterEvictionStaysConsistent(t *testing.T) {
	s := NewStore(4, 3)
	for i := 0; i < 100; i++ {
		s.Add(Sample{Plan: testPlan(i), ActualMS: 1})
		// Refresh a resident picked from the snapshot: index bookkeeping
		// must survive arbitrary interleaving of evictions and updates.
		if snap := s.Snapshot(); len(snap) > 0 {
			s.Add(Sample{Plan: snap[0].Plan, ActualMS: 2})
		}
	}
	if s.Len() != 4 {
		t.Fatalf("len %d, want 4", s.Len())
	}
}

func TestStoreConcurrentAddSnapshot(t *testing.T) {
	s := NewStore(64, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Add(Sample{Plan: testPlan(w*1000 + i), ActualMS: 1})
				if i%17 == 0 {
					_ = s.Snapshot()
					_ = s.Stats()
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != 64 {
		t.Fatalf("len %d, want 64", s.Len())
	}
}

// TestStoreOwnsItsPlans: Add reads its plan during the call and keeps a copy
// of its own. The decoder that produced the plan is reused (its arenas
// rewritten) right after every Add, a refresh of a resident plan happens
// while a reader walks an earlier Snapshot, and neither shows in a resident
// sample. Run under -race.
func TestStoreOwnsItsPlans(t *testing.T) {
	encode := func(id int) []byte {
		b, err := plan.AppendBinary(nil, testTree(id))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var dec plan.Decoder
	s := NewStore(4, 1)
	for id := 0; id < 4; id++ {
		f, err := dec.DecodeBinary(encode(id))
		if err != nil {
			t.Fatal(err)
		}
		if !s.Add(Sample{Plan: f, ActualMS: float64(id + 1)}) {
			t.Fatal("add rejected")
		}
		f.EstRows[0], f.ActualMS[0] = -1, -1 // the caller's arrays are its own again
	}
	check := func(snap []Sample) {
		for i, smp := range snap {
			want := testPlan(i)
			if smp.Plan.Fingerprint != want.Fingerprint || smp.Plan.EstRows[0] != want.EstRows[0] ||
				smp.Plan.ActualMS[0] != smp.ActualMS || smp.Plan.Database() != "t" {
				t.Errorf("slot %d changed under its reader: %+v", i, smp.Plan)
			}
		}
	}
	snap := s.Snapshot()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			check(snap)
		}
	}()
	for i := 0; i < 200; i++ { // refresh every slot while the reader runs
		f, err := dec.DecodeBinary(encode(i % 4))
		if err != nil {
			t.Fatal(err)
		}
		s.Add(Sample{Plan: f, ActualMS: 1000 + float64(i)})
	}
	<-done
	for i, smp := range snap {
		if smp.ActualMS != float64(i+1) {
			t.Fatalf("slot %d of an old snapshot was overwritten in place", i)
		}
	}
	if got := s.Snapshot()[3]; got.ActualMS != 1199 || got.Plan.ActualMS[0] != 1199 || got.Plan == snap[3].Plan {
		t.Fatalf("refresh did not install a new labelled copy: %+v", got)
	}

	// A reservoir rejection is decided before anything is copied.
	full := NewStore(1, 1)
	const offers = 2000
	plans := make([]*plan.FlatPlan, offers)
	for i := range plans {
		plans[i] = testPlan(i)
	}
	next := 0
	if allocs := testing.AllocsPerRun(offers-1, func() {
		full.Add(Sample{Plan: plans[next], ActualMS: 1})
		next++
	}); allocs != 0 {
		t.Fatalf("a rejected Add allocates %v times", allocs)
	}
	if st := full.Stats(); st.Dropped < offers-50 {
		t.Fatalf("stats %+v: the stream was meant to be rejected", st)
	}
}
