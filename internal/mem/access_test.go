package mem

import (
	"sync"
	"testing"
)

func TestPolicyDefaultReadsOpenWritesClosed(t *testing.T) {
	p := NewPolicy()
	a := MustResolve("Link:TX-Utilization")
	if !p.Allowed(1, OpRead, a) {
		t.Error("default policy should allow reads")
	}
	if p.Allowed(1, OpWrite, a) {
		t.Error("default policy should deny writes")
	}
}

func TestPolicyGrantWrite(t *testing.T) {
	p := NewPolicy()
	start := DynOutLinkBase + LinkAppSpecific0
	p.Grant(Segment{AppID: 42, Op: OpRead | OpWrite, Start: start, End: start + 2})
	if !p.Allowed(42, OpWrite, start) {
		t.Error("grant not honored at start")
	}
	if !p.Allowed(42, OpWrite, start+1) {
		t.Error("grant not honored at start+1")
	}
	if p.Allowed(42, OpWrite, start+2) {
		t.Error("end is exclusive")
	}
	if p.Allowed(7, OpWrite, start) {
		t.Error("grant leaked across app IDs")
	}
}

func TestPolicyDenyAllWritesOverridesGrants(t *testing.T) {
	p := NewPolicy()
	a := DynOutLinkBase + LinkAppSpecific0
	p.Grant(Segment{AppID: 1, Op: OpWrite, Start: a, End: a + 1})
	p.SetDenyAllWrites(true)
	if p.Allowed(1, OpWrite, a) {
		t.Error("kill switch must override segment grants (§4.3)")
	}
	p.SetDenyAllWrites(false)
	if !p.Allowed(1, OpWrite, a) {
		t.Error("kill switch should be reversible")
	}
}

func TestPolicyRevoke(t *testing.T) {
	p := NewPolicy()
	a := DynOutLinkBase + LinkAppSpecific0
	p.Grant(Segment{AppID: 9, Op: OpWrite, Start: a, End: a + 1})
	p.Grant(Segment{AppID: 8, Op: OpWrite, Start: a, End: a + 1})
	p.Revoke(9)
	if p.Allowed(9, OpWrite, a) {
		t.Error("revoked app still allowed")
	}
	if !p.Allowed(8, OpWrite, a) {
		t.Error("revoke removed the wrong app")
	}
}

func TestPolicyConcurrentAccess(t *testing.T) {
	p := NewPolicy()
	a := DynOutLinkBase + LinkAppSpecific0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func(id uint64) {
			defer wg.Done()
			p.Grant(Segment{AppID: id, Op: OpWrite, Start: a, End: a + 1})
		}(uint64(i + 1))
		go func(id uint64) {
			defer wg.Done()
			p.Allowed(id, OpWrite, a)
			p.Revoke(id)
		}(uint64(i + 1))
	}
	wg.Wait()
}

func TestAllocatorExclusive(t *testing.T) {
	al := NewAllocator()
	i0, err := al.Alloc(100, 2) // like RCP's two per-link words
	if err != nil {
		t.Fatal(err)
	}
	i1, err := al.Alloc(200, 2)
	if err != nil {
		t.Fatal(err)
	}
	if i0 == i1 {
		t.Fatalf("overlapping allocations: %d and %d", i0, i1)
	}
	if al.Owner(i0) != 100 || al.Owner(i0+1) != 100 {
		t.Error("ownership not recorded")
	}
	al.Free(100)
	if al.Owner(i0) != 0 {
		t.Error("free did not release")
	}
	if _, err := al.Alloc(300, 9); err == nil {
		t.Error("oversized allocation should fail")
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	al := NewAllocator()
	for i := 0; i < 4; i++ {
		if _, err := al.Alloc(uint64(i+1), 2); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := al.Alloc(99, 1); err == nil {
		t.Error("expected exhaustion")
	}
	al.Free(2)
	if _, err := al.Alloc(99, 2); err != nil {
		t.Errorf("freed registers not reusable: %v", err)
	}
}

func TestSegmentString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Error("op strings wrong")
	}
	if (OpRead | OpWrite).String() != "read|write" {
		t.Error("combined op string wrong")
	}
}

func TestSegmentsSorted(t *testing.T) {
	p := NewPolicy()
	p.Grant(Segment{AppID: 2, Op: OpRead, Start: 10, End: 20})
	p.Grant(Segment{AppID: 1, Op: OpRead, Start: 30, End: 40})
	p.Grant(Segment{AppID: 1, Op: OpRead, Start: 5, End: 9})
	segs := p.Segments()
	if len(segs) != 3 {
		t.Fatalf("got %d segments", len(segs))
	}
	if segs[0].AppID != 1 || segs[0].Start != 5 || segs[2].AppID != 2 {
		t.Errorf("segments not sorted: %+v", segs)
	}
}
