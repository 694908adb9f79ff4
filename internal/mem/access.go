package mem

import (
	"fmt"
	"sort"
	"sync"
)

// Op is a memory operation class for access-control purposes.
type Op uint8

const (
	OpRead Op = 1 << iota
	OpWrite
)

// String returns "read", "write" or "read|write".
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpRead | OpWrite:
		return "read|write"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Segment grants an application access to a contiguous address range,
// mirroring §4.1: "Each memory access policy is a tuple
// (appid, op, address_range)" — the analogue of an x86 GDT entry.
type Segment struct {
	AppID uint64
	Op    Op
	Start Addr // inclusive
	End   Addr // exclusive
}

// Contains reports whether the segment covers address a for operation op.
func (s Segment) Contains(appID uint64, op Op, a Addr) bool {
	return s.AppID == appID && s.Op&op == op && a >= s.Start && a < s.End
}

// Policy is the access-control table enforced by both TPP-CP (at install
// time, via static analysis) and switches (at execution time, for writes).
// The zero value denies all writes and permits all reads, the paper's
// defense-in-depth default ("the control plane needs the ability to disable
// write instructions entirely"; "in many settings, read-only access to most
// switch state is harmless").
type Policy struct {
	mu       sync.RWMutex
	segments []Segment
	// DenyAllWrites hard-disables STORE/CSTORE regardless of segments (§4.3).
	denyAllWrites bool
}

// NewPolicy returns an empty policy (reads open, writes closed).
func NewPolicy() *Policy { return &Policy{} }

// Grant adds a segment. Overlapping segments are permitted; access is granted
// if any segment covers the request.
func (p *Policy) Grant(seg Segment) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.segments = append(p.segments, seg)
}

// Revoke removes every segment for the application.
func (p *Policy) Revoke(appID uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := p.segments[:0]
	for _, s := range p.segments {
		if s.AppID != appID {
			kept = append(kept, s)
		}
	}
	p.segments = kept
}

// SetDenyAllWrites toggles the administrator kill switch for write
// instructions (§4.3).
func (p *Policy) SetDenyAllWrites(v bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.denyAllWrites = v
}

// Allowed reports whether appID may perform op on address a.
func (p *Policy) Allowed(appID uint64, op Op, a Addr) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if op&OpWrite != 0 && p.denyAllWrites {
		return false
	}
	if op&OpRead != 0 && op&OpWrite == 0 {
		return true
	}
	for _, s := range p.segments {
		if s.Contains(appID, op, a) {
			return true
		}
	}
	return false
}

// Segments returns a copy of the grant table, sorted for stable display.
func (p *Policy) Segments() []Segment {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := append([]Segment(nil), p.segments...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].AppID != out[j].AppID {
			return out[i].AppID < out[j].AppID
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// Allocator hands out exclusive AppSpecific register addresses to
// applications, the way the paper's network control plane "allocates two
// memory addresses per link" for RCP. It allocates the same register index
// on every port so a single compiled TPP works network-wide.
type Allocator struct {
	mu   sync.Mutex
	used [8]uint64 // appID owning AppSpecific_i, 0 = free
}

// NewAllocator returns an allocator with all AppSpecific registers free.
func NewAllocator() *Allocator { return &Allocator{} }

// Alloc reserves n consecutive AppSpecific registers for appID and returns
// the index of the first one. It fails when fewer than n consecutive
// registers remain.
func (al *Allocator) Alloc(appID uint64, n int) (int, error) {
	if n <= 0 || n > len(al.used) {
		return 0, fmt.Errorf("mem: invalid allocation size %d", n)
	}
	al.mu.Lock()
	defer al.mu.Unlock()
	for i := 0; i+n <= len(al.used); i++ {
		free := true
		for j := i; j < i+n; j++ {
			if al.used[j] != 0 {
				free = false
				break
			}
		}
		if free {
			for j := i; j < i+n; j++ {
				al.used[j] = appID
			}
			return i, nil
		}
	}
	return 0, fmt.Errorf("mem: no run of %d free AppSpecific registers", n)
}

// Free releases every register owned by appID.
func (al *Allocator) Free(appID uint64) {
	al.mu.Lock()
	defer al.mu.Unlock()
	for i := range al.used {
		if al.used[i] == appID {
			al.used[i] = 0
		}
	}
}

// Owner returns the application owning AppSpecific register i (0 if free).
func (al *Allocator) Owner(i int) uint64 {
	al.mu.Lock()
	defer al.mu.Unlock()
	if i < 0 || i >= len(al.used) {
		return 0
	}
	return al.used[i]
}
