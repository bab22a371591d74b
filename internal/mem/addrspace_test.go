package mem

import (
	"errors"
	"testing"
)

// The page table is a flat slice over [baseVA, brk): addresses past brk,
// below baseVA or far out of range must all miss without indexing out of
// it.
func TestTranslatePastBrk(t *testing.T) {
	as := NewAddressSpace(NewPhysical(8 * PageSize))
	va, err := as.Alloc(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.Translate(va + 2*PageSize - 1); err != nil {
		t.Errorf("last allocated byte does not translate: %v", err)
	}
	for _, bad := range []VirtAddr{
		va + 2*PageSize, // brk
		va + 3*PageSize,
		0,
		baseVA - 1,
		1 << 63,
	} {
		if _, err := as.Translate(bad); !errors.Is(err, ErrBadAddress) {
			t.Errorf("Translate(%#x) = %v, want ErrBadAddress", bad, err)
		}
	}
	if as.Mapped(va+PageSize, 2*PageSize) {
		t.Error("range crossing brk reported mapped")
	}
}

// Freeing a page in the middle leaves a hole: it misses, its neighbours
// keep their frames, and later allocations bump past it.
func TestTranslateAfterFree(t *testing.T) {
	as := NewAddressSpace(NewPhysical(8 * PageSize))
	a, _ := as.Alloc(PageSize)
	b, _ := as.Alloc(PageSize)
	c, _ := as.Alloc(PageSize)
	paA, _ := as.Translate(a)
	paC, _ := as.Translate(c)
	if err := as.Free(b, PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Translate(b + 8); !errors.Is(err, ErrBadAddress) {
		t.Errorf("freed page translates: %v", err)
	}
	if got, _ := as.Translate(a); got != paA {
		t.Errorf("neighbour below moved: %#x, want %#x", got, paA)
	}
	if got, _ := as.Translate(c); got != paC {
		t.Errorf("neighbour above moved: %#x, want %#x", got, paC)
	}
	if err := as.Free(b, PageSize); !errors.Is(err, ErrBadAddress) {
		t.Errorf("double Free = %v, want ErrBadAddress", err)
	}
	if err := as.Pin(a, 3*PageSize); !errors.Is(err, ErrBadAddress) {
		t.Errorf("Pin across the hole = %v, want ErrBadAddress", err)
	}
	if f, _ := as.frame(a.Page()); as.phys.Pinned(f) {
		t.Error("failed Pin left the page below the hole pinned")
	}
	d, err := as.Alloc(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if d != c+PageSize {
		t.Errorf("Alloc after Free returned %#x, want %#x (bump past the hole)", d, c+PageSize)
	}
}

// A failed Alloc must return its frames and leave the table as it was:
// the next Alloc starts right where the failed one did.
func TestAllocRollbackKeepsTable(t *testing.T) {
	pm := NewPhysical(4 * PageSize)
	as := NewAddressSpace(pm)
	a, _ := as.Alloc(PageSize)
	if _, err := as.Alloc(8 * PageSize); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("oversized Alloc = %v, want ErrOutOfMemory", err)
	}
	if pm.FreeFrames() != 3 {
		t.Errorf("failed Alloc leaked frames: %d free, want 3", pm.FreeFrames())
	}
	if _, err := as.Translate(a + PageSize); !errors.Is(err, ErrBadAddress) {
		t.Errorf("rolled-back page translates: %v", err)
	}
	b, err := as.Alloc(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if b != a+PageSize {
		t.Errorf("Alloc after rollback returned %#x, want %#x", b, a+PageSize)
	}
	if !as.Mapped(a, 4*PageSize) {
		t.Error("allocations after rollback not mapped")
	}
}
