package nvme

import (
	"reflect"
	"testing"

	"bmstore/internal/hostmem"
)

// TestWalkPRPsIntoReuse: the data path walks every command into a pooled
// segment slice (segs[:0]). Reuse must neither leak stale segments nor
// reallocate once the capacity fits the largest command.
func TestWalkPRPsIntoReuse(t *testing.T) {
	mem := hostmem.New(16 << 20)
	big := mem.AllocPages(64)
	small := mem.AllocPages(2)

	var segs []Segment
	p1, p2, _ := BuildPRPs(mem, big, 64*4096)
	segs, err := WalkPRPsInto(segs[:0], mem, p1, p2, 64*4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 64 {
		t.Fatalf("big walk: %d segments", len(segs))
	}
	grown := cap(segs)

	// A smaller command into the same buffer: the stale tail must be gone
	// and the capacity reused.
	p1, p2, _ = BuildPRPs(mem, small, 2*4096)
	segs, err = WalkPRPsInto(segs[:0], mem, p1, p2, 2*4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("small walk: %d segments: %v", len(segs), segs)
	}
	if cap(segs) != grown {
		t.Fatalf("capacity not reused: %d -> %d", grown, cap(segs))
	}
	for i, s := range segs {
		if s.Addr != small+uint64(i)*4096 || s.Len != 4096 {
			t.Fatalf("seg %d = %+v", i, s)
		}
	}

	// Append-style: walking into a non-empty prefix keeps it.
	prefix := []Segment{{Addr: 0xAAAA, Len: 1}}
	segs, err = WalkPRPsInto(prefix, mem, small, small+4096, 2*4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 || segs[0] != (Segment{Addr: 0xAAAA, Len: 1}) {
		t.Fatalf("prefix lost: %v", segs)
	}
}

// TestPRPListChainBoundary pins the exact transfer sizes where the PRP list
// spills into a chained second page: with a page-aligned buffer of P pages,
// PRP1 covers the first, so a single 512-entry list page holds up to 512
// more (P = 513); P = 514 forces slot 511 to become a chain pointer.
func TestPRPListChainBoundary(t *testing.T) {
	for _, tc := range []struct {
		pages, lists int
	}{
		{513, 1}, // 512 list entries: exactly one full list page
		{514, 2}, // 513 entries: chain to a second page
	} {
		mem := hostmem.New(64 << 20)
		buf := mem.AllocPages(tc.pages)
		n := tc.pages * 4096
		p1, p2, lists := BuildPRPs(mem, buf, n)
		if len(lists) != tc.lists {
			t.Fatalf("%d pages: %d list pages, want %d", tc.pages, len(lists), tc.lists)
		}
		if got := ListPagesFor(buf, n); got != tc.lists {
			t.Fatalf("%d pages: ListPagesFor = %d, want %d", tc.pages, got, tc.lists)
		}
		segs, err := WalkPRPs(mem, p1, p2, n)
		if err != nil {
			t.Fatalf("%d pages: %v", tc.pages, err)
		}
		if len(segs) != tc.pages {
			t.Fatalf("%d pages: %d segments", tc.pages, len(segs))
		}
		for i, s := range segs {
			if s.Addr != buf+uint64(i)*4096 || s.Len != 4096 {
				t.Fatalf("%d pages: seg %d = %+v", tc.pages, i, s)
			}
		}
	}
}

// TestWalkPRPChainCorruption: a misaligned chain pointer or a null data
// entry inside a chained list must fail the walk, and the error path of
// WalkPRPsInto returns nil (not a half-filled reused slice).
func TestWalkPRPChainCorruption(t *testing.T) {
	mem := hostmem.New(64 << 20)
	buf := mem.AllocPages(514)
	n := 514 * 4096
	p1, p2, lists := BuildPRPs(mem, buf, n)
	if len(lists) != 2 {
		t.Fatalf("list pages %d, want 2", len(lists))
	}

	// Slot 511 of the first list page is the chain pointer; misalign it.
	chainSlot := lists[0] + 511*8
	good := mem.ReadU64(chainSlot)
	mem.WriteU64(chainSlot, good+1)
	if segs, err := WalkPRPsInto(make([]Segment, 0, 8), mem, p1, p2, n); err == nil {
		t.Fatal("misaligned chain pointer accepted")
	} else if segs != nil {
		t.Fatalf("error walk returned segments: %v", segs)
	}
	mem.WriteU64(chainSlot, good)

	// Null out a data entry on the second list page.
	mem.WriteU64(lists[1], 0)
	if _, err := WalkPRPs(mem, p1, p2, n); err == nil {
		t.Fatal("null PRP entry accepted")
	}
}

// cacheWalk resolves PRPs through c the way the data path does: walk,
// fetch the reported list page from mem, add it, walk again. It returns
// the segments, the list pages in fetch order, and the walk error.
func cacheWalk(c *PRPListCache, pool *PagePool, mem *hostmem.Memory, p1, p2 uint64, n int) ([]Segment, []uint64, error) {
	var fetched []uint64
	for {
		segs, page, need, err := c.Walk(nil, p1, p2, n)
		if !need {
			return segs, fetched, err
		}
		b := pool.Get()
		mem.Read(page, b)
		c.Add(page, b)
		fetched = append(fetched, page)
	}
}

// TestPRPListCacheMatchesBlockingWalk: the retry walk yields exactly the
// segments of a blocking WalkPRPs and fetches each list page once, in chain
// order; Release returns every page to the pool for the next command.
func TestPRPListCacheMatchesBlockingWalk(t *testing.T) {
	var c PRPListCache
	var pool PagePool
	for _, pages := range []int{1, 2, 3, 64, 513, 514, 1100} {
		mem := hostmem.New(64 << 20)
		buf := mem.AllocPages(pages)
		n := pages * PageSize
		p1, p2, lists := BuildPRPs(mem, buf, n)
		want, err := WalkPRPs(mem, p1, p2, n)
		if err != nil {
			t.Fatal(err)
		}
		segs, fetched, err := cacheWalk(&c, &pool, mem, p1, p2, n)
		if err != nil {
			t.Fatalf("%d pages: %v", pages, err)
		}
		if !reflect.DeepEqual(segs, want) {
			t.Fatalf("%d pages: cache walk %d segments, blocking walk %d", pages, len(segs), len(want))
		}
		if !reflect.DeepEqual(fetched, lists) {
			t.Fatalf("%d pages: fetched list pages %#x, want %#x", pages, fetched, lists)
		}
		free := len(pool.free)
		c.Release(&pool)
		if got := len(pool.free) - free; got != len(lists) {
			t.Fatalf("%d pages: Release returned %d pages, want %d", pages, got, len(lists))
		}
		if len(lists) > 0 {
			if _, page, need, _ := c.Walk(nil, p1, p2, n); !need || page != lists[0] {
				t.Fatalf("%d pages: released cache still resolved the list (need=%v page=%#x)", pages, need, page)
			}
		}
	}
}

// TestPRPListCacheCorruptList: a list entry the walk rejects surfaces as
// the walk error once every page it needs is cached.
func TestPRPListCacheCorruptList(t *testing.T) {
	mem := hostmem.New(1 << 20)
	buf := mem.AllocPages(4)
	p1, p2, lists := BuildPRPs(mem, buf, 4*PageSize)
	mem.WriteU64(lists[0]+8, 0) // null second entry
	var c PRPListCache
	var pool PagePool
	if _, fetched, err := cacheWalk(&c, &pool, mem, p1, p2, 4*PageSize); err == nil || len(fetched) != 1 {
		t.Fatalf("corrupt list: err=%v after %d fetches", err, len(fetched))
	}
}
