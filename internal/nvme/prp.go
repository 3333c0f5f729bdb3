package nvme

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the memory page size assumed by the PRP mechanism (MPS=4K).
const PageSize = 4096

// prpPerList is the number of 8-byte entries in one PRP list page.
const prpPerList = PageSize / 8

// Segment is one physically contiguous piece of a data transfer.
type Segment struct {
	Addr uint64
	Len  int
}

// PageWriter abstracts where PRP list pages are written (host memory for
// the driver, chip memory for the BMS-Engine's rewritten lists).
type PageWriter interface {
	AllocPages(n int) uint64
	WriteU64(addr uint64, v uint64)
}

// PageReader abstracts where PRP list pages are read from.
type PageReader interface {
	ReadU64(addr uint64) uint64
}

// BuildPRPs constructs the PRP1/PRP2 pair describing a buffer of n bytes at
// physical address buf, writing PRP list pages through w when more than two
// pages are involved. It returns the two PRP fields plus the addresses of
// any list pages written (for accounting/tests).
//
// Layout rules (NVMe 1.4 §4.3): PRP1 may carry a page offset; every other
// entry must be page-aligned; when more than two pages are needed PRP2
// points at a PRP list, and if the list itself overflows one page its last
// entry chains to the next list page.
func BuildPRPs(w PageWriter, buf uint64, n int) (prp1, prp2 uint64, lists []uint64) {
	if n <= 0 {
		panic("nvme: BuildPRPs of empty buffer")
	}
	prp1 = buf
	first := int(PageSize - buf%PageSize)
	if first >= n {
		return prp1, 0, nil
	}
	// Remaining page-aligned pages after the first partial page.
	var pages []uint64
	for off := first; off < n; off += PageSize {
		pages = append(pages, buf+uint64(off))
	}
	if len(pages) == 1 {
		return prp1, pages[0], nil
	}
	// Build (possibly chained) PRP lists.
	listAddr := w.AllocPages(1)
	lists = append(lists, listAddr)
	prp2 = listAddr
	slot := 0
	cur := listAddr
	for i, pg := range pages {
		remaining := len(pages) - i
		if slot == prpPerList-1 && remaining > 1 {
			next := w.AllocPages(1)
			lists = append(lists, next)
			w.WriteU64(cur+uint64(slot)*8, next)
			cur = next
			slot = 0
		}
		w.WriteU64(cur+uint64(slot)*8, pg)
		slot++
	}
	return prp1, prp2, lists
}

// WalkPRPs resolves a PRP1/PRP2 pair describing n bytes into the ordered
// physical segments of the transfer, reading list pages through r.
func WalkPRPs(r PageReader, prp1, prp2 uint64, n int) ([]Segment, error) {
	return WalkPRPsInto(nil, r, prp1, prp2, n)
}

// WalkPRPsInto is WalkPRPs appending into a caller-provided slice (pass
// segs[:0] to reuse its capacity across commands — the data path's
// per-command segment cache). On error the returned slice is nil.
func WalkPRPsInto(segs []Segment, r PageReader, prp1, prp2 uint64, n int) ([]Segment, error) {
	if n <= 0 {
		return nil, fmt.Errorf("nvme: zero-length PRP walk")
	}
	first := int(PageSize - prp1%PageSize)
	if first > n {
		first = n
	}
	segs = append(segs, Segment{Addr: prp1, Len: first})
	n -= first
	if n == 0 {
		return segs, nil
	}
	if prp2 == 0 {
		return nil, fmt.Errorf("nvme: transfer needs PRP2 but it is zero")
	}
	if n <= PageSize {
		if prp2%PageSize != 0 {
			return nil, fmt.Errorf("nvme: PRP2 %#x not page aligned", prp2)
		}
		segs = append(segs, Segment{Addr: prp2, Len: n})
		return segs, nil
	}
	// PRP2 is a list pointer.
	cur := prp2
	slot := 0
	for n > 0 {
		if cur%PageSize != 0 {
			return nil, fmt.Errorf("nvme: PRP list page %#x not aligned", cur)
		}
		entry := r.ReadU64(cur + uint64(slot)*8)
		pagesLeft := (n + PageSize - 1) / PageSize
		if slot == prpPerList-1 && pagesLeft > 1 {
			// Chain pointer to the next list page.
			cur = entry
			slot = 0
			continue
		}
		if entry == 0 {
			return nil, fmt.Errorf("nvme: null PRP entry")
		}
		if entry%PageSize != 0 {
			return nil, fmt.Errorf("nvme: PRP entry %#x not page aligned", entry)
		}
		l := PageSize
		if n < l {
			l = n
		}
		segs = append(segs, Segment{Addr: entry, Len: l})
		n -= l
		slot++
	}
	return segs, nil
}

// PRPListCache resolves PRPs for a walker that cannot block mid-walk to
// fetch a list page, such as a continuation-passing command pipeline. Walk
// reads list pages only from the cache; when it needs one that is missing it
// reports that page, the caller fetches it (same DMA, same wait as a
// blocking reader), hands it over with Add, and walks again. The walk itself
// takes no time and the fetches happen in walk order, so the DMA sequence is
// the one a blocking reader would produce. The zero value is empty and
// ready to use.
type PRPListCache struct {
	pages   []cachedPage
	miss    uint64
	missSet bool
}

type cachedPage struct {
	addr uint64
	b    []byte
}

// ReadU64 implements PageReader over the cached pages. A miss reads as zero
// and records the first missing page for Walk to report.
func (c *PRPListCache) ReadU64(addr uint64) uint64 {
	pg := addr &^ uint64(PageSize-1)
	for _, p := range c.pages {
		if p.addr == pg {
			return binary.LittleEndian.Uint64(p.b[addr-pg:])
		}
	}
	if !c.missSet {
		c.missSet = true
		c.miss = pg
	}
	return 0
}

// Walk is WalkPRPsInto through the cache. need is true when the walk hit a
// list page that is not cached; page is its address, and segs and err are
// then meaningless until the page is added and the walk repeated.
func (c *PRPListCache) Walk(segs []Segment, prp1, prp2 uint64, n int) (out []Segment, page uint64, need bool, err error) {
	c.missSet = false
	out, err = WalkPRPsInto(segs, c, prp1, prp2, n)
	return out, c.miss, c.missSet, err
}

// Add caches the fetched list page at addr; b holds its PageSize bytes.
func (c *PRPListCache) Add(addr uint64, b []byte) {
	c.pages = append(c.pages, cachedPage{addr: addr, b: b})
}

// Release empties the cache, returning its page buffers to pool.
func (c *PRPListCache) Release(pool *PagePool) {
	for i, p := range c.pages {
		pool.Put(p.b)
		c.pages[i] = cachedPage{}
	}
	c.pages = c.pages[:0]
}

// PagePool recycles PageSize buffers for PRP list caches. The zero value is
// an empty pool.
type PagePool struct{ free [][]byte }

// Get returns a page buffer, reusing a released one when available.
func (p *PagePool) Get() []byte {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return make([]byte, PageSize)
}

// Put returns a page buffer to the pool.
func (p *PagePool) Put(b []byte) { p.free = append(p.free, b) }

// ListPagesFor returns how many PRP list pages a transfer of n bytes
// starting at buf requires; 0 when PRP1(+PRP2) suffice.
func ListPagesFor(buf uint64, n int) int {
	first := int(PageSize - buf%PageSize)
	if first >= n {
		return 0
	}
	pages := (n - first + PageSize - 1) / PageSize
	if pages <= 1 {
		return 0
	}
	// Each list page holds prpPerList-1 data pages plus a chain pointer,
	// except the last which holds prpPerList.
	lists := 1
	for pages > prpPerList {
		pages -= prpPerList - 1
		lists++
	}
	return lists
}
