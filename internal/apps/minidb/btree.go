package minidb

import (
	"encoding/binary"
	"fmt"

	"bmstore/internal/sim"
)

// Clustered B+tree over uint64 keys and variable-length rows.
//
// Page layout (leaf):   u8 kind | u16 n | n * (u64 key, u16 len) dir |
// row payloads packed from the end.  Simplified here to an in-memory
// decoded form cached per frame would complicate eviction; instead nodes
// are re-encoded into the frame after every mutation — cheap at these
// fan-outs and keeps the on-disk image the single source of truth.
//
// Page layout (internal): u8 kind | u16 n | n * (u64 sepKey, u32 child).
// child[i] covers keys < sepKey[i]; the last child covers the rest, so an
// internal node stores n separators and n+1 children (the final child id
// rides after the array).
const (
	nodeLeaf     = 1
	nodeInternal = 2
)

// maxLeafPayload leaves room for the header and entry directory.
const maxLeafPayload = PageSize - 64

type leafEntry struct {
	key uint64
	row []byte
}

type leafNode struct {
	entries []leafEntry
}

type internalNode struct {
	seps     []uint64
	children []pageID // len(seps)+1
}

func decodeNode(data []byte) (any, error) {
	switch data[0] {
	case nodeLeaf:
		n := int(binary.LittleEndian.Uint16(data[1:]))
		ln := &leafNode{}
		dir := 3
		off := PageSize
		for i := 0; i < n; i++ {
			key := binary.LittleEndian.Uint64(data[dir:])
			l := int(binary.LittleEndian.Uint16(data[dir+8:]))
			dir += 10
			off -= l
			row := append([]byte(nil), data[off:off+l]...)
			ln.entries = append(ln.entries, leafEntry{key: key, row: row})
		}
		return ln, nil
	case nodeInternal:
		n := int(binary.LittleEndian.Uint16(data[1:]))
		in := &internalNode{}
		off := 3
		for i := 0; i < n; i++ {
			in.seps = append(in.seps, binary.LittleEndian.Uint64(data[off:]))
			in.children = append(in.children, pageID(binary.LittleEndian.Uint32(data[off+8:])))
			off += 12
		}
		in.children = append(in.children, pageID(binary.LittleEndian.Uint32(data[off:])))
		return in, nil
	default:
		return nil, fmt.Errorf("minidb: unknown node kind %d", data[0])
	}
}

// encode writes the leaf into a PageSize page. Only the gap between the
// entry directory and the packed payloads is cleared: every other byte is
// overwritten.
func (ln *leafNode) encode(data []byte) {
	data[0] = nodeLeaf
	binary.LittleEndian.PutUint16(data[1:], uint16(len(ln.entries)))
	dir := 3
	off := PageSize
	for _, e := range ln.entries {
		binary.LittleEndian.PutUint64(data[dir:], e.key)
		binary.LittleEndian.PutUint16(data[dir+8:], uint16(len(e.row)))
		dir += 10
		off -= len(e.row)
		copy(data[off:], e.row)
	}
	clear(data[dir:off])
}

func (ln *leafNode) bytes() int {
	n := 0
	for _, e := range ln.entries {
		n += 10 + len(e.row)
	}
	return n
}

func (in *internalNode) encode(data []byte) {
	clear(data)
	data[0] = nodeInternal
	binary.LittleEndian.PutUint16(data[1:], uint16(len(in.seps)))
	off := 3
	for i, s := range in.seps {
		binary.LittleEndian.PutUint64(data[off:], s)
		binary.LittleEndian.PutUint32(data[off+8:], uint32(in.children[i]))
		off += 12
	}
	binary.LittleEndian.PutUint32(data[off:], uint32(in.children[len(in.seps)]))
}

// maxInternalFanout bounds internal node size well inside a page.
const maxInternalFanout = (PageSize - 16) / 12

// btree operations. Traversals restart whenever a fault (device read)
// occurred, because the tree may have changed while the process slept;
// mutations touch only resident pages, so each apply is atomic in
// simulation time.
type btree struct {
	db *DB
}

// node returns the decoded form of a frame, caching it.
func (bt *btree) node(f *frame) any {
	if f.node == nil {
		n, err := decodeNode(f.data)
		if err != nil {
			panic(err)
		}
		f.node = n
	}
	return f.node
}

// find walks to the leaf for key without faulting; ok=false with a pageID
// to fault when a page is missing.
func (bt *btree) findResident(key uint64) (*frame, *leafNode, pageID, bool) {
	id := bt.db.root
	for {
		f, ok := bt.db.pool.get(id)
		if !ok {
			return nil, nil, id, false
		}
		switch n := bt.node(f).(type) {
		case *leafNode:
			return f, n, 0, true
		case *internalNode:
			id = n.child(key)
		}
	}
}

func (in *internalNode) child(key uint64) pageID {
	for i, s := range in.seps {
		if key < s {
			return in.children[i]
		}
	}
	return in.children[len(in.seps)]
}

// get returns the row for key.
func (bt *btree) get(p *sim.Proc, key uint64) ([]byte, bool, error) {
	for {
		_, leaf, missing, ok := bt.findResident(key)
		if !ok {
			if _, err := bt.db.pool.fault(p, missing); err != nil {
				return nil, false, err
			}
			continue
		}
		for _, e := range leaf.entries {
			if e.key == key {
				return e.row, true, nil
			}
		}
		return nil, false, nil
	}
}

// put inserts or updates key. The mutation itself never yields.
func (bt *btree) put(p *sim.Proc, key uint64, row []byte) error {
	if len(row) > maxLeafPayload/2 {
		return fmt.Errorf("minidb: row of %d bytes too large", len(row))
	}
	for {
		f, leaf, missing, ok := bt.findResident(key)
		if !ok {
			if _, err := bt.db.pool.fault(p, missing); err != nil {
				return err
			}
			continue
		}
		// Ensure a split has a free frame without yielding mid-mutation:
		// pre-reserve pool space by faulting nothing but allocating later;
		// pool inserts evict, and eviction can yield. To stay atomic, do
		// the whole mutation, then let the pool settle on the next fault.
		idx := 0
		for idx < len(leaf.entries) && leaf.entries[idx].key < key {
			idx++
		}
		if idx < len(leaf.entries) && leaf.entries[idx].key == key {
			leaf.entries[idx].row = append([]byte(nil), row...)
		} else {
			leaf.entries = append(leaf.entries, leafEntry{})
			copy(leaf.entries[idx+1:], leaf.entries[idx:])
			leaf.entries[idx] = leafEntry{key: key, row: append([]byte(nil), row...)}
		}
		if leaf.bytes() <= maxLeafPayload {
			leaf.encode(f.data)
			bt.db.pool.markDirty(f)
			return nil
		}
		return bt.splitLeaf(p, f, leaf)
	}
}

// splitLeaf divides an overflowing leaf and pushes the separator upward.
func (bt *btree) splitLeaf(p *sim.Proc, f *frame, leaf *leafNode) error {
	mid := len(leaf.entries) / 2
	right := &leafNode{entries: append([]leafEntry(nil), leaf.entries[mid:]...)}
	leaf.entries = leaf.entries[:mid]
	sep := right.entries[0].key

	rf, err := bt.db.pool.alloc(p)
	if err != nil {
		return err
	}
	// Re-encode both halves (left frame may have been evicted while alloc
	// yielded; re-fault it).
	lf, ok := bt.db.pool.get(f.id)
	if !ok {
		if lf, err = bt.db.pool.fault(p, f.id); err != nil {
			return err
		}
	}
	leaf.encode(lf.data)
	lf.node = leaf
	bt.db.pool.markDirty(lf)
	right.encode(rf.data)
	rf.node = right
	bt.db.pool.markDirty(rf)
	return bt.insertSep(p, lf.id, sep, rf.id)
}

// insertSep adds (sep -> right) next to child left in its parent, growing
// the tree upward as needed. Parents are located by a fresh root walk.
func (bt *btree) insertSep(p *sim.Proc, left pageID, sep uint64, right pageID) error {
	// Root split.
	if left == bt.db.root {
		nf, err := bt.db.pool.alloc(p)
		if err != nil {
			return err
		}
		root := &internalNode{seps: []uint64{sep}, children: []pageID{left, right}}
		root.encode(nf.data)
		nf.node = root
		bt.db.pool.markDirty(nf)
		bt.db.root = nf.id
		return nil
	}
	for {
		// Walk from the root to find left's parent (all resident or fault).
		id := bt.db.root
		var parent *frame
		var pnode *internalNode
		found := false
		for !found {
			f, ok := bt.db.pool.get(id)
			if !ok {
				if _, err := bt.db.pool.fault(p, id); err != nil {
					return err
				}
				break // restart parent search
			}
			in, isInt := bt.node(f).(*internalNode)
			if !isInt {
				return fmt.Errorf("minidb: parent search hit a leaf")
			}
			for _, c := range in.children {
				if c == left {
					parent, pnode = f, in
					found = true
					break
				}
			}
			if !found {
				id = in.child(sep)
			}
		}
		if !found {
			continue
		}
		// Insert separator into parent.
		idx := 0
		for idx < len(pnode.seps) && pnode.seps[idx] < sep {
			idx++
		}
		pnode.seps = append(pnode.seps, 0)
		copy(pnode.seps[idx+1:], pnode.seps[idx:])
		pnode.seps[idx] = sep
		pnode.children = append(pnode.children, 0)
		copy(pnode.children[idx+2:], pnode.children[idx+1:])
		pnode.children[idx+1] = right
		if len(pnode.children) <= maxInternalFanout {
			pnode.encode(parent.data)
			parent.node = pnode
			bt.db.pool.markDirty(parent)
			return nil
		}
		// Split the internal node.
		mid := len(pnode.seps) / 2
		up := pnode.seps[mid]
		rn := &internalNode{
			seps:     append([]uint64(nil), pnode.seps[mid+1:]...),
			children: append([]pageID(nil), pnode.children[mid+1:]...),
		}
		pnode.seps = pnode.seps[:mid]
		pnode.children = pnode.children[:mid+1]
		rf, err := bt.db.pool.alloc(p)
		if err != nil {
			return err
		}
		pf, ok := bt.db.pool.get(parent.id)
		if !ok {
			if pf, err = bt.db.pool.fault(p, parent.id); err != nil {
				return err
			}
		}
		pnode.encode(pf.data)
		pf.node = pnode
		bt.db.pool.markDirty(pf)
		rn.encode(rf.data)
		rf.node = rn
		bt.db.pool.markDirty(rf)
		left, sep, right = pf.id, up, rf.id
		if left == bt.db.root {
			nf, err := bt.db.pool.alloc(p)
			if err != nil {
				return err
			}
			root := &internalNode{seps: []uint64{sep}, children: []pageID{left, right}}
			root.encode(nf.data)
			nf.node = root
			bt.db.pool.markDirty(nf)
			bt.db.root = nf.id
			return nil
		}
	}
}

// scan returns up to limit rows with key >= start in key order.
func (bt *btree) scan(p *sim.Proc, start uint64, limit int) ([]Row, error) {
	var out []Row
	key := start
	for len(out) < limit {
		_, leaf, missing, ok := bt.findResident(key)
		if !ok {
			if _, err := bt.db.pool.fault(p, missing); err != nil {
				return nil, err
			}
			continue
		}
		for _, e := range leaf.entries {
			if e.key < key {
				continue
			}
			out = append(out, Row{Key: e.key, Data: append([]byte(nil), e.row...)})
			if len(out) >= limit {
				return out, nil
			}
		}
		if len(leaf.entries) == 0 {
			return out, nil
		}
		last := leaf.entries[len(leaf.entries)-1].key
		// This leaf covered key; if its last entry is below key, it is the
		// rightmost leaf and the scan is done. The overflow check keeps
		// the max key from wrapping.
		if last < key || last == ^uint64(0) {
			return out, nil
		}
		key = last + 1
	}
	return out, nil
}

// Row is one scanned record.
type Row struct {
	Key  uint64
	Data []byte
}
