package kvstore

import (
	"bytes"
	"testing"
)

// refLookup is the point lookup lookupRecord replaced: decode every record
// of the block, then scan for the key.
func refLookup(blk, key []byte) ([]byte, bool) {
	for _, kv := range decodeBlock(blk) {
		c := bytes.Compare(kv.Key, key)
		if c == 0 {
			return kv.Value, true
		}
		if c > 0 {
			break
		}
	}
	return nil, false
}

// FuzzLookupRecord checks the in-place lookup against the decoding one on
// arbitrary block bytes and probe keys. The committed seeds in
// testdata/fuzz/FuzzLookupRecord cover a torn tail, a CRC mismatch in mid
// block, a tombstone, an empty value, a probe past the last record and a
// zero-length key.
func FuzzLookupRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, blk, key []byte) {
		got, gotOK := lookupRecord(blk, key)
		want, wantOK := refLookup(blk, key)
		if gotOK != wantOK || !bytes.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("lookupRecord = %q,%v; decoding lookup = %q,%v", got, gotOK, want, wantOK)
		}
	})
}

// TestLookupRecordCases pins the outcome of each case the fuzz seeds cover,
// so the two lookups cannot agree on a wrong answer there.
func TestLookupRecordCases(t *testing.T) {
	var blk []byte
	blk = appendRecord(blk, 0, []byte("a"), []byte("va"))
	blk = appendRecord(blk, 0, []byte("b"), nil) // tombstone
	blk = appendRecord(blk, 0, []byte("c"), []byte{})
	blk = appendRecord(blk, 0, []byte("d"), []byte("vd"))
	tail := len(blk)
	blk = appendRecord(blk, 0, []byte("e"), []byte("ve"))

	corrupt := bytes.Clone(blk)
	corrupt[tail-1] ^= 0xff // last byte of d's value
	zeroKey := appendRecord(nil, 0, nil, []byte("v"))
	zeroKey = appendRecord(zeroKey, 0, []byte("a"), []byte("va"))

	cases := []struct {
		name  string
		blk   []byte
		key   string
		want  []byte
		found bool
	}{
		{"value", blk, "a", []byte("va"), true},
		{"tombstone", blk, "b", nil, true},
		{"empty value", blk, "c", nil, true},
		{"last record", blk, "e", []byte("ve"), true},
		{"past last record", blk, "z", nil, false},
		{"between records", blk, "bb", nil, false},
		{"torn tail", blk[:len(blk)-1], "e", nil, false},
		{"record before torn tail", blk[:len(blk)-1], "d", []byte("vd"), true},
		{"crc mismatch", corrupt, "d", nil, false},
		{"after crc mismatch", corrupt, "e", nil, false},
		{"before crc mismatch", corrupt, "a", []byte("va"), true},
		{"zero-length key", zeroKey, "a", nil, false},
	}
	for _, c := range cases {
		got, ok := lookupRecord(c.blk, []byte(c.key))
		if ok != c.found || !bytes.Equal(got, c.want) || (got == nil) != (c.want == nil) {
			t.Errorf("%s: lookupRecord(%q) = %q,%v want %q,%v", c.name, c.key, got, ok, c.want, c.found)
		}
		ref, refOK := refLookup(c.blk, []byte(c.key))
		if refOK != ok || !bytes.Equal(ref, got) {
			t.Errorf("%s: decoding lookup disagrees: %q,%v", c.name, ref, refOK)
		}
	}
}
