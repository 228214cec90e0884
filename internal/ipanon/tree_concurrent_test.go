package ipanon

import (
	"sync"
	"testing"
)

// TestTreeConcurrentMapV4 exercises the tree's locking: many goroutines
// mapping an overlapping working set must agree — an address resolved
// once answers identically forever, and the entry count equals the
// distinct inputs.
func TestTreeConcurrentMapV4(t *testing.T) {
	tr := NewTree(DefaultOptions([]byte("concurrent")))
	// 256 distinct addresses across several /16s, plus specials that must
	// pass through.
	addrs := make([]uint32, 0, 260)
	for i := uint32(0); i < 256; i++ {
		addrs = append(addrs, 0x0C010000|i<<8|i) // 12.1.x.x
	}
	addrs = append(addrs, 0x7F000001, 0xFFFFFFFF, 0xE0000001, 0x0A000001)

	const workers = 8
	got := make([]map[uint32]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := make(map[uint32]uint32, len(addrs))
			// Each worker walks the set in a different rotation so first
			// touches interleave.
			for i := range addrs {
				a := addrs[(i+w*37)%len(addrs)]
				m[a] = tr.MapV4(a)
			}
			got[w] = m
		}(w)
	}
	wg.Wait()

	for w := 1; w < workers; w++ {
		for a, v := range got[0] {
			if got[w][a] != v {
				t.Fatalf("worker %d maps %08x to %08x, worker 0 to %08x", w, a, got[w][a], v)
			}
		}
	}
	for _, a := range []uint32{0x7F000001, 0xFFFFFFFF, 0xE0000001} {
		if got[0][a] != a {
			t.Errorf("special %08x did not pass through (got %08x)", a, got[0][a])
		}
	}
	if tr.Len() != len(addrs) {
		t.Errorf("Len() = %d, want %d distinct entries", tr.Len(), len(addrs))
	}
	// Re-querying serially must reproduce the concurrent answers.
	for a, v := range got[0] {
		if tr.MapV4(a) != v {
			t.Errorf("re-query of %08x changed the mapping", a)
		}
	}
}

// TestTreeConcurrentPrefixAndAddr mixes MapPrefix pins and MapV4 lookups
// concurrently — the corpus pipeline's exact access pattern.
func TestTreeConcurrentPrefixAndAddr(t *testing.T) {
	tr := NewTree(DefaultOptions([]byte("mixed")))
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint32(0); i < 64; i++ {
				if w%2 == 0 {
					tr.MapPrefix(0x0C000000|i<<16, 16)
				} else {
					tr.MapV4(0x0C000000 | i<<16 | 0x0101)
				}
			}
		}(w)
	}
	wg.Wait()
	// Prefix containment must hold: an address inside a pinned /16 maps
	// inside that prefix's image.
	for i := uint32(0); i < 64; i++ {
		p := tr.MapPrefix(0x0C000000|i<<16, 16)
		a := tr.MapV4(0x0C000000 | i<<16 | 0x0101)
		if a&0xFFFF0000 != p&0xFFFF0000 {
			t.Fatalf("address %08x escaped its pinned /16: prefix image %08x, addr image %08x",
				0x0C000000|i<<16|0x0101, p, a)
		}
	}
}
