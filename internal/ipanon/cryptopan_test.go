package ipanon

import (
	"math/rand"
	"sync"
	"testing"

	"confanon/internal/token"
)

// referenceKey is the key of the Crypto-PAn reference implementation's
// sample program (Xu et al.); referenceTrace holds pairs from its
// sample trace, anonymized under that key.
var referenceKey = [32]byte{
	21, 34, 23, 141, 51, 164, 207, 128, 19, 10, 91, 22, 73, 144, 125, 16,
	216, 152, 143, 131, 121, 121, 101, 39, 98, 87, 76, 45, 42, 132, 34, 2,
}

var referenceTrace = []struct{ in, out string }{
	{"128.11.68.132", "135.242.180.132"},
	{"129.118.74.4", "134.136.186.123"},
	{"130.132.252.244", "133.68.164.234"},
	{"141.223.7.43", "141.167.8.160"},
}

// TestCryptoPAnKnownAnswer pins CryptoPAn to the reference
// implementation: same key layout (AES-128 key, then the pad's plaintext),
// same bit order, same outputs.
func TestCryptoPAnKnownAnswer(t *testing.T) {
	c, err := NewCryptoPAn(referenceKey)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range referenceTrace {
		in, _ := token.ParseIPv4(p.in)
		if got := token.FormatIPv4(c.MapV4(in)); got != p.out {
			t.Errorf("MapV4(%s) = %s, want %s", p.in, got, p.out)
		}
	}
}

// TestCryptoMapperCacheMatchesUncached: the /24 image cache is exact.
// The cached mapper, driven from concurrent goroutines, must agree with
// IsSpecial plus the collision chase over uncached CryptoPAn.MapV4 on
// random addresses and on full sweeps of two /24s: 0.0.0.0/24, which
// holds special fixed points, and a /24 whose raw images land in the
// special range, so the chase runs.
func TestCryptoMapperCacheMatchesUncached(t *testing.T) {
	m := NewCryptoMapper([]byte("cache-vs-uncached"))
	want := func(ip uint32) uint32 {
		if IsSpecial(ip) {
			return ip
		}
		out := m.c.MapV4(ip)
		for IsSpecial(out) {
			out = m.c.MapV4(out)
		}
		return out
	}

	// Image prefixes depend on input prefixes only, so some /8 maps
	// into 224.0.0.0/3 (or onto 127.0.0.0/8); take a /24 from it.
	chased := uint32(1<<24 | 2<<8)
	for IsSpecial(chased|1) || !IsSpecial(m.c.MapV4(chased|1)) {
		if chased += 1 << 24; chased < 1<<24 {
			t.Fatal("no /8 maps into the special range")
		}
	}
	rng := rand.New(rand.NewSource(19))
	var addrs []uint32
	for i := 0; i < 10000; i++ {
		ip := rng.Uint32()
		if i%2 == 0 {
			ip = 10<<24 | ip&0xFFFFF // few /24s: mostly cache hits
		}
		addrs = append(addrs, ip)
	}
	for h := uint32(0); h < 256; h++ {
		addrs = append(addrs, h, chased|h)
	}

	const workers = 4
	got := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]uint32, len(addrs))
			// Each worker walks the list from a different offset, so
			// cache fills and hits interleave across goroutines.
			for k := range addrs {
				i := (k + w*len(addrs)/workers) % len(addrs)
				out[i] = m.MapV4(addrs[i])
			}
			got[w] = out
		}(w)
	}
	wg.Wait()
	for i, ip := range addrs {
		exp := want(ip)
		for w := range got {
			if got[w][i] != exp {
				t.Fatalf("worker %d: MapV4(%s) = %s, uncached %s", w,
					token.FormatIPv4(ip), token.FormatIPv4(got[w][i]), token.FormatIPv4(exp))
			}
		}
	}
	if m.Remaps() == 0 {
		t.Errorf("no chase ran; the sweep of %s/24 should chase", token.FormatIPv4(chased))
	}
}

// TestCryptoPAnMapV4Allocs guards the cold path the warm engine ratchet
// never sees: a fresh address costs at most two allocations, not one
// per round.
func TestCryptoPAnMapV4Allocs(t *testing.T) {
	c, err := NewCryptoPAn(referenceKey)
	if err != nil {
		t.Fatal(err)
	}
	ip := uint32(0x0A000000)
	allocs := testing.AllocsPerRun(1000, func() {
		ip += 0x01010101
		c.MapV4(ip)
	})
	if allocs > 2 {
		t.Errorf("CryptoPAn.MapV4: %.1f allocs per fresh address, want <= 2", allocs)
	}
}
