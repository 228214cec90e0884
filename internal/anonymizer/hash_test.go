package anonymizer

import (
	"strings"
	"testing"
)

// TestHashKnownAnswers pins the salted hashes behind the basic method,
// the dialer-string digits and the MAC token action to fixed
// (salt, input) → output pairs, so a faster implementation cannot move
// a published identifier.
func TestHashKnownAnswers(t *testing.T) {
	long := strings.Repeat("abcdefghij", 30)
	for _, c := range []struct{ salt, in, want string }{
		{"golden-v1", "cr1", "x2e65f238dfc9"},
		{"golden-v1", "lax", "x0a92d63190f5"},
		{"", "", "x5ba93c9db0cf"},
		{"s", "Ethernet", "x1044a48104c9"},
		{"a-much-longer-owner-salt-0123456789", "backbone", "xbc16ed020d37"},
		{"allocs", long, "x689fec6767d8"},
	} {
		if got := hashWord([]byte(c.salt), c.in); got != c.want {
			t.Errorf("hashWord(%q, %q) = %q, want %q", c.salt, c.in, got, c.want)
		}
	}
	for _, c := range []struct{ salt, in, want string }{
		{"golden-v1", "5551234", "9765101"},
		{"s", "14155550123", "49931445479"},
		{"", "", ""},
		{"allocs", "123456789012345678901234567890123456789012", "401532198752049881344015321987520498813440"},
	} {
		if got := hashDigits([]byte(c.salt), c.in); got != c.want {
			t.Errorf("hashDigits(%q, %q) = %q, want %q", c.salt, c.in, got, c.want)
		}
	}
	for _, c := range []struct{ salt, in, want string }{
		{"golden-v1", "0011aabbccdd", "bcbc92eef0a2"},
		{"s", "deadbeef", "bc698fc1"},
		{"", "", ""},
		{"allocs", "0123456789abcdef0123456789abcdef0123456789abcdef", "67cbb370d37c46363f4c67cbb370d37c46363f4c67cbb370"},
	} {
		if got := string(hashDigitsHex([]byte(c.salt), c.in)); got != c.want {
			t.Errorf("hashDigitsHex(%q, %q) = %q, want %q", c.salt, c.in, got, c.want)
		}
	}
}

// TestHashWordAllocs pins hashWord to the one allocation of its result.
func TestHashWordAllocs(t *testing.T) {
	salt := []byte("golden-v1")
	if n := testing.AllocsPerRun(100, func() { _ = hashWord(salt, "backbone") }); n > 1 {
		t.Errorf("hashWord makes %.1f allocations, want 1", n)
	}
}
