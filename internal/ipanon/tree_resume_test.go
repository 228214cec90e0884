package ipanon

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// rootWalk maps ip on t as a walk from the root would: it forgets the
// last walk first, so rawMap starts at depth 0.
func rootWalk(t *Tree, ip uint32, length int) uint32 {
	t.mu.Lock()
	t.last = walk{}
	t.mu.Unlock()
	if length >= 0 {
		return t.MapPrefix(ip, length)
	}
	return t.MapV4(ip)
}

// resumeCall is one call of a resume test sequence: MapPrefix(ip,
// length), or MapV4(ip) when length is negative.
type resumeCall struct {
	ip     uint32
	length int
}

// checkResume feeds calls to a resuming tree and a root-walking one of
// the same salt and fails at the first image, mapping or remap count
// that differs. It returns the remaps the sequence took.
func checkResume(t *testing.T, salt string, calls []resumeCall) int64 {
	t.Helper()
	resumed, root := NewTree(DefaultOptions([]byte(salt))), NewTree(DefaultOptions([]byte(salt)))
	for i, c := range calls {
		var got uint32
		if c.length >= 0 {
			got = resumed.MapPrefix(c.ip, c.length)
		} else {
			got = resumed.MapV4(c.ip)
		}
		if want := rootWalk(root, c.ip, c.length); got != want {
			t.Fatalf("salt %q call %d (%08x/%d): resumed walk %08x, root walk %08x", salt, i, c.ip, c.length, got, want)
		}
	}
	if resumed.Remaps() != root.Remaps() {
		t.Fatalf("salt %q: %d remaps resumed, %d from the root", salt, resumed.Remaps(), root.Remaps())
	}
	got, want := resumed.Since(0), root.Since(0)
	if len(got) != len(want) {
		t.Fatalf("salt %q: %d pairs resumed, %d from the root", salt, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("salt %q: pair %d is %v resumed, %v from the root", salt, i, got[i], want[i])
		}
	}
	return resumed.Remaps()
}

// TestTreeResumeMatchesRootWalk: a walk that resumes at the prefix it
// shares with the last one resolves every address as a walk from the
// root does, on the clustered sequences configurations produce —
// interleaved /24s and /30s, every classful network, hosts and
// networks next to 127/8 and class D — over several salts, at least
// one of which takes the collision chase.
func TestTreeResumeMatchesRootWalk(t *testing.T) {
	var calls []resumeCall
	// Interleaved /24s and the /30s and hosts inside them.
	for n := uint32(0); n < 16; n++ {
		net := 0x0C010000 | n<<8
		calls = append(calls, resumeCall{net, 24})
		for h := uint32(0); h < 8; h++ {
			calls = append(calls, resumeCall{net | h<<2, 30}, resumeCall{net | h<<2 | 1, -1})
		}
		calls = append(calls, resumeCall{0xAC100000 | n<<12, 20}, resumeCall{net | 0xFE, -1})
	}
	// Every classful network, in an order that jumps between classes.
	for a := uint32(1); a < 224; a++ {
		calls = append(calls, resumeCall{(a * 37 % 223) << 24, 8})
		calls = append(calls, resumeCall{0x80000000 | a<<16, 16}, resumeCall{0xC0000000 | a<<8, 24})
	}
	// Next to the special blocks: 127/8's neighbours, the top of class
	// C under class D, the specials themselves, masks and wildcards.
	for _, ip := range []uint32{
		0x7EFFFFFF, 0x7EFFFF00, 0x7F000001, 0x80000000, 0x80000001, 0x7F7F7F7F,
		0xDFFFFFFE, 0xDFFFFF00, 0xE0000005, 0xEFFFFFFF, 0xFFFFFF00, 0x000000FF,
		0x00000000, 0x01000000, 0xFFFFFFFF,
	} {
		calls = append(calls, resumeCall{ip, -1}, resumeCall{ip, 24})
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 2000; i++ {
		calls = append(calls, resumeCall{calls[rng.Intn(len(calls))].ip ^ rng.Uint32()&0xFFF, -1})
	}
	var remaps int64
	for _, salt := range []string{"resume", "golden-v1", "x", "allocs", "s7"} {
		remaps += checkResume(t, salt, calls)
	}
	if remaps == 0 {
		t.Fatal("no salt took the collision chase: the sequence exercises no chase")
	}
}

// FuzzTreeResumeMatchesRootWalk: for any call sequence, the resumed
// walk gives the root walk's images, mapping and remap count. Each
// 5-byte group of data is one call — an address and a length byte,
// above 32 meaning a host call — and salt keys both trees.
func FuzzTreeResumeMatchesRootWalk(f *testing.F) {
	f.Add("resume", []byte{12, 1, 2, 0, 24, 12, 1, 2, 1, 99, 12, 1, 3, 0, 30, 127, 0, 0, 1, 99})
	f.Add("x", []byte{10, 0, 0, 0, 8, 10, 1, 0, 0, 16, 223, 255, 255, 0, 24, 0, 0, 0, 0, 0})
	f.Add("golden-v1", []byte{128, 0, 0, 0, 8, 126, 255, 255, 255, 40, 255, 255, 255, 0, 99})
	f.Fuzz(func(t *testing.T, salt string, data []byte) {
		var calls []resumeCall
		for ; len(data) >= 5; data = data[5:] {
			c := resumeCall{binary.BigEndian.Uint32(data), int(data[4])}
			if c.length > 32 {
				c.length = -1
			}
			calls = append(calls, c)
		}
		checkResume(t, salt, calls)
	})
}
