package ipanon

import (
	"math/rand"
	"testing"
)

// traceCall is one mapper call as a test issues it directly.
type traceCall struct {
	addr   uint32
	length int
	prefix bool
}

func (c traceCall) on(m Mapper) uint32 {
	if c.prefix {
		return m.MapPrefix(c.addr, c.length)
	}
	return m.MapV4(c.addr)
}

// traceCalls returns a census-like call sequence: prefix pins first
// (lengths outside 0..32 included), then host lookups with repeats and
// specials.
func traceCalls(seed int64) []traceCall {
	rng := rand.New(rand.NewSource(seed))
	var calls []traceCall
	for _, l := range []int{-3, 0, 8, 16, 24, 30, 32, 40} {
		calls = append(calls, traceCall{addr: 0x0C000000 | rng.Uint32()&0xFFFFFF, length: l, prefix: true})
	}
	for i := 0; i < 400; i++ {
		addr := 0x0C000000 | rng.Uint32()&0x3FFFF
		if i%7 == 0 && len(calls) > 0 {
			addr = calls[rng.Intn(len(calls))].addr // a repeat
		}
		calls = append(calls, traceCall{addr: addr})
	}
	calls = append(calls, traceCall{addr: 0x7F000001}, traceCall{addr: 0xFFFFFF00}, traceCall{addr: 0xE0000005})
	return calls
}

func record(calls []traceCall) *Trace {
	tr := &Trace{}
	for _, c := range calls {
		c.on(tr)
	}
	return tr
}

// checkResolve asserts that tr.Resolve(i, m) equals a fresh call on m
// for every recorded call.
func checkResolve(t *testing.T, what string, tr *Trace, calls []traceCall, m Mapper) {
	t.Helper()
	if tr.Len() != len(calls) {
		t.Fatalf("%s: trace holds %d calls, want %d", what, tr.Len(), len(calls))
	}
	for i, c := range calls {
		if got, want := tr.Resolve(i, m), c.on(m); got != want {
			t.Fatalf("%s: Resolve(%d) = %08x, fresh call %+v gives %08x", what, i, got, c, want)
		}
	}
}

// TestTraceResolveAfterReplay pins that Resolve answers from the images
// Replay kept exactly what the mapper would: for the log's pins
// replayed on their own before the full log (as the census replay does),
// for a truncated log (a census that failed mid-file), and — through
// the mapper — for a trace never replayed or replayed elsewhere.
func TestTraceResolveAfterReplay(t *testing.T) {
	calls := traceCalls(1)

	t.Run("pins-then-full", func(t *testing.T) {
		tr := record(calls)
		m := NewTree(DefaultOptions([]byte("replay")))
		tr.Pins(nil).Replay(m)
		tr.Replay(m)
		checkResolve(t, "full log", tr, calls, m)
		// The replayed tree holds what direct calls in the same order
		// leave behind.
		direct := NewTree(DefaultOptions([]byte("replay")))
		for i, c := range calls {
			if got, want := tr.Resolve(i, m), c.on(direct); got != want {
				t.Fatalf("call %d %+v: replayed image %08x, direct %08x", i, c, got, want)
			}
		}
	})

	t.Run("truncated", func(t *testing.T) {
		cut := calls[:len(calls)/3]
		tr := record(cut)
		m := NewTree(DefaultOptions([]byte("replay")))
		tr.Pins(nil).Replay(m)
		tr.Replay(m)
		checkResolve(t, "truncated log", tr, cut, m)
	})

	t.Run("never-replayed", func(t *testing.T) {
		tr := record(calls)
		m := NewTree(DefaultOptions([]byte("replay")))
		checkResolve(t, "unreplayed trace", tr, calls, m)
		checkResolve(t, "unreplayed trace, crypto", tr, calls, NewCryptoMapper([]byte("replay")))
	})

	t.Run("other-mapper", func(t *testing.T) {
		tr := record(calls)
		m1 := NewTree(DefaultOptions([]byte("one")))
		tr.Replay(m1)
		// Replaying the pins elsewhere leaves the full log's images.
		m2 := NewTree(DefaultOptions([]byte("two")))
		pins := tr.Pins(nil)
		pins.Replay(m2)
		checkResolve(t, "replayed mapper", tr, calls, m1)
		checkResolve(t, "pins into another mapper", pins, prefixCalls(calls), m2)
		checkResolve(t, "a mapper never replayed into", tr, calls, NewTree(DefaultOptions([]byte("three"))))
	})
}

// prefixCalls returns the prefix calls of calls, shortest first: the
// census traceCalls models records its pins in that order.
func prefixCalls(calls []traceCall) []traceCall {
	var out []traceCall
	for _, c := range calls {
		if c.prefix {
			out = append(out, c)
		}
	}
	return out
}

// TestTracePinsArePrefixCalls: Pins holds exactly the log's prefix
// calls, shortest first, and recording into a used Trace leaves none of
// its old calls or images behind.
func TestTracePinsArePrefixCalls(t *testing.T) {
	calls := traceCalls(2)
	// Host calls and prefixes out of length order between the pins.
	calls = append(calls, traceCall{addr: 0x0C010000, length: 16, prefix: true}, traceCall{addr: 0x0C000000, length: 8, prefix: true})
	tr := record(calls)
	into := record(traceCalls(3))
	into.Replay(NewTree(DefaultOptions([]byte("old"))))
	pins := tr.Pins(into)
	if pins != into {
		t.Fatal("Pins did not record into the Trace it was given")
	}
	want := map[traceOp]int{}
	for _, c := range calls {
		if c.prefix {
			want[record([]traceCall{c}).ops[0]]++
		}
	}
	if pins.Len() != len(prefixCalls(calls)) {
		t.Fatalf("%d pins, want %d prefix calls", pins.Len(), len(prefixCalls(calls)))
	}
	for i, op := range pins.ops {
		if !op.prefix || want[op] == 0 {
			t.Fatalf("pin %d %+v is not one of the log's prefix calls", i, op)
		}
		want[op]--
		if i > 0 && op.length < pins.ops[i-1].length {
			t.Fatalf("pin %d /%d follows a /%d", i, op.length, pins.ops[i-1].length)
		}
	}
	// The images the old recording kept are gone with it.
	var sorted []traceCall
	for _, op := range pins.ops {
		sorted = append(sorted, traceCall{addr: op.addr, length: int(op.length), prefix: true})
	}
	checkResolve(t, "reused pins, never replayed", pins, sorted, NewTree(DefaultOptions([]byte("pins"))))
}

// TestTraceInIsItsAnswer: In returns what the Trace answered each call
// — the address, masked to the clamped length for a prefix call — which
// is the original a census fill checks the replayed image against.
func TestTraceInIsItsAnswer(t *testing.T) {
	tr := &Trace{}
	for i, c := range traceCalls(1) {
		got := c.on(tr)
		want := c.addr
		if c.prefix {
			switch l := min(max(c.length, 0), 32); {
			case l == 0:
				want = 0
			case l < 32:
				want &= ^uint32(0) << (32 - l)
			}
		}
		if got != want || tr.In(i) != want {
			t.Fatalf("call %d %+v: answered %08x, In %08x, want %08x", i, c, got, tr.In(i), want)
		}
	}
}
