package ipanon

import (
	"slices"
	"sort"
)

// Trace is a recording Mapper: the census of the shaped tree's
// census → replay → fill pipeline maps every file through one. It maps
// nothing: MapV4 and MapPrefix return the (masked) input unchanged and
// append the call to an ordered log. Replaying the log into a real
// Mapper reproduces exactly the insertion sequence the traced pass
// would have performed, which is what the shaped Tree's order-dependent
// mapping requires for byte-identical output; Pins extracts the log's
// prefix calls, which replay first, shortest prefix first (§4.3).
//
// A Trace is recorded by one goroutine (one census worker records each
// file's Trace); the traces are then replayed serially in a
// deterministic order. Replay keeps every call's image, so a replayed
// Trace answers Resolve with one slice index; a recorded Trace is only
// read after that, so Resolve may run on it from any goroutine.
type Trace struct {
	ops []traceOp
	// imgs[i] is ops[i]'s answer from into, the Mapper the log was last
	// replayed into (nil until the first Replay).
	imgs []uint32
	into Mapper
}

// traceOp is one recorded call: MapV4(addr), or MapPrefix(addr, length)
// when prefix is set, with length clamped to 0..32 and addr masked to it
// (every Mapper masks alike, so the call is the same).
type traceOp struct {
	addr   uint32
	length uint8
	prefix bool
}

// MapV4 records the call and returns ip unchanged.
func (tr *Trace) MapV4(ip uint32) uint32 {
	tr.ops = append(tr.ops, traceOp{addr: ip})
	return ip
}

// MapPrefix records the call and returns the masked network address
// unchanged, mirroring the masking every real Mapper performs.
func (tr *Trace) MapPrefix(addr uint32, length int) uint32 {
	length = min(max(length, 0), 32)
	addr &^= ^uint32(0) >> length
	tr.ops = append(tr.ops, traceOp{addr: addr, length: uint8(length), prefix: true})
	return addr
}

// In returns recorded call i's input address, masked for a prefix call:
// what the Trace answered it.
func (tr *Trace) In(i int) uint32 { return tr.ops[i].addr }

// Mapping returns nil: a Trace resolves nothing.
func (tr *Trace) Mapping() []Pair { return nil }

// Len reports how many calls have been recorded.
func (tr *Trace) Len() int { return len(tr.ops) }

// Remaps returns zero: a Trace never chases collisions.
func (tr *Trace) Remaps() int64 { return 0 }

// Since returns nil: a Trace resolves nothing, so there is never a
// delta to persist.
func (tr *Trace) Since(n int) []Pair { return nil }

// Reset empties the log, and forgets its images, keeping the storage
// for the next recording.
func (tr *Trace) Reset() { tr.ops, tr.imgs, tr.into = tr.ops[:0], tr.imgs[:0], nil }

// Pins returns the log's prefix calls, shortest prefix first, as a log
// of their own, recorded into into (which is Reset; nil allocates a new
// Trace). Replayed before the log itself, they resolve every /8 before
// the /24s inside it and every /24 before its hosts, which is what keeps
// subnet addresses subnet-shaped (§4.3). Prefixes of one length keep
// the order sort.Slice leaves them in, which depends on the recorded
// sequence alone.
func (tr *Trace) Pins(into *Trace) *Trace {
	if into == nil {
		into = &Trace{}
	}
	into.Reset()
	for _, op := range tr.ops {
		if op.prefix {
			into.ops = append(into.ops, op)
		}
	}
	pins := into.ops
	sort.Slice(pins, func(i, j int) bool { return pins[i].length < pins[j].length })
	return into
}

// Resolve returns m's answer to recorded call i. After the trace has
// been replayed into m that is the image the replay kept; otherwise the
// call is re-issued against m.
func (tr *Trace) Resolve(i int, m Mapper) uint32 {
	if tr.into == m {
		return tr.imgs[i]
	}
	return tr.ops[i].issue(m)
}

// Replay feeds every recorded call into m in recorded order, keeping
// each call's image for Resolve (in the storage the last Replay used,
// when it is large enough). Repeated addresses are harmless — they
// resolve from m's cache — so replaying a log's Pins and then the log
// reproduces the serial engine's call sequence exactly.
func (tr *Trace) Replay(m Mapper) {
	imgs := slices.Grow(tr.imgs[:0], len(tr.ops))[:len(tr.ops)]
	for i, op := range tr.ops {
		imgs[i] = op.issue(m)
	}
	tr.imgs, tr.into = imgs, m
}

// issue makes the recorded call against m.
func (op traceOp) issue(m Mapper) uint32 {
	if op.prefix {
		return m.MapPrefix(op.addr, int(op.length))
	}
	return m.MapV4(op.addr)
}
