package ipanon

// Trace is a recording Mapper used by the deterministic parallel corpus
// mode. It maps nothing: MapV4 and MapPrefix return the (masked) input
// unchanged and append the call to an ordered log. Replaying the log into
// a real Mapper reproduces exactly the insertion sequence the traced run
// would have performed, which is what the shaped Tree's order-dependent
// mapping requires for byte-identical parallel output.
//
// A Trace is recorded by one goroutine (one census worker records each
// file's Trace); the traces are then replayed serially in a
// deterministic order. A recorded Trace is only read, so Resolve may run
// on it from any goroutine.
type Trace struct {
	ops []traceOp
}

type traceOp struct {
	addr   uint32
	length int
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
	tr.ops = append(tr.ops, traceOp{addr: addr, length: length, prefix: true})
	masked := addr
	if length <= 0 {
		masked = 0
	} else if length < 32 {
		masked &= ^uint32(0) << (32 - uint(length))
	}
	return masked
}

// Mapping returns nil: a Trace resolves nothing.
func (tr *Trace) Mapping() []Pair { return nil }

// Len reports how many calls have been recorded.
func (tr *Trace) Len() int { return len(tr.ops) }

// Remaps returns zero: a Trace never chases collisions.
func (tr *Trace) Remaps() int64 { return 0 }

// Since returns nil: a Trace resolves nothing, so there is never a
// delta to persist.
func (tr *Trace) Since(n int) []Pair { return nil }

// Prefix returns the log of the first n recorded calls, sharing this
// trace's storage (later calls recorded here never show through it).
func (tr *Trace) Prefix(n int) *Trace { return &Trace{ops: tr.ops[:n:n]} }

// Resolve re-issues recorded call i against m and returns m's answer.
// Once the trace has been replayed into m the call is a cache hit.
func (tr *Trace) Resolve(i int, m Mapper) uint32 {
	op := tr.ops[i]
	if op.prefix {
		return m.MapPrefix(op.addr, op.length)
	}
	return m.MapV4(op.addr)
}

// Replay feeds every recorded call into m in recorded order. Repeated
// addresses are harmless — they resolve from m's cache — so replaying a
// trace that contains both a prescan pass and a rewrite pass reproduces
// the serial engine's call sequence exactly.
func (tr *Trace) Replay(m Mapper) {
	for _, op := range tr.ops {
		if op.prefix {
			m.MapPrefix(op.addr, op.length)
		} else {
			m.MapV4(op.addr)
		}
	}
}
