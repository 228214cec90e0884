package confanon

// ProgramCounters returns the compiled Program's own rewrite-memo hits
// and misses and ASN cycle walks, for the external metrics tests to
// compare against a registry.
func ProgramCounters(p *Program) (cacheHits, cacheMisses, asnWalks int64) {
	return p.inner.CacheHits(), p.inner.CacheMisses(), p.inner.ASNCycleWalks()
}
