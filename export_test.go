package confanon

// ProgramCounters returns the compiled Program's own rewrite-memo hits
// and misses and ASN cycle walks, for the external metrics tests to
// compare against a registry.
func ProgramCounters(p *Program) (cacheHits, cacheMisses, asnWalks int64) {
	return p.inner.CacheHits(), p.inner.CacheMisses(), p.inner.ASNCycleWalks()
}

// CacheSections decodes a cache blob and returns each file's encoded
// section.
func CacheSections(blob []byte) (map[string]string, error) {
	c, err := DecodeCorpusCache(blob)
	if err != nil {
		return nil, err
	}
	sections := make(map[string]string, len(c.files))
	for name, fc := range c.files {
		sections[name] = fc.section
	}
	return sections, nil
}
