package confanon

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"confanon/internal/anonymizer"
)

// The file cache's binary layout (confanon.filecache/v4). Integers are
// unsigned LEB128 varints; a string is its varint length followed by
// its bytes.
//
//	blob    = schema "\n" | saltFP string | optsFP string | gate |
//	          nfiles | nfiles × (varint len | section) |
//	          crc32 (4 bytes LE)
//	gate    = strict (0 or 1) | revision | nASNs | nWords | nIPs |
//	          nquar | nquar × name string
//	section = name string | sha256 (32 bytes) | text string
//
// The gate record says whether the run gated under Options.Strict, the
// anonymizer.GateRevision it gated under, the recorder's sizes per kind
// it gated against, and the names of the files it quarantined, in
// ascending order. The crc32 (IEEE) covers every byte before it. The
// sections are sorted by name and self-contained, so a reused file's
// section is copied from the prior blob unchanged.

// errCacheMalformed reports a blob whose checksum holds but whose
// structure does not.
var errCacheMalformed = errors.New("corpus cache: malformed " + CorpusCacheSchema + " blob")

// Encode serializes the cache for storage. The sections of entries
// decoded from a prior blob are copied verbatim.
func (c *CorpusCache) Encode() ([]byte, error) {
	names := make([]string, 0, len(c.files))
	size := 64
	for n, fc := range c.files {
		names = append(names, n)
		size += len(fc.section) + len(fc.text) + len(n) + 64
	}
	sort.Strings(names)
	buf := make([]byte, 0, size)
	buf = append(buf, CorpusCacheSchema+"\n"...)
	buf = appendString(buf, c.saltFP)
	buf = appendString(buf, c.optsFP)
	buf = c.gate.append(buf)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	var scratch []byte
	for _, n := range names {
		fc := c.files[n]
		if fc.section != "" {
			buf = appendString(buf, fc.section)
			continue
		}
		scratch = fc.appendSection(scratch[:0], n)
		buf = binary.AppendUvarint(buf, uint64(len(scratch)))
		buf = append(buf, scratch...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// appendSection appends the encoding of a built entry's section.
func (fc *fileCache) appendSection(buf []byte, name string) []byte {
	buf = appendString(buf, name)
	buf = append(buf, fc.sum[:]...)
	return appendString(buf, fc.text)
}

// append appends the encoding of the gate record.
func (g *gateRecord) append(buf []byte) []byte {
	strict := uint64(0)
	if g.strict {
		strict = 1
	}
	for _, v := range []uint64{strict, g.revision, uint64(g.sizes.ASNs), uint64(g.sizes.Words), uint64(g.sizes.IPs), uint64(len(g.quarantined))} {
		buf = binary.AppendUvarint(buf, v)
	}
	for _, n := range g.quarantined {
		buf = appendString(buf, n)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// DecodeCorpusCache parses a stored cache. It verifies the checksum and
// indexes the file sections; each file's output is a substring of one
// copy of the blob.
// A blob of any other schema, including the JSON of
// confanon.filecache/v1, the line records of v2 and the gate-less v3,
// is an error: the caller runs in full and records a new cache.
func DecodeCorpusCache(data []byte) (*CorpusCache, error) {
	head := CorpusCacheSchema + "\n"
	if !bytes.HasPrefix(data, []byte(head)) {
		return nil, fmt.Errorf("corpus cache: unsupported schema (want %s)", CorpusCacheSchema)
	}
	body := len(data) - 4
	if body < len(head) || crc32.ChecksumIEEE(data[:body]) != binary.LittleEndian.Uint32(data[body:]) {
		return nil, errors.New("corpus cache: checksum mismatch")
	}
	r := cacheReader{s: string(data[len(head):body])}
	c := &CorpusCache{saltFP: r.str(), optsFP: r.str(), files: make(map[string]*fileCache)}
	if !r.gate(&c.gate) {
		return nil, errCacheMalformed
	}
	for n := r.uvarint(); n > 0 && !r.bad; n-- {
		section := r.str()
		name, fc := indexSection(section)
		if _, dup := c.files[name]; fc == nil || dup {
			return nil, errCacheMalformed
		}
		c.files[name] = fc
	}
	if r.bad || r.s != "" {
		return nil, errCacheMalformed
	}
	return c, nil
}

// indexSection reads a section. It returns a nil entry for a malformed
// section.
func indexSection(section string) (string, *fileCache) {
	r := cacheReader{s: section}
	name := r.str()
	fc := &fileCache{section: section}
	copy(fc.sum[:], r.take(sha256.Size))
	fc.text = r.str()
	if r.bad || r.s != "" {
		return "", nil
	}
	return name, fc
}

// gate reads a gate record into g. It reports false for a malformed
// one: a strict flag other than 0 or 1, a size past an int, or
// quarantined names out of ascending order.
func (r *cacheReader) gate(g *gateRecord) bool {
	strict, rev := r.uvarint(), r.uvarint()
	var sizes [3]uint64
	for i := range sizes {
		if sizes[i] = r.uvarint(); sizes[i] > math.MaxInt32 {
			return false
		}
	}
	*g = gateRecord{strict: strict == 1, revision: rev,
		sizes: anonymizer.RecorderSizes{ASNs: int(sizes[0]), Words: int(sizes[1]), IPs: int(sizes[2])}}
	for n := r.uvarint(); n > 0 && !r.bad; n-- {
		name := r.str()
		if k := len(g.quarantined); k > 0 && name <= g.quarantined[k-1] {
			return false
		}
		g.quarantined = append(g.quarantined, name)
	}
	return strict <= 1 && !r.bad
}

// cacheReader consumes the fields of a cache blob; the first field that
// runs past the end sets bad, and every later read returns zero.
type cacheReader struct {
	s   string
	bad bool
}

func (r *cacheReader) take(n uint64) string {
	if r.bad || n > uint64(len(r.s)) {
		r.bad = true
		return ""
	}
	v := r.s[:n]
	r.s = r.s[n:]
	return v
}

func (r *cacheReader) uvarint() uint64 {
	var v uint64
	for i := 0; !r.bad && i < len(r.s) && i < binary.MaxVarintLen64; i++ {
		b := r.s[i]
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			r.s = r.s[i+1:]
			return v
		}
	}
	r.bad = true
	return 0
}

func (r *cacheReader) str() string { return r.take(r.uvarint()) }
