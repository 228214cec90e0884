package confanon

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
)

// The file cache's binary layout (confanon.filecache/v3). Integers are
// unsigned LEB128 varints; a string is its varint length followed by
// its bytes.
//
//	blob    = schema "\n" | saltFP string | optsFP string | nfiles |
//	          nfiles × (varint len | section) | crc32 (4 bytes LE)
//	section = name string | sha256 (32 bytes) | text string
//
// The crc32 (IEEE) covers every byte before it. The sections are sorted
// by name and self-contained, so a reused file's section is copied from
// the prior blob unchanged.

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

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// DecodeCorpusCache parses a stored cache. It verifies the checksum and
// indexes the file sections; each file's output is a substring of one
// copy of the blob.
// A blob of any other schema, including the JSON of
// confanon.filecache/v1 and the line records of v2, is an error: the
// caller runs in full and records a new cache.
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
