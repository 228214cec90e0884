package confanon

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"confanon/internal/anonymizer"
)

// The line cache's binary layout (confanon.filecache/v2). Integers are
// unsigned LEB128 varints unless stated; a string is its varint length
// followed by its bytes.
//
//	blob    = schema "\n" | saltFP string | optsFP string | nfiles |
//	          nfiles × (varint len | section) | crc32 (4 bytes LE)
//	section = name string | sha256 (32 bytes) | text string | nlines |
//	          nlines × line
//	line    = hash (8 bytes LE) | outlen+1, or 0 for a dropped line |
//	          flags (1 byte) | banner delimiter (1 byte) |
//	          block string, absent under flagSameBlock
//
// The crc32 (IEEE) covers every byte before it. A line's output is not
// stored: the outputs of the kept lines, each followed by a newline, are
// the section's text, so a line's output is the next outlen bytes of it.
// The sections are sorted by name and self-contained, so a reused file's
// section is copied from the prior blob unchanged.

// Line flags.
const (
	flagInBanner       = 1 << iota // ResumeState.InBanner
	flagInBlockComment             // ResumeState.InBlockComment
	flagSameBlock                  // ResumeState.Block equals the previous line's ("" before line 0)
)

// minLineSize is the encoded size of the smallest line record.
const minLineSize = 8 + 1 + 1 + 1

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
	buf = appendString(buf, fc.text)
	buf = binary.AppendUvarint(buf, uint64(len(fc.lines)))
	block := ""
	for _, lc := range fc.lines {
		buf = binary.LittleEndian.AppendUint64(buf, lc.hash)
		var outLen uint64
		if !lc.drop {
			outLen = uint64(len(lc.out)) + 1
		}
		buf = binary.AppendUvarint(buf, outLen)
		var flags byte
		if lc.next.InBanner {
			flags |= flagInBanner
		}
		if lc.next.InBlockComment {
			flags |= flagInBlockComment
		}
		if lc.next.Block == block {
			flags |= flagSameBlock
		}
		buf = append(buf, flags, lc.next.BannerDelim)
		if flags&flagSameBlock == 0 {
			block = lc.next.Block
			buf = appendString(buf, block)
		}
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// DecodeCorpusCache parses a stored cache. It verifies the checksum and
// indexes the file sections; line records are decoded later, and only
// for the files a run resumes. A blob of any other schema, including
// the JSON of confanon.filecache/v1, is an error: the caller runs in
// full and records a new cache.
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

// indexSection reads a section's header, leaving its line records
// encoded. It returns a nil entry for a malformed section.
func indexSection(section string) (string, *fileCache) {
	r := cacheReader{s: section}
	name := r.str()
	fc := &fileCache{section: section}
	copy(fc.sum[:], r.take(sha256.Size))
	fc.text = r.str()
	n := r.uvarint()
	if r.bad || n > uint64(len(r.s)/minLineSize) {
		return "", nil
	}
	fc.n, fc.recs = int(n), r.s
	return name, fc
}

// decodeLines decodes fc's line records, checking that the kept lines'
// outputs tile its text exactly.
func (c *CorpusCache) decodeLines(fc *fileCache) ([]lineCache, error) {
	if fc.lines != nil || fc.n == 0 {
		return fc.lines, nil
	}
	c.lineDecodes.Add(1)
	r := cacheReader{s: fc.recs}
	lines := make([]lineCache, fc.n)
	off, block := 0, ""
	for i := range lines {
		lc := &lines[i]
		lc.hash = r.u64()
		outLen := r.uvarint()
		flags, delim := r.u8(), r.u8()
		if flags&flagSameBlock == 0 {
			block = r.str()
		}
		if r.bad || flags&^(flagInBanner|flagInBlockComment|flagSameBlock) != 0 {
			return nil, errCacheMalformed
		}
		lc.next = ResumeState{
			InBanner:       flags&flagInBanner != 0,
			BannerDelim:    delim,
			InBlockComment: flags&flagInBlockComment != 0,
			Block:          block,
		}
		if lc.drop = outLen == 0; !lc.drop {
			if outLen-1 >= uint64(len(fc.text)-off) || fc.text[off+int(outLen-1)] != '\n' {
				return nil, errCacheMalformed
			}
			lc.out = fc.text[off : off+int(outLen-1)]
			off += int(outLen)
		}
	}
	if r.s != "" || (off != len(fc.text) && !(off == 0 && fc.text == anonymizer.JoinOutputs(nil))) {
		return nil, errCacheMalformed
	}
	return lines, nil
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

func (r *cacheReader) u8() byte {
	if b := r.take(1); b != "" {
		return b[0]
	}
	return 0
}

// u64 reads a fixed 8-byte little-endian integer.
func (r *cacheReader) u64() uint64 {
	var v uint64
	b := r.take(8)
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func (r *cacheReader) str() string { return r.take(r.uvarint()) }
