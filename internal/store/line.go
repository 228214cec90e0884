package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unicode/utf8"
)

// envelope is the CRC frame around every line: C is the IEEE CRC-32 of
// the exact bytes of R as written (json.RawMessage round-trips them
// verbatim).
type envelope struct {
	C uint32          `json:"c"`
	R json.RawMessage `json:"r"`
}

// errCRC reports a line whose record bytes do not match their CRC.
var errCRC = errors.New("crc mismatch")

// encodeLine frames one record.
func encodeLine(r Record) ([]byte, error) {
	inner, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(envelope{C: crc32.ChecksumIEEE(inner), R: inner})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// decodeLine unframes one line into rec, verifying the CRC. A line in
// the exact form encodeLine writes is parsed byte by byte; any other
// line (an escaped string, a reordered key, whitespace) goes through
// decodeLineJSON, so both paths accept the same lines and agree on the
// Record and on the class of error. rec is zero after an error. Replay
// decodes every line into one Record, so no record is copied on its way
// into the state.
func decodeLine(line []byte, rec *Record) error {
	crc, raw, ok := parseLine(line, rec)
	if !ok {
		var err error
		*rec, err = decodeLineJSON(line)
		return err
	}
	if crc32.ChecksumIEEE(raw) != crc {
		*rec = Record{}
		return errCRC
	}
	return nil
}

// decodeLineJSON is decodeLine through encoding/json.
func decodeLineJSON(line []byte) (Record, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return Record{}, fmt.Errorf("bad envelope: %w", err)
	}
	if crc32.ChecksumIEEE(env.R) != env.C {
		return Record{}, errCRC
	}
	var rec Record
	if err := json.Unmarshal(env.R, &rec); err != nil {
		return Record{}, fmt.Errorf("bad record: %w", err)
	}
	return rec, nil
}

// Record's JSON keys, numbered in the order json.Marshal writes them;
// parseRecord accepts each at most once, in this order.
const (
	keyT = iota
	keyIn
	keyOut
	keyV
	keyASN
	keyPrefix
	keyLen
	keySchema
	keySaltFP
	keySeg
	keyN
)

// recordKey returns the number of a Record key, or -1.
func recordKey(key []byte) int {
	switch string(key) {
	case "t":
		return keyT
	case "in":
		return keyIn
	case "out":
		return keyOut
	case "v":
		return keyV
	case "asn":
		return keyASN
	case "prefix":
		return keyPrefix
	case "len":
		return keyLen
	case "schema":
		return keySchema
	case "salt_fp":
		return keySaltFP
	case "seg":
		return keySeg
	case "n":
		return keyN
	}
	return -1
}

// parseLine parses `{"c":N,"r":{...}}` into rec, returning the CRC and
// the raw record bytes it covers. ok is false for any line outside that
// form; such a line may still be valid JSON, and rec is then undefined.
func parseLine(line []byte, rec *Record) (crc uint32, raw []byte, ok bool) {
	const head, mid = `{"c":`, `,"r":`
	if !bytes.HasPrefix(line, []byte(head)) {
		return 0, nil, false
	}
	c, i, ok := parseUint(line, len(head), math.MaxUint32)
	if !ok || !bytes.HasPrefix(line[i:], []byte(mid)) || line[len(line)-1] != '}' {
		return 0, nil, false
	}
	raw = line[i+len(mid) : len(line)-1]
	if !parseAddrRecord(raw, rec) && !parseRecord(raw, rec) {
		return 0, nil, false
	}
	return uint32(c), raw, true
}

// parseAddrRecord parses the two address records, which are nearly all
// of a ledger, in the form encodeLine writes them:
// {"t":"ip","in":N,"out":M} and {"t":"oip","in":N}. It reports false for
// anything else, including these records with a zero address left out;
// parseRecord then reads the record key by key, and gives the same
// Record for every record this accepts.
func parseAddrRecord(b []byte, rec *Record) bool {
	const ip, oip, out = `{"t":"ip","in":`, `{"t":"oip","in":`, `,"out":`
	t, i := TIP, len(ip)
	if !bytes.HasPrefix(b, []byte(ip)) {
		if !bytes.HasPrefix(b, []byte(oip)) {
			return false
		}
		t, i = TOrigIP, len(oip)
	}
	in, i, ok := parseUint(b, i, math.MaxUint32)
	if !ok {
		return false
	}
	var o uint64
	if t == TIP {
		if !bytes.HasPrefix(b[i:], []byte(out)) {
			return false
		}
		if o, i, ok = parseUint(b, i+len(out), math.MaxUint32); !ok {
			return false
		}
	}
	if i+1 != len(b) || b[i] != '}' {
		return false
	}
	*rec = Record{T: t, In: uint32(in), Out: uint32(o)}
	return true
}

// parseRecord parses the record object of a line into rec: string
// values without escapes, non-negative integers without sign, fraction
// or exponent, keys in json.Marshal order and no whitespace.
func parseRecord(b []byte, rec *Record) bool {
	*rec = Record{}
	if len(b) < 2 || b[0] != '{' {
		return false
	}
	if len(b) == 2 {
		return b[1] == '}'
	}
	i, next := 1, 0
	for {
		key, j, ok := parseString(b, i)
		if !ok || j >= len(b) || b[j] != ':' {
			return false
		}
		k := recordKey(key)
		if k < next {
			return false
		}
		next, i = k+1, j+1
		switch k {
		case keyT, keyV, keySchema, keySaltFP:
			var s []byte
			if s, i, ok = parseString(b, i); !ok {
				return false
			}
			switch k {
			case keyT:
				rec.T = recordType(s)
			case keyV:
				rec.V = string(s)
			case keySchema:
				rec.Schema = string(s)
			default:
				rec.SaltFP = string(s)
			}
		case keyIn, keyOut, keyASN, keyPrefix:
			var v uint64
			if v, i, ok = parseUint(b, i, math.MaxUint32); !ok {
				return false
			}
			switch k {
			case keyIn:
				rec.In = uint32(v)
			case keyOut:
				rec.Out = uint32(v)
			case keyASN:
				rec.ASN = uint32(v)
			default:
				rec.Prefix = uint32(v)
			}
		default: // keyLen, keySeg, keyN
			var v uint64
			if v, i, ok = parseUint(b, i, math.MaxInt); !ok {
				return false
			}
			switch k {
			case keyLen:
				rec.Len = int(v)
			case keySeg:
				rec.Seg = int(v)
			default:
				rec.N = int(v)
			}
		}
		if i >= len(b) {
			return false
		}
		if b[i] == '}' {
			return i+1 == len(b)
		}
		if b[i] != ',' {
			return false
		}
		i++
	}
}

// recordType returns the record type constant s spells, so the common
// types cost no allocation.
func recordType(s []byte) string {
	switch string(s) {
	case TIP:
		return TIP
	case TOrigIP:
		return TOrigIP
	case TWord:
		return TWord
	case TASN:
		return TASN
	case TSensitive:
		return TSensitive
	case TRelation:
		return TRelation
	case TCommit:
		return TCommit
	case TOpen:
		return TOpen
	}
	return string(s)
}

// parseString parses a JSON string starting at b[i] that holds no
// escape, no control byte and only valid UTF-8, returning its contents
// and the index after the closing quote.
func parseString(b []byte, i int) (s []byte, end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	ascii := true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			s = b[i+1 : j]
			if !ascii && !utf8.Valid(s) {
				return nil, 0, false
			}
			return s, j + 1, true
		case c == '\\' || c < 0x20:
			return nil, 0, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, 0, false
}

// parseUint parses a JSON number starting at b[i] that is a
// non-negative integer no larger than max, returning it and the index
// after its last digit. Numbers of 19 digits or more are left to
// encoding/json.
func parseUint(b []byte, i int, max uint64) (v uint64, end int, ok bool) {
	j := i
	for ; j < len(b) && '0' <= b[j] && b[j] <= '9'; j++ {
		if j-i == 18 {
			return 0, 0, false
		}
		v = v*10 + uint64(b[j]-'0')
	}
	if j == i || (b[i] == '0' && j > i+1) || v > max {
		return 0, 0, false
	}
	return v, j, true
}
