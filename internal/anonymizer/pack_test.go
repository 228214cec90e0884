package anonymizer

import (
	"encoding/json"
	"reflect"
	"testing"

	"confanon/internal/rulepack"
)

// TestBuiltinPackRoundTrip: the embedded canonical inventory survives a
// parse → canonical-encode → parse cycle byte-identically — the
// fingerprint is a function of content, not of source formatting — and
// its identity is the one the engine was built against.
func TestBuiltinPackRoundTrip(t *testing.T) {
	p, err := rulepack.Parse(builtinPackJSON)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "builtin" {
		t.Fatalf("embedded pack name = %q", p.Name)
	}
	enc, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	again, err := rulepack.Parse(enc)
	if err != nil {
		t.Fatalf("canonical encoding does not re-parse: %v", err)
	}
	if !reflect.DeepEqual(p, again) {
		t.Error("builtin pack does not round-trip through its canonical encoding")
	}
	enc2, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(enc2) {
		t.Error("canonical encoding is not byte-stable across a round trip")
	}
	if p.Meta() != again.Meta() {
		t.Errorf("identity drifted across round trip: %v -> %v", p.Meta(), again.Meta())
	}

	// The compiled inventory reports exactly this identity.
	rs, err := compileRuleSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.packs) != 1 || rs.packs[0] != p.Meta() {
		t.Errorf("compiled packs = %v, want [%v]", rs.packs, p.Meta())
	}
}
