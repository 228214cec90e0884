// Package rulepack defines the declarative rule-pack format
// (confanon.rulepack/v1): versioned, fingerprinted documents that
// describe anonymization rules as data — ID, class, scope, match spec,
// replacement action, documentation — so vendors and token classes can
// be added without recompiling the engine.
//
// A pack is JSON or a small TOML subset (toml.go); Parse sniffs the
// format. Validation is strict: unknown scopes, classes, or actions,
// duplicate rule IDs, uncompilable patterns, and a declared fingerprint
// that does not match the content all reject the pack at load time, so
// a pack that loads is a pack the engine can compile. The engine-side
// half of compilation — resolving builtin action references, merging
// packs into one dispatch inventory — lives in internal/anonymizer;
// this package owns everything that is a pure property of the document.
//
// Patterns use the internal/cregex dialect (the Cisco config-regexp
// language the paper's §4.4 machinery already parses) and match whole
// tokens, never substrings — the same anchoring MatchToken gives the
// AS-path rewriter.
package rulepack

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"confanon/internal/cregex"
)

// Schema identifies the pack document layout.
const Schema = "confanon.rulepack/v1"

// Scopes a rule may declare.
const (
	ScopeLine       = "line"
	ScopeStructural = "structural"
	ScopeToken      = "token"
	ScopeReport     = "report"
)

// Classes group rules by the paper's §4.2 taxonomy (plus the extension
// classes the engine already registers).
var validClasses = map[string]bool{
	"segmentation": true, "comment": true, "misc": true, "name": true,
	"asn": true, "ip": true, "community": true, "leak": true,
}

// Actions a declarative rule may request, by scope. Every action
// anonymizes or removes — there is deliberately no action that passes a
// value through or suppresses a leak finding, so loading a pack can
// only strengthen the output, never weaken strict gating.
var lineActions = map[string]bool{
	"hash": true, "hash-segments": true, "digits": true, "drop-line": true,
}
var tokenActions = map[string]bool{
	"hash": true, "hash-segments": true, "digits": true, "mac": true,
}
var reportActions = map[string]bool{"flag": true}

// Match is a declarative match spec. Exactly the fields meaningful for
// the rule's scope may be set (see validate).
type Match struct {
	// Pattern is a cregex pattern matched against whole tokens.
	Pattern string `json:"pattern,omitempty"`
	// Word is a literal word trigger for line rules: the rule fires when
	// the word appears after the first word, and the action applies to
	// everything after it.
	Word string `json:"word,omitempty"`

	re *cregex.Regexp
}

// MatchToken reports whether the compiled pattern accepts the token.
// Only valid after the pack validated (the pattern is compiled then).
func (m *Match) MatchToken(tok string) bool {
	return m.re != nil && m.re.MatchToken(tok)
}

// Rule is one declarative rule.
type Rule struct {
	// ID names the rule uniquely within the merged inventory of a
	// compiled program (pack-local duplicates are rejected here,
	// cross-pack duplicates at compile time).
	ID string `json:"id"`
	// RuleID is the taxonomy identity the rule's hits are counted
	// under: a built-in rule, or one defined earlier in the packs of the
	// same compiled program. Empty means the rule counts under its own
	// ID.
	RuleID string `json:"rule_id,omitempty"`
	// Class places the rule in the §4.2 taxonomy.
	Class string `json:"class"`
	// Scope says where in the pipeline the rule runs.
	Scope string `json:"scope"`
	// Keys are the first-word literals that trigger a line rule; empty
	// means the rule is consulted for every line.
	Keys []string `json:"keys,omitempty"`
	// Builtin references an engine-builtin action by entry name. A rule
	// is either a builtin reference (the embedded canonical pack) or a
	// declarative match/action rule — never both.
	Builtin string `json:"builtin,omitempty"`
	// Match is the declarative match spec.
	Match *Match `json:"match,omitempty"`
	// Action is the declarative replacement action.
	Action string `json:"action,omitempty"`
	// Doc is the one-line human account of what the rule recognizes.
	Doc string `json:"doc"`
}

// Pack is one parsed, validated rule pack.
type Pack struct {
	SchemaID string `json:"schema"`
	Name     string `json:"name"`
	Version  string `json:"version"`
	// Fingerprint is the content fingerprint ("sha256:<hex>"), computed
	// over the canonical encoding of everything above it. A fingerprint
	// declared in the source document must match the computed one.
	Fingerprint string `json:"fingerprint,omitempty"`
	Rules       []Rule `json:"rules"`
}

// Meta is the identity triple threaded through reports and policy
// fingerprints.
type Meta struct {
	Name        string `json:"name"`
	Version     string `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

// Meta returns the pack's identity triple.
func (p *Pack) Meta() Meta {
	return Meta{Name: p.Name, Version: p.Version, Fingerprint: p.Fingerprint}
}

// String renders a Meta as "name@version (sha256:abcdef123456…)".
func (m Meta) String() string {
	fp := m.Fingerprint
	if len(fp) > len("sha256:")+12 {
		fp = fp[:len("sha256:")+12] + "…"
	}
	return m.Name + "@" + m.Version + " (" + fp + ")"
}

// Parse decodes and validates a pack, sniffing JSON ('{' first) versus
// the TOML subset.
func Parse(data []byte) (*Pack, error) {
	for _, c := range data {
		switch c {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return ParseJSON(data)
		default:
			return ParseTOML(data)
		}
	}
	return nil, fmt.Errorf("rulepack: empty document")
}

// ParseJSON decodes and validates a JSON pack. Unknown fields are
// rejected — a typoed field name must not silently disable a rule.
func ParseJSON(data []byte) (*Pack, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p Pack
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("rulepack: %v", err)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// validate checks the document and compiles every pattern; on success
// the computed fingerprint is installed (and checked against a declared
// one).
func (p *Pack) validate() error {
	if p.SchemaID != Schema {
		return fmt.Errorf("rulepack: schema %q is not %q", p.SchemaID, Schema)
	}
	if !validName(p.Name) {
		return fmt.Errorf("rulepack: pack name %q must be a lowercase [a-z0-9-] token", p.Name)
	}
	if p.Version == "" {
		return fmt.Errorf("rulepack %s: missing version", p.Name)
	}
	if len(p.Rules) == 0 {
		return fmt.Errorf("rulepack %s: no rules", p.Name)
	}
	seen := make(map[string]bool, len(p.Rules))
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.ID == "" {
			return fmt.Errorf("rulepack %s: rule %d has no id", p.Name, i)
		}
		if seen[r.ID] {
			return fmt.Errorf("rulepack %s: duplicate rule id %q", p.Name, r.ID)
		}
		seen[r.ID] = true
		if err := r.validate(); err != nil {
			return fmt.Errorf("rulepack %s: rule %q: %v", p.Name, r.ID, err)
		}
	}
	computed := p.fingerprint()
	if p.Fingerprint != "" && p.Fingerprint != computed {
		return fmt.Errorf("rulepack %s: declared fingerprint %s does not match content %s",
			p.Name, p.Fingerprint, computed)
	}
	p.Fingerprint = computed
	return nil
}

func (r *Rule) validate() error {
	if !validClasses[r.Class] {
		return fmt.Errorf("unknown class %q", r.Class)
	}
	switch r.Scope {
	case ScopeLine, ScopeStructural, ScopeToken, ScopeReport:
	default:
		return fmt.Errorf("unknown scope %q", r.Scope)
	}
	if r.Builtin != "" {
		// Builtin reference: the match and action come from engine code;
		// declaring them here would be dead configuration.
		if r.Match != nil || r.Action != "" {
			return fmt.Errorf("builtin reference cannot carry match or action")
		}
		return nil
	}
	// Declarative rule.
	switch r.Scope {
	case ScopeStructural:
		return fmt.Errorf("structural rules are builtin-only (cross-line state is engine code)")
	case ScopeLine:
		if !lineActions[r.Action] {
			return fmt.Errorf("unknown line action %q", r.Action)
		}
		if len(r.Keys) == 0 && (r.Match == nil || (r.Match.Pattern == "" && r.Match.Word == "")) {
			return fmt.Errorf("line rule needs keys, a match word, or a match pattern")
		}
	case ScopeToken:
		if !tokenActions[r.Action] {
			return fmt.Errorf("unknown token action %q", r.Action)
		}
		if len(r.Keys) != 0 || r.Match == nil || r.Match.Pattern == "" || r.Match.Word != "" {
			return fmt.Errorf("token rule needs exactly a match pattern")
		}
	case ScopeReport:
		if !reportActions[r.Action] {
			return fmt.Errorf("unknown report action %q", r.Action)
		}
		if len(r.Keys) != 0 || r.Match == nil || r.Match.Pattern == "" || r.Match.Word != "" {
			return fmt.Errorf("report rule needs exactly a match pattern")
		}
	}
	if r.Match != nil && r.Match.Pattern != "" {
		re, err := cregex.Parse(r.Match.Pattern)
		if err != nil {
			return fmt.Errorf("pattern: %v", err)
		}
		r.Match.re = re
	}
	return nil
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}

// fingerprint computes the canonical content fingerprint: SHA-256 over
// the deterministic JSON encoding of the document with the fingerprint
// field cleared. Key order is fixed by the struct definitions, so two
// documents with the same content — regardless of source format or
// field order — fingerprint identically.
func (p *Pack) fingerprint() string {
	shadow := *p
	shadow.Fingerprint = ""
	enc, err := json.Marshal(&shadow)
	if err != nil {
		// Marshalling plain structs of strings cannot fail.
		panic("rulepack: canonical encoding failed: " + err.Error())
	}
	sum := sha256.Sum256(enc)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// FingerprintsOf renders a stable, comma-separated summary of pack
// identities — the component bench policy fingerprints embed. Sorted by
// name so the summary is independent of load order.
func FingerprintsOf(metas []Meta) string {
	if len(metas) == 0 {
		return "none"
	}
	parts := make([]string, len(metas))
	for i, m := range metas {
		fp := strings.TrimPrefix(m.Fingerprint, "sha256:")
		if len(fp) > 12 {
			fp = fp[:12]
		}
		parts[i] = m.Name + "@" + m.Version + ":" + fp
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
