package portal

// This file is the portal's server-side anonymization layer: the §7
// clearinghouse accepting RAW configurations from owners who trust the
// portal operator to anonymize for them (POST /datasets/raw, and POST
// /jobs, whose queue worker runs the same publishRaw). The security
// property the layer must keep is per-owner mapping
// consistency: everything one owner ever uploads under one secret salt
// must be anonymized under one mapping, so that a prefix shared between
// two uploads — or two files of one upload arriving on different
// goroutines — maps to the same anonymized prefix.
//
// The confanon Program/Session split carries exactly that shape: the
// portal compiles one Program per owner salt and holds its single live
// Session for the Store's lifetime. Sessions are safe for concurrent
// use, so simultaneous uploads from one owner need no serialization
// here — they share the Session's worker pool and mapping directly.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"

	"confanon"
	"confanon/internal/jobs"
)

// rawWorkers is the parallelism of one raw upload's anonymization run.
const rawWorkers = 4

// anonSessions holds the per-owner-salt anonymization sessions. With a
// stateDir configured, each owner's Session is backed by a durable
// mapping ledger in its own subdirectory (named by the salt digest):
// the ledger is opened — and any prior runs' committed mappings
// replayed — the first time the owner's salt is seen, so a restarted
// portal continues every owner's mapping exactly where the previous
// process left it, including after a crash mid-upload (clean file
// boundaries commit; the interrupted file never half-persists).
type anonSessions struct {
	mu       sync.Mutex
	sessions map[string]*confanon.Anonymizer
	stores   map[string]*confanon.MappingStore
	stateDir string
	reg      *confanon.MetricsRegistry
}

func newAnonSessions() *anonSessions {
	return &anonSessions{
		sessions: make(map[string]*confanon.Anonymizer),
		stores:   make(map[string]*confanon.MappingStore),
	}
}

// forSalt returns the owner's Session, compiling its Program — and,
// with a state directory configured, opening and replaying the owner's
// mapping ledger — on first use. The map (and the ledger subdirectory)
// is keyed by ownerKey(salt), never the salt itself; when rule
// packs are selected (resolved by the Store's allowlist; packKey
// canonically names the selection) the session and its ledger are
// keyed by salt digest plus selection, so runs under different pack
// sets never interleave one ledger. Anonymization is strict: a file
// whose leak report is not clean is quarantined, never stored.
func (p *anonSessions) forSalt(salt []byte, packs []*confanon.RulePack, packKey string) (*confanon.Anonymizer, error) {
	id := ownerKey(salt)
	if packKey != "" {
		id += "-" + packKey
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if a, ok := p.sessions[id]; ok {
		return a, nil
	}
	prog, err := confanon.CompileChecked(confanon.Options{
		Salt:      append([]byte(nil), salt...),
		Strict:    true,
		Metrics:   p.reg,
		RulePacks: packs,
	})
	if err != nil {
		// resolveRulePacks pre-checked the combination, so a failure here
		// is an engine-level surprise, not client input: surface it.
		return nil, fmt.Errorf("compiling rules: %w", err)
	}
	a := prog.NewSession()
	if p.stateDir != "" {
		ms, err := confanon.OpenMappingStore(filepath.Join(p.stateDir, id), salt)
		if err != nil {
			return nil, fmt.Errorf("opening mapping ledger: %w", err)
		}
		if err := a.UseStore(ms); err != nil {
			ms.Close()
			return nil, fmt.Errorf("replaying mapping ledger: %w", err)
		}
		p.stores[id] = ms
	}
	p.sessions[id] = a
	return a, nil
}

// ownerKey is the one owner digest: it names the owner's Session and
// ledger directory and keys the owner's job quotas — the salt's sha256,
// never the salt itself.
func ownerKey(salt []byte) string {
	sum := sha256.Sum256(salt)
	return hex.EncodeToString(sum[:])
}

// close closes every open mapping ledger (flushing buffered appends)
// and forgets the sessions, returning the first close error.
func (p *anonSessions) close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var first error
	for id, ms := range p.stores {
		if err := ms.Close(); err != nil && first == nil {
			first = err
		}
		delete(p.stores, id)
		delete(p.sessions, id)
	}
	return first
}

type rawUploadRequest struct {
	Label string            `json:"label"`
	Salt  string            `json:"salt"`
	Files map[string]string `json:"files"`
	// RulePacks names admin-registered rule packs to load, in merge
	// order; an unregistered name is a 422. Clients never send pack
	// content — only references into the operator's allowlist.
	RulePacks []string `json:"rule_packs,omitempty"`
}

// decodeRawRequest reads and validates a raw-corpus request — the one
// intake contract POST /datasets/raw and POST /jobs share: body limit,
// JSON decode, no files or no salt (400), shape limits and unknown or
// conflicting rule packs (422). On failure the response is written and
// ok is false.
func (s *Store) decodeRawRequest(w http.ResponseWriter, r *http.Request) (spec jobs.Spec, ok bool) {
	if s.limits.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.limits.MaxBodyBytes)
	}
	var req rawUploadRequest
	if err := decodeJSONBody(w, r, &req); err != nil {
		return spec, false // decodeJSONBody wrote the response
	}
	if len(req.Files) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "no files"})
		return spec, false
	}
	if req.Salt == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "salt required (it keys your anonymization mapping)"})
		return spec, false
	}
	if problems := s.checkLimits(req.Files); len(problems) > 0 {
		writeJSON(w, http.StatusUnprocessableEntity, uploadResponse{Problems: problems})
		return spec, false
	}
	// Pack references resolve against the allowlist at intake — a 202
	// must never be followed by a deterministic unknown-pack failure the
	// client could have been told about now.
	if _, _, err := s.resolveRulePacks(req.RulePacks); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, uploadResponse{Problems: []string{err.Error()}})
		return spec, false
	}
	return jobs.Spec{
		Owner:     ownerKey([]byte(req.Salt)),
		Label:     req.Label,
		Salt:      []byte(req.Salt),
		Files:     req.Files,
		RulePacks: req.RulePacks,
	}, true
}

// publishRaw is the one publish path for raw corpora, synchronous or
// queued: it anonymizes the whole corpus in a single run under the
// owner's persistent Session (strict leak-gating, parallel workers),
// commits the mapping ledger, and — only if every file is clean —
// stores the output under anonymized file names after the usual upload
// screening. Fail-closed end to end: any failed or quarantined file
// withholds the whole dataset and out.Problems names each one. An error
// means the run did not complete and nothing was published.
func (s *Store) publishRaw(ctx context.Context, spec jobs.Spec) (res *confanon.CorpusResult, out uploadResponse, err error) {
	// Packs resolve again at run time: a job resumed after a restart runs
	// only if the packs it named are still registered (the queue persists
	// names, never pack content).
	packs, packKey, err := s.resolveRulePacks(spec.RulePacks)
	if err != nil {
		return nil, out, fmt.Errorf("rule packs unavailable: %w", err)
	}
	sess, err := s.anon.forSalt(spec.Salt, packs, packKey)
	if err != nil {
		return nil, out, fmt.Errorf("anonymization session unavailable: %w", err)
	}
	res, err = sess.ParallelCorpusContext(ctx, spec.Files, rawWorkers)
	if err != nil {
		return nil, out, fmt.Errorf("anonymization aborted: %w", err)
	}
	// Durability before publication: if the mapping delta cannot be
	// committed, storing the outputs would orphan them from any future
	// consistent run — fail instead.
	if err := sess.SyncStore(); err != nil {
		return nil, out, fmt.Errorf("mapping ledger commit failed: %w", err)
	}
	if !res.Ok() {
		for _, fe := range res.Failed() {
			out.Problems = append(out.Problems, fmt.Sprintf("%s: processing failed: %v", fe.Name, fe.Cause))
		}
		for _, name := range res.Quarantined() {
			fr := res.Files[name]
			out.Problems = append(out.Problems, fmt.Sprintf("%s: quarantined (%d confirmed leaks, first: %s)", name, len(fr.Leaks), fr.Leaks[0]))
		}
		sort.Strings(out.Problems)
		return res, out, nil
	}
	// File names are usually hostname-derived; store them anonymized too.
	renamed := make(map[string]string, len(res.Files))
	for name, text := range res.Outputs() {
		renamed[sess.RenameFile(name)] = text
	}
	out.ID, out.OwnerToken, out.Problems = s.Upload(spec.Label, renamed)
	return res, out, nil
}

// handleUploadRaw is POST /datasets/raw: raw configurations plus the
// owner's salt, anonymized and published synchronously by publishRaw.
func (s *Store) handleUploadRaw(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.decodeRawRequest(w, r)
	if !ok {
		return
	}
	_, out, err := s.publishRaw(r.Context(), spec)
	switch {
	case err != nil:
		s.slog().Error("raw upload failed", "err", err)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	case len(out.Problems) > 0:
		writeJSON(w, http.StatusUnprocessableEntity, out)
	default:
		writeJSON(w, http.StatusCreated, out)
	}
}

// decodeJSONBody decodes a JSON request body with the shared too-large /
// malformed error responses; on error the response is already written.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v interface{}) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				map[string]string{"error": fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return err
		}
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed JSON: " + err.Error()})
		return err
	}
	return nil
}
