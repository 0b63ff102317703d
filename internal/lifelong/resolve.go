package lifelong

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tooling"
)

// Admitted is a request body resolved to its module's content address.
type Admitted struct {
	// Hash is the SHA-256 of Canonical, the address stores, caches and the
	// cluster ring key the module by.
	Hash string
	// Canonical is the module's canonical bytecode: the body itself when
	// Known, else the encoding of Module.
	Canonical []byte
	// Module is the parsed and verified module; nil when Known.
	Module *core.Module
	// Known reports the body's digest was vouched for by the caller's
	// known, so the body was never parsed.
	Known bool
}

// Resolve answers "which module is this body?" for every serving
// endpoint, on the daemon and the front alike. The digest comes first:
// bytes whose digest known accepts are their own canonical form and are
// not parsed. Each caller supplies its own meaning of known, and must only
// accept digests of the canonical encoding of a verified module. Any other
// body (assembly text, non-canonical bytecode, canonical bytes not known
// yet) is parsed, verified, encoded and hashed here, once; the digest
// already taken is kept when the encoding is the body itself. An empty
// body is refused before it is hashed: it would parse as an empty module.
// The error text starts "parsing module:" or "module invalid:".
func Resolve(body []byte, known func(digest string) bool) (Admitted, error) {
	if len(body) == 0 {
		return Admitted{}, errors.New("parsing module: empty body")
	}
	hash := bytecode.HashBytes(body)
	if known(hash) {
		return Admitted{Hash: hash, Canonical: body, Known: true}, nil
	}
	m, err := tooling.LoadModuleBytes("request", body)
	if err != nil {
		return Admitted{}, fmt.Errorf("parsing module: %w", err)
	}
	if err := core.Verify(m); err != nil {
		return Admitted{}, fmt.Errorf("module invalid: %w", err)
	}
	canonical, err := bytecode.Encode(m)
	if err != nil {
		return Admitted{}, fmt.Errorf("encoding module: %w", err)
	}
	if !bytes.Equal(canonical, body) {
		hash = bytecode.HashBytes(canonical)
	}
	return Admitted{Hash: hash, Canonical: canonical, Module: m}, nil
}

// Admit is the prologue of every serving endpoint, on the daemon and the
// front: ReadPost, then Resolve against known, with 422 for a body that is
// no valid module. learn is handed the address of each module Resolve had
// to parse, so the caller can remember it (the daemon stores it, the front
// adds it to its known set); an error from it is a 500. The read-parse
// phase covers all of that, and knownCount counts the bodies known vouched
// for. A refusal's cause goes on the request's flight-recorder record, as
// ReadPost's do. ok=false means the reply has been written.
func Admit(w http.ResponseWriter, r *http.Request, max int64, count, knownCount *obs.Counter,
	known func(digest string) bool, learn func(hash string, canonical []byte) error) (a Admitted, ok bool) {
	tRead := time.Now()
	body, ok := ReadPost(w, r, max, count)
	if !ok {
		return a, false
	}
	rec := obs.RecordFromContext(r.Context())
	a, err := Resolve(body, known)
	if err != nil {
		rec.SetError(err.Error())
		obs.WriteError(w, http.StatusUnprocessableEntity, "%v", err)
		return a, false
	}
	if a.Known {
		knownCount.Inc()
	} else if err := learn(a.Hash, a.Canonical); err != nil {
		err = fmt.Errorf("storing module: %w", err)
		rec.SetError(err.Error())
		obs.WriteError(w, http.StatusInternalServerError, "%v", err)
		return a, false
	}
	rec.AddPhase("read-parse", time.Since(tRead))
	return a, true
}
