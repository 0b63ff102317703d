package lifelong

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// ErrBodyTooLarge reports a request body above the caller's size cap. The
// cap applies to the *decoded* bytes, so a gzipped request cannot smuggle
// an oversized module past the limit (decompression-bomb guard).
var ErrBodyTooLarge = errors.New("request body exceeds the size limit")

// ReadBody reads a request body of at most max decoded bytes, honoring
// Content-Encoding: gzip. Module bodies compress 3-5x (bytecode is full of
// repeated opcodes and symbol bytes), so clients and the cluster's
// peer-to-peer transfers may ship gzip instead of whole uncompressed
// modules.
func ReadBody(r *http.Request, max int64) ([]byte, error) {
	var rd io.Reader = r.Body
	switch ce := strings.ToLower(strings.TrimSpace(r.Header.Get("Content-Encoding"))); ce {
	case "", "identity":
	case "gzip", "x-gzip":
		zr, err := gzip.NewReader(rd)
		if err != nil {
			return nil, fmt.Errorf("gzip body: %w", err)
		}
		defer zr.Close()
		rd = zr
	default:
		return nil, fmt.Errorf("unsupported Content-Encoding %q", ce)
	}
	data, err := io.ReadAll(io.LimitReader(rd, max+1))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if int64(len(data)) > max {
		return nil, ErrBodyTooLarge
	}
	return data, nil
}

// ReadPost is the body prologue of every endpoint that takes a request
// body, on the daemon, the cluster node and the front: POST or 405, then
// count (when non-nil), so requests refused for their body still count,
// then ReadBody, with 413 for a body over max and 400 for any other read
// failure. The failure also goes on the request's flight-recorder record.
// ok=false means the reply has been written.
func ReadPost(w http.ResponseWriter, r *http.Request, max int64, count *obs.Counter) (body []byte, ok bool) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w)
		return nil, false
	}
	count.Inc()
	body, err := ReadBody(r, max)
	if err != nil {
		obs.RecordFromContext(r.Context()).SetError(err.Error())
		if errors.Is(err, ErrBodyTooLarge) {
			obs.WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", max)
		} else {
			obs.WriteError(w, http.StatusBadRequest, "%v", err)
		}
		return nil, false
	}
	return body, true
}

func methodNotAllowed(w http.ResponseWriter) {
	obs.WriteError(w, http.StatusMethodNotAllowed, "POST the request body to this endpoint")
}

// acceptsGzip reports whether the client's Accept-Encoding admits gzip.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc := strings.TrimSpace(part)
		if i := strings.IndexByte(enc, ';'); i >= 0 {
			enc = strings.TrimSpace(enc[:i])
		}
		if strings.EqualFold(enc, "gzip") || strings.EqualFold(enc, "x-gzip") {
			return true
		}
	}
	return false
}

// gzipResponseWriter funnels the handler's writes through a gzip stream;
// headers and status pass through to the wrapped writer untouched.
type gzipResponseWriter struct {
	http.ResponseWriter
	gz *gzip.Writer
}

func (g *gzipResponseWriter) Write(p []byte) (int, error) { return g.gz.Write(p) }

// Compress wraps w in a gzip encoder when the request's Accept-Encoding
// admits it, returning the writer handlers should use plus a finish
// function that flushes the stream (call it after the handler returns —
// deferred). When the client did not ask for gzip, w comes back unchanged
// and finish is a no-op.
func Compress(w http.ResponseWriter, r *http.Request) (http.ResponseWriter, func()) {
	if !acceptsGzip(r) {
		return w, func() {}
	}
	w.Header().Set("Content-Encoding", "gzip")
	w.Header().Del("Content-Length")
	gz := gzip.NewWriter(w)
	return &gzipResponseWriter{ResponseWriter: w, gz: gz}, func() { gz.Close() }
}
