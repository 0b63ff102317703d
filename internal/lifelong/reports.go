package lifelong

import (
	"bytes"
	"net/http"
	"strconv"

	"repro/internal/bytecode"
	"repro/internal/checker"
	"repro/internal/obs"
)

// reportMagic opens a stored /check report. The header line names the
// module, the digest of the reply that follows it and the checker.Version
// that produced it, so a blob planted under another module's key, cut
// short, altered or kept from another checker is refused instead of
// served, whatever the store index says. A report is therefore served only
// for its (module hash, checker.Version) key.
const reportMagic = "LLRP1"

func reportHeader(hash, replySum string) string {
	return reportMagic + " " + hash + " " + replySum + " " + strconv.Quote(checker.Version) + "\n"
}

// encodeReport frames a /check reply for the module at hash as a report
// blob.
func encodeReport(hash string, reply []byte) []byte {
	return append([]byte(reportHeader(hash, bytecode.HashBytes(reply))), reply...)
}

// decodeReport returns the reply a report blob holds, or false when the
// blob is not the report of the module at hash under the current
// checker.Version.
func decodeReport(blob []byte, hash string) ([]byte, bool) {
	i := bytes.IndexByte(blob, '\n')
	if i < 0 {
		return nil, false
	}
	reply := blob[i+1:]
	if string(blob[:i+1]) != reportHeader(hash, bytecode.HashBytes(reply)) {
		return nil, false
	}
	return reply, true
}

// writeCheckReply sends a /check reply with its cache disposition.
func writeCheckReply(w http.ResponseWriter, rec *obs.RequestRecord, cache string, reply []byte) {
	rec.SetCache(cache)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	w.WriteHeader(http.StatusOK)
	w.Write(reply)
}

// replyStoredReport answers /check from the report stored for hash, if a
// sound one exists. Nothing is recomputed, so the stored reply says
// summaries_reused. A corrupt or foreign blob is a miss, which the caller's
// recomputation then overwrites.
func (s *Server) replyStoredReport(w http.ResponseWriter, rec *obs.RequestRecord, hash string) bool {
	blob, ok := s.store.GetReport(hash)
	if !ok {
		return false
	}
	reply, ok := decodeReport(blob, hash)
	if !ok {
		return false
	}
	s.cReportHit.Inc()
	s.cAliasReuse.Inc()
	writeCheckReply(w, rec, "hit", reply)
	return true
}
