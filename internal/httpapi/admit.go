package httpapi

import (
	"errors"
	"fmt"
	"net/http"

	"felip/internal/core"
	"felip/internal/fo"
	"felip/internal/reportlog"
	"felip/internal/wire"
)

// This file is the one admission step every report goes through — JSON
// (POST /v1/report), binary frames (POST /v1/reports) and WAL replay alike —
// so the three cannot drift apart on whether a report is counted. FELIP's
// estimators divide each grid's support counts by the group's report count,
// so each device must be counted exactly once. Each front end keeps only its
// own envelope checks and hands admitLocked a slice of candidates; the front
// end also decides whether to Sync the log (frames do, before the ack; JSON
// acks after the unsynced write). See DESIGN.md §14.

// candidate is one report offered for admission. id may alias a frame
// buffer; admitLocked copies it only once the report is accepted.
type candidate struct {
	id  []byte
	rep core.Report
	// attr is the grid attribute the report claims; checked only under
	// non-FELIP modes.
	attr int
	// bytes is the report's on-the-wire cost, charged to the per-protocol
	// wire counter if it is accepted (0 on replay: replay charges nothing).
	bytes int

	// disp is the outcome (a wire.Disposition* value, which is also the
	// single-report HTTP status); why says what refused a conflict or a
	// rejection. Both are set by admitLocked.
	disp int
	why  error
}

// chargeRejectsLocked counts n report submissions refused under the mode
// they claimed. Caller holds s.mu.
func (s *Server) chargeRejectsLocked(n int, mode fo.ReportMode) {
	s.wireRejected += n
	s.modeRejected[mode.String()] += n
}

// admitLocked classifies, logs and folds a batch of candidates, setting each
// one's disposition. Each candidate is classified in one fixed order: the
// dedup index (an ID accepted earlier in the same batch counts as indexed),
// then round state, then plan validation (Collector.Check), then the attr
// cross-check of non-FELIP modes. Accepted reports are appended with one
// AppendBatch to wal — replay passes nil and never writes, since
// ResumeNextRound still holds the previous segment in s.wal — and then
// folded. A non-nil error refuses the whole batch with the returned HTTP
// status (server shutting down, log write failed); nothing of the batch was
// counted then, though refusals classified before the failure stay charged.
// Caller holds s.mu.
func (s *Server) admitLocked(cands []candidate, wal *reportlog.Log) (int, error) {
	if s.closed {
		return http.StatusServiceUnavailable, fmt.Errorf("server shutting down")
	}
	roundClosed := s.agg != nil || s.finalizing != nil || s.shardState != nil || s.sealedEmpty
	recs := s.batch.recs[:0]
	accepted := 0
	for i := range cands {
		c := &cands[i]
		c.disp, c.why = wire.DispositionAccepted, nil
		if prev, seen := s.dedup[string(c.id)]; seen {
			if prev == c.rep {
				// An honest retry: already counted.
				c.disp = wire.DispositionDuplicate
				continue
			}
			c.disp, c.why = wire.DispositionConflict, fmt.Errorf("report_id %q reused with a different payload", c.id)
			s.chargeRejectsLocked(1, s.mode)
			continue
		}
		if roundClosed {
			// Finalized, sealed, or a finalize is in flight: the collector may
			// not have sealed itself yet, so refuse here — otherwise a report
			// could slip in after the operator asked to close and be silently
			// absent from the published estimates.
			c.disp, c.why = wire.DispositionConflict, core.ErrFinalized
			continue
		}
		// Validate against the plan before logging, so the WAL only ever
		// holds reports the collector is guaranteed to accept on replay.
		if err := s.col.Check(c.rep); err != nil {
			c.disp, c.why = wire.DispositionRejected, err
			if errors.Is(err, core.ErrFinalized) {
				c.disp = wire.DispositionConflict
			}
			continue
		}
		// Check proved the group in range.
		if s.mode != fo.ModeFELIP && c.attr != s.specAttrs[c.rep.Group] {
			c.disp = wire.DispositionRejected
			c.why = fmt.Errorf("report attr %d does not match group %d's attribute %d",
				c.attr, c.rep.Group, s.specAttrs[c.rep.Group])
			s.chargeRejectsLocked(1, s.mode)
			continue
		}
		// Indexed now, so a later copy in the same batch is a duplicate.
		id := string(c.id)
		s.dedup[id] = c.rep
		accepted++
		if wal != nil {
			rec := reportlog.ReportRecordMode(id, c.rep.Group, c.rep.Proto.String(), c.rep.Value, c.rep.Seed, s.modeName)
			rec.Longitudinal = s.longitudinal != nil
			recs = append(recs, rec)
		}
	}
	s.batch.recs = recs
	if wal != nil {
		if err := wal.AppendBatch(recs); err != nil {
			// Not counted, not acknowledged: the client retries.
			for _, c := range cands {
				if c.disp == wire.DispositionAccepted {
					delete(s.dedup, string(c.id))
				}
			}
			s.logf("httpapi: wal append: %v", err)
			return http.StatusInternalServerError, fmt.Errorf("report log unavailable")
		}
	}
	for i := range cands {
		c := &cands[i]
		if c.disp != wire.DispositionAccepted {
			continue
		}
		if err := s.col.Add(c.rep); err != nil {
			// Check passed under this same lock hold; unreachable short of a
			// bug. Answer a server error so the client retries and the dedup
			// index sorts it out.
			return http.StatusInternalServerError, err
		}
		if c.bytes > 0 {
			s.wireBytes[c.rep.Proto.String()] += int64(c.bytes)
		}
	}
	if accepted > 0 {
		s.modeAccepted[s.mode.String()] += accepted
	}
	return 0, nil
}
