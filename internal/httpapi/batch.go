package httpapi

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"felip/internal/reportlog"
	"felip/internal/wire"
)

// This file is the server half of the batched binary ingest path
// (POST /v1/reports): one wire frame carries N reports, and the whole frame
// is ingested under a single lock hold with a single WAL write and a single
// fsync. The batch is a transport optimization, not a semantic unit — every
// report inside it gets the byte-identical disposition it would get on the
// single-report JSON path, and the final estimates cannot tell the two
// ingest paths apart.
//
// Durability contract: a frame's accepted reports are appended to the WAL in
// one Write and fsynced once before the 200 goes out. A crash before the
// sync loses at most an unacknowledged frame; the client retries it and the
// idempotency keys turn the re-ingest into duplicates. Holding s.mu across
// the frame makes the batch atomic with respect to a concurrent seal or
// finalize: a frame never straddles a round boundary.

// maxBatchFrameBody caps a POST /v1/reports body: the largest legal frame plus
// its header, with nothing to spare for a hostile length claim.
const maxBatchFrameBody = wire.MaxFramePayload + 64

// batchBodyPool recycles frame read buffers across batch requests so a
// steady ingest load costs zero body allocations.
var batchBodyPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// batchScratch is the frame path's reusable per-server scratch. It is only
// touched while s.mu is held, so one set of buffers serves every request
// without per-report allocations.
type batchScratch struct {
	reader wire.FrameReader
	cands  []candidate
	recs   []reportlog.Record
}

// IngestFrame ingests one binary batch frame and returns the per-report
// dispositions. A frame-level refusal (damage, a malformed record, a foreign
// mode, a closed server, a failed WAL write) returns a non-nil error with the
// HTTP status to answer, and no report of the frame was counted; envelope
// refusals charge the wire-rejection counter once per claimed report. On
// success every report was classified by admitLocked exactly as the
// single-report path classifies it, and the accepted ones are durable.
//
// Exported so the benchmark harness can drive the decode→dedup→fold path
// directly and meter its allocations.
func (s *Server) IngestFrame(frame []byte) (wire.BatchReportResponse, int, error) {
	var resp wire.BatchReportResponse

	s.mu.Lock()
	b := &s.batch
	n, err := b.reader.Reset(frame)
	charge := s.mode
	switch {
	case err != nil:
		n = wire.FrameReportCount(frame)
	case s.longitudinal != nil:
		// The binary frame format has no longitudinal marker, so a frame can
		// only ever carry one-shot reports — and a longitudinal round must not
		// fold those: they were perturbed through a different channel than the
		// round's two-stage chain inverts. The longitudinal path is the
		// single-report JSON endpoint.
		err = fmt.Errorf("the round's plan is longitudinal; batch frames carry one-shot reports only — use POST /v1/report")
	case b.reader.Mode != s.mode:
		// A frame claims its mode once for all its reports; its reports were
		// perturbed under a different budget and none of them can be folded.
		charge = b.reader.Mode
		err = fmt.Errorf("frame claims mode %v; the round's plan runs %v", b.reader.Mode, s.mode)
	default:
		// Decode the whole frame before classifying anything: a record that
		// lies inside a valid envelope (a buggy or hostile encoder) refuses
		// the frame with nothing classified, counted or charged twice. IDs
		// stay sub-slices of the frame until admitLocked accepts them.
		b.cands = b.cands[:0]
		for b.reader.Next() {
			b.cands = append(b.cands, candidate{
				id:    b.reader.ID,
				rep:   b.reader.Report,
				attr:  b.reader.Attr,
				bytes: b.reader.RecordBytes(),
			})
		}
		err = b.reader.Err()
	}
	if err != nil {
		s.chargeRejectsLocked(n, charge)
		s.mu.Unlock()
		return resp, http.StatusBadRequest, err
	}
	if status, err := s.admitLocked(b.cands, s.wal); err != nil {
		s.mu.Unlock()
		return resp, status, err
	}
	resp.Dispositions = make([]int, len(b.cands))
	for i, c := range b.cands {
		resp.Dispositions[i] = c.disp
		switch c.disp {
		case wire.DispositionAccepted:
			resp.Accepted++
		case wire.DispositionDuplicate:
			resp.Duplicate++
		case wire.DispositionConflict:
			resp.Conflict++
		default:
			resp.Rejected++
		}
	}
	wal := s.wal
	resp.Round = s.round
	s.mu.Unlock()

	// One fsync per frame, outside the lock so concurrent frames overlap
	// their disk waits with other frames' classification. The ack only goes
	// out after the sync: a crash in between loses nothing acknowledged.
	if resp.Accepted > 0 && wal != nil {
		if err := wal.Sync(); err != nil {
			s.logf("httpapi: wal batch sync: %v", err)
			// Counted but not durable and not acknowledged; the retry turns
			// into all-duplicates.
			return resp, http.StatusInternalServerError, fmt.Errorf("report log unavailable")
		}
	}
	return resp, http.StatusOK, nil
}

// handleReportBatch serves POST /v1/reports: a binary wire frame in, a JSON
// BatchReportResponse out.
func (s *Server) handleReportBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchFrameBody)
	bufp := batchBodyPool.Get().(*[]byte)
	defer batchBodyPool.Put(bufp)
	buf, err := readAllInto((*bufp)[:0], r.Body)
	*bufp = buf[:0]
	if err != nil {
		// An oversized or unreadable frame is N refused submissions, not one:
		// charge the header's claim (or 1 if even that is gone).
		s.mu.Lock()
		s.chargeRejectsLocked(wire.FrameReportCount(buf), s.mode)
		s.mu.Unlock()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch frame exceeds %d bytes", tooBig.Limit))
			return
		}
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("reading batch frame: %w", err))
		return
	}
	resp, status, err := s.IngestFrame(buf)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	s.writeJSON(w, status, resp)
}

// readAllInto is io.ReadAll into a caller-owned buffer, so pooled buffers
// absorb the growth across requests.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				return buf, nil
			}
			return buf, err
		}
	}
}
