package httpapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/fo"
	"felip/internal/reportlog"
	"felip/internal/wire"
)

// These tests pin the single admission step: JSON reports, binary frames and
// WAL replay classify the same report the same way, a refused frame is
// charged once, and the shared chain replay refuses gaps.

// walServer boots a server in the given mode writing a fresh WAL at path.
func walServer(t *testing.T, path string, mode fo.ReportMode) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(dataset.MixedSchema(2, 32, 2, 4), 120, core.Options{Strategy: core.OUG, Epsilon: 2, Seed: 41, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(t.Logf)
	l, recs, err := reportlog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseWAL(l, recs); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// post sends one raw body and returns the status and the response body.
func post(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// postFrame sends one frame and returns its dispositions (nil when the frame
// as a whole was refused) and the HTTP status.
func postFrame(t *testing.T, base string, frame []byte) ([]int, int) {
	t.Helper()
	status, body := post(t, base+"/v1/reports", frame)
	if status != http.StatusOK {
		return nil, status
	}
	var resp wire.BatchReportResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Dispositions, status
}

func statusOf(t *testing.T, base string) Status {
	t.Helper()
	var st Status
	getJSON(t, base+"/v1/status", &st)
	return st
}

// admissionCounters is the part of /v1/status every front end must agree on.
type admissionCounters struct {
	Reports, Rejected, DedupEntries int
	GroupCounts                     []int
	ModeAccepted, ModeRejected      map[string]int
}

func countersOf(st Status) admissionCounters {
	return admissionCounters{st.Reports, st.Rejected, st.DedupEntries, st.GroupCounts, st.ModeAccepted, st.ModeRejected}
}

// TestAdmissionParityAcrossFrontEnds sends one adversarial set through
// POST /v1/report, POST /v1/reports (one frame per report, and the pre-close
// reports in a single frame) and WAL replay, and requires the same
// disposition for every report, the same admission counters, and
// byte-identical WAL segments from the two HTTP paths.
func TestAdmissionParityAcrossFrontEnds(t *testing.T) {
	const mode = fo.ModeSPL
	dir := t.TempDir()
	jsonSrv, jsonTS := walServer(t, filepath.Join(dir, "json.wal"), mode)
	specs := jsonSrv.col.Specs()
	valid := func(g int, seed uint64) core.ModeReport {
		return core.ModeReport{Report: core.Report{Group: g, Proto: specs[g].Proto, Value: 0, Seed: seed}, Attr: specs[g].AttrX}
	}
	type item struct {
		name  string
		id    string
		rep   core.ModeReport
		after bool // sent after the round is finalized
		want  int
	}
	outOfRange := valid(0, 3)
	outOfRange.Value = 1 << 20
	wrongAttr := valid(1, 4)
	wrongAttr.Attr = (wrongAttr.Attr + 1) % 4
	reused := valid(0, 9)
	items := []item{
		{"fresh", "p-1", valid(0, 7), false, wire.DispositionAccepted},
		{"honest retry", "p-1", valid(0, 7), false, wire.DispositionDuplicate},
		{"reused id", "p-1", reused, false, wire.DispositionConflict},
		{"out-of-range value", "p-2", outOfRange, false, wire.DispositionRejected},
		{"wrong attr", "p-3", wrongAttr, false, wire.DispositionRejected},
		{"second fresh", "p-4", valid(1, 5), false, wire.DispositionAccepted},
		{"after close", "p-5", valid(0, 8), true, wire.DispositionConflict},
	}
	frameOf := func(its ...item) []byte {
		var brs []wire.BatchReport
		for _, it := range its {
			brs = append(brs, wire.BatchReport{ID: it.id, Report: it.rep.Report, Attr: it.rep.Attr})
		}
		frame, err := wire.EncodeFrameMode(mode, brs)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	finalize := func(ts *httptest.Server) {
		if status, body := post(t, ts.URL+"/v1/finalize", nil); status != http.StatusOK {
			t.Fatalf("finalize: %d %s", status, body)
		}
	}

	// JSON singles: the HTTP status is the disposition.
	closed := false
	for _, it := range items {
		if it.after && !closed {
			finalize(jsonTS)
			closed = true
		}
		body, err := json.Marshal(wire.NewModeReportMessage(it.id, mode, it.rep))
		if err != nil {
			t.Fatal(err)
		}
		if status, out := post(t, jsonTS.URL+"/v1/report", body); status != it.want {
			t.Errorf("json %s: status %d (%s), want %d", it.name, status, out, it.want)
		}
	}

	// One frame per report.
	_, framesTS := walServer(t, filepath.Join(dir, "frames.wal"), mode)
	closed = false
	for _, it := range items {
		if it.after && !closed {
			finalize(framesTS)
			closed = true
		}
		disps, status := postFrame(t, framesTS.URL, frameOf(it))
		if status != http.StatusOK || len(disps) != 1 || disps[0] != it.want {
			t.Errorf("frame %s: status %d dispositions %v, want [%d]", it.name, status, disps, it.want)
		}
	}

	// Every pre-close report in one frame: in-frame duplicates and conflicts
	// classify exactly like cross-request ones.
	_, oneTS := walServer(t, filepath.Join(dir, "one.wal"), mode)
	var before []item
	var want []int
	for _, it := range items {
		if !it.after {
			before = append(before, it)
			want = append(want, it.want)
		}
	}
	if disps, status := postFrame(t, oneTS.URL, frameOf(before...)); status != http.StatusOK || !reflect.DeepEqual(disps, want) {
		t.Errorf("single frame: status %d dispositions %v, want %v", status, disps, want)
	}
	finalize(oneTS)
	for _, it := range items[len(before):] {
		if disps, _ := postFrame(t, oneTS.URL, frameOf(it)); len(disps) != 1 || disps[0] != it.want {
			t.Errorf("single frame %s: dispositions %v, want [%d]", it.name, disps, it.want)
		}
	}

	jsonSt := countersOf(statusOf(t, jsonTS.URL))
	if jsonSt.DedupEntries != 2 || jsonSt.ModeAccepted["SPL"] != 2 || jsonSt.Rejected != 3 || jsonSt.ModeRejected["SPL"] != 2 {
		t.Errorf("json counters %+v: want 2 accepted, 3 rejected of which 2 wire-level", jsonSt)
	}
	for name, ts := range map[string]*httptest.Server{"frames": framesTS, "single frame": oneTS} {
		if st := countersOf(statusOf(t, ts.URL)); !reflect.DeepEqual(st, jsonSt) {
			t.Errorf("%s counters %+v, json %+v", name, st, jsonSt)
		}
	}
	jsonWAL := mustRead(t, filepath.Join(dir, "json.wal"))
	for _, name := range []string{"frames.wal", "one.wal"} {
		if got := mustRead(t, filepath.Join(dir, name)); !bytes.Equal(got, jsonWAL) {
			t.Errorf("%s (%d bytes) differs from the JSON path's WAL (%d bytes)", name, len(got), len(jsonWAL))
		}
	}

	// WAL replay of what the HTTP paths logged rebuilds the same round.
	_, replayTS := walServer(t, filepath.Join(dir, "json.wal"), mode)
	replaySt := countersOf(statusOf(t, replayTS.URL))
	if replaySt.Reports != jsonSt.Reports || replaySt.DedupEntries != jsonSt.DedupEntries ||
		!reflect.DeepEqual(replaySt.GroupCounts, jsonSt.GroupCounts) || !reflect.DeepEqual(replaySt.ModeAccepted, jsonSt.ModeAccepted) {
		t.Errorf("replay counters %+v, json %+v", replaySt, jsonSt)
	}

	// WAL replay of each report behind the accepted reports before it: a
	// record replays only if the HTTP paths accepted it, and anything else
	// refuses the segment naming the record. The wrong-attr report has no WAL
	// form (records carry no attr claim), so it is skipped here.
	var prefix []reportlog.Record
	for i, it := range items {
		if it.name == "wrong attr" {
			continue
		}
		recs := append([]reportlog.Record(nil), prefix...)
		if it.after {
			recs = append(recs, reportlog.FinalizeRecord(len(prefix)))
		}
		recs = append(recs, reportlog.ReportRecordMode(it.id, it.rep.Group, it.rep.Proto.String(), it.rep.Value, it.rep.Seed, wire.ModeName(mode)))
		srv, _ := walServer(t, filepath.Join(dir, "replay-"+it.id+"-"+string(rune('a'+i))+".wal"), mode)
		srv.mu.Lock()
		err := srv.replayLocked(recs)
		srv.mu.Unlock()
		wantMsg := "wal record " + itoa(len(recs)-1)
		switch {
		case it.want == wire.DispositionAccepted && err != nil:
			t.Errorf("replay %s: %v, want accepted", it.name, err)
		case it.want != wire.DispositionAccepted && (err == nil || !strings.Contains(err.Error(), wantMsg)):
			t.Errorf("replay %s: error %v, want one naming %q", it.name, err, wantMsg)
		}
		if it.want == wire.DispositionAccepted {
			prefix = append(prefix, recs[len(recs)-1])
		}
	}
}

func itoa(i int) string {
	b, _ := json.Marshal(i)
	return string(b)
}

// TestBatchMalformedRecordChargesFrameOnce: a frame whose second record lies
// inside a valid envelope is refused wholesale and charged once per claimed
// report — the first record's conflict must not be charged on top.
func TestBatchMalformedRecordChargesFrameOnce(t *testing.T) {
	srv, ts := walServer(t, filepath.Join(t.TempDir(), "round.wal"), fo.ModeFELIP)
	specs := srv.col.Specs()
	counted := wire.BatchReport{ID: "dev-0", Report: core.Report{Group: 0, Proto: specs[0].Proto, Value: 0, Seed: 1}}
	if status, body := post(t, ts.URL+"/v1/report", mustMarshal(t, wire.NewReportMessage(counted.ID, counted.Report))); status != http.StatusNoContent {
		t.Fatalf("warmup report: %d %s", status, body)
	}
	reused := counted
	reused.Report.Seed++ // a conflict under the counted key
	fresh := wire.BatchReport{ID: "dev-1", Report: core.Report{Group: 1, Proto: specs[1].Proto, Value: 0, Seed: 2}}
	frame, err := wire.EncodeFrame([]wire.BatchReport{reused, fresh})
	if err != nil {
		t.Fatal(err)
	}
	// Make the last record's value negative (seed u64 follows the value u32)
	// and re-seal the checksum, so only the record decoder can object.
	binary.LittleEndian.PutUint32(frame[len(frame)-12:], 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(frame[len(wire.FrameMagic)+8:], crc32.ChecksumIEEE(frame[len(wire.FrameMagic)+12:]))

	if _, status := postFrame(t, ts.URL, frame); status != http.StatusBadRequest {
		t.Fatalf("malformed frame answered %d, want 400", status)
	}
	st := statusOf(t, ts.URL)
	if st.Rejected != 2 || st.ModeRejected["FELIP"] != 2 {
		t.Fatalf("rejected %d, mode_rejected %v after refusing a 2-report frame; want 2 each", st.Rejected, st.ModeRejected)
	}
	if st.Reports != 1 || st.DedupEntries != 1 {
		t.Fatalf("refused frame changed the round: %d reports, %d dedup entries", st.Reports, st.DedupEntries)
	}
}

// TestBatchOversizedFrameChargesMode: a frame too large to read is refused
// per claimed report, under the round's mode like every other refusal.
func TestBatchOversizedFrameChargesMode(t *testing.T) {
	_, ts := walServer(t, filepath.Join(t.TempDir(), "round.wal"), fo.ModeSPL)
	const claimed = 5
	frame := make([]byte, maxBatchFrameBody+1)
	copy(frame, wire.FrameMagic)
	binary.LittleEndian.PutUint32(frame[len(wire.FrameMagic):], claimed)
	if _, status := postFrame(t, ts.URL, frame); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized frame answered %d, want 413", status)
	}
	st := statusOf(t, ts.URL)
	if st.Rejected != claimed || st.ModeRejected["SPL"] != claimed {
		t.Fatalf("rejected %d, mode_rejected %v after an oversized %d-report frame", st.Rejected, st.ModeRejected, claimed)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplaySegmentsRefusesGap: a chain missing a round in the middle is
// refused, not replayed up to the hole with the later segments dropped.
func TestReplaySegmentsRefusesGap(t *testing.T) {
	schema := dataset.MixedSchema(2, 32, 2, 4)
	opts := core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 31}
	probe, err := NewServer(schema, 200, opts)
	if err != nil {
		t.Fatal(err)
	}
	specs := probe.col.Specs()
	base := filepath.Join(t.TempDir(), "round.wal")
	segs := reportlog.NewSegments(base)
	write := func(round int, recs ...reportlog.Record) {
		l, _, err := segs.Open(round)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	report := func(id string) reportlog.Record {
		return reportlog.ReportRecord(id, 0, specs[0].Proto.String(), 0, 1)
	}
	write(1, report("r1"), reportlog.FinalizeRecord(1))
	write(2, report("r2"), reportlog.FinalizeRecord(1))

	fresh := func() *Server {
		srv, err := NewServer(schema, 200, opts)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(t.Logf)
		return srv
	}
	srv := fresh()
	replayed, err := srv.ReplaySegments(segs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 4 || srv.Round() != 2 {
		t.Fatalf("contiguous chain: replayed %d records into round %d, want 4 into round 2", replayed, srv.Round())
	}
	srv.Close()

	write(4, report("r4"))
	if _, err := fresh().ReplaySegments(segs, 1); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("chain 1, 2, 4 replayed with error %v; want a gap refusal", err)
	}
	if _, err := os.Stat(segs.Path(3)); !os.IsNotExist(err) {
		t.Fatalf("refused replay created round 3's segment: %v", err)
	}
}
