package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/core"
	"ppep/internal/daemon"
)

// TestPredictStatusCodes is the table-driven contract of the predict
// endpoints' status codes, before and after the first interval: client
// errors are 400 regardless of server state (a malformed vf used to
// turn into 404 before the first interval), and only a well-formed
// request for data that does not exist yet is 404.
func TestPredictStatusCodes(t *testing.T) {
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{HistoryCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, Options{})
	h := srv.Handler()

	cases := []struct {
		path        string
		pre, post   int
		description string
	}{
		{"/predict?vf=3", http.StatusNotFound, http.StatusOK, "valid state"},
		{"/predict?vf=1", http.StatusNotFound, http.StatusOK, "bottom state"},
		{"/predict?vf=5", http.StatusNotFound, http.StatusOK, "top state"},
		{"/predict", http.StatusBadRequest, http.StatusBadRequest, "missing vf"},
		{"/predict?vf=", http.StatusBadRequest, http.StatusBadRequest, "empty vf"},
		{"/predict?vf=abc", http.StatusBadRequest, http.StatusBadRequest, "non-numeric vf"},
		{"/predict?vf=0", http.StatusBadRequest, http.StatusBadRequest, "below range"},
		{"/predict?vf=6", http.StatusBadRequest, http.StatusBadRequest, "above range"},
		{"/predict?vf=-2", http.StatusBadRequest, http.StatusBadRequest, "negative vf"},
		{"/predict?vf=3&extra=1", http.StatusNotFound, http.StatusOK, "extra params ignored"},
		{"/predict?extra=1&vf=3", http.StatusNotFound, http.StatusOK, "vf after other params"},
		{"/predict/batch", http.StatusNotFound, http.StatusOK, "batch"},
	}
	for _, c := range cases {
		if code, body := get(t, h, c.path); code != c.pre {
			t.Errorf("pre-interval %s (%s) = %d %q, want %d", c.path, c.description, code, body, c.pre)
		}
	}
	if err := d.RunIntervals(2); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if code, body := get(t, h, c.path); code != c.post {
			t.Errorf("post-interval %s (%s) = %d %q, want %d", c.path, c.description, code, body, c.post)
		}
	}
}

// batchGet performs one /predict/batch request with an Accept header.
func batchGet(t *testing.T, h http.Handler, accept string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/predict/batch", nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// TestPredictBatch pins the batch endpoint end to end: the JSON body
// carries every VF state, the binary body decodes to bit-identical
// values, and content negotiation picks the encoding off Accept.
func TestPredictBatch(t *testing.T) {
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{HistoryCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, Options{})
	h := srv.Handler()
	if err := d.RunIntervals(3); err != nil {
		t.Fatal(err)
	}

	// JSON by default.
	rr := batchGet(t, h, "")
	if rr.Code != http.StatusOK {
		t.Fatalf("/predict/batch = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type %q", ct)
	}
	var viaJSON core.PredictionTable
	if err := json.Unmarshal(rr.Body.Bytes(), &viaJSON); err != nil {
		t.Fatal(err)
	}
	if viaJSON.Seq != 3 {
		t.Errorf("batch seq %d, want 3", viaJSON.Seq)
	}
	if len(viaJSON.Rows) != len(arch.FX8320VFTable) {
		t.Fatalf("batch rows %d, want %d", len(viaJSON.Rows), len(arch.FX8320VFTable))
	}
	for i, row := range viaJSON.Rows {
		if row.VF != arch.VFState(i+1) {
			t.Errorf("row %d is %v", i, row.VF)
		}
		if row.ChipW <= 0 || row.TotalIPS <= 0 || row.EDP <= 0 {
			t.Errorf("%v: empty row %+v", row.VF, row)
		}
	}

	// Binary when negotiated, including as one of several offers.
	for _, accept := range []string{BatchContentType, "application/json, " + BatchContentType} {
		rr = batchGet(t, h, accept)
		if rr.Code != http.StatusOK {
			t.Fatalf("binary batch (Accept %q) = %d", accept, rr.Code)
		}
		if ct := rr.Header().Get("Content-Type"); ct != BatchContentType {
			t.Errorf("binary Content-Type %q", ct)
		}
		viaBin, err := DecodeBatch(rr.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		// Both encodings must describe the same values. Go's JSON float
		// encoding is shortest-round-trip, so even the JSON path is
		// bit-exact and DeepEqual is the right comparison.
		if !reflect.DeepEqual(viaBin, &viaJSON) {
			t.Errorf("binary and JSON batch responses diverge:\nbin  %+v\njson %+v", viaBin, &viaJSON)
		}
	}

	// Unrelated Accept values fall back to JSON.
	rr = batchGet(t, h, "text/html")
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("unrelated Accept got Content-Type %q", ct)
	}

	// The binary body is the same frame the codec produces from the
	// published table.
	if pub := d.Predictions(); pub == nil {
		t.Fatal("no published table after intervals")
	} else if got := batchGet(t, h, BatchContentType).Body.Bytes(); !reflect.DeepEqual(got, EncodeBatch(pub)) {
		t.Error("binary response is not the canonical encoding of the published table")
	}
}

// TestBatchCodecErrors pins the decoder's corruption handling: bad
// magic, wrong schema, truncations, oversized counts, and trailing
// garbage all error out (wrapping the sentinel) instead of panicking
// or returning a partial table.
func TestBatchCodecErrors(t *testing.T) {
	good := EncodeBatch(codecTable)
	if dec, err := DecodeBatch(good); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(dec, codecTable) {
		t.Fatalf("round trip diverges: %+v", dec)
	}
	for _, bad := range corruptFrames(good) {
		if _, err := DecodeBatch(bad.data); err == nil {
			t.Errorf("%s: decoded without error", bad.name)
		} else if bad.want != nil && !errorsIs(err, bad.want) {
			t.Errorf("%s: error %v does not wrap %v", bad.name, err, bad.want)
		}
	}
}

// codecTable is a small hand-built table for the codec tests.
var codecTable = &core.PredictionTable{
	Seq: 7, TimeS: 1.4, DurS: 0.2, MeasuredVF: arch.VF5,
	MeasPowerW: 55, TempK: 330,
	Rows: []core.PredictionRow{
		{VF: arch.VF1, CPI: 1.2, TotalIPS: 1e9, ChipW: 30, IdleW: 20, DynW: 10, IntervalEnergyJ: 6, JPerInst: 3e-8, EDP: 3e-17},
		{VF: arch.VF2, CPI: 1.3, TotalIPS: 2e9, ChipW: 40, IdleW: 25, DynW: 15, IntervalEnergyJ: 8, JPerInst: 2e-8, EDP: 1e-17},
	},
}

// badFrame is a malformed encoding and the error it must wrap (nil: any
// error will do).
type badFrame struct {
	name string
	data []byte
	want error
}

// corruptFrames derives the malformed frames DecodeBatch must reject
// from a good encoding.
func corruptFrames(good []byte) []badFrame {
	bad := []badFrame{
		{"empty", nil, ErrBatchCorrupt},
		{"bad magic", append([]byte("XXXX"), good[4:]...), ErrBatchCorrupt},
		{"trailing bytes", append(append([]byte{}, good...), 0xAB), ErrBatchCorrupt},
	}
	for cut := 1; cut < len(good); cut += 13 {
		bad = append(bad, badFrame{"truncated", good[:len(good)-cut], nil})
	}

	wrongVersion := append([]byte{}, good...)
	wrongVersion[4] = 99
	bad = append(bad, badFrame{"schema", wrongVersion, ErrBatchSchema})

	// Row count larger than the data present must be rejected before
	// any allocation sized off it.
	oversized := append([]byte{}, good...)
	oversized[batchHeaderSize-4] = 0xFF
	oversized[batchHeaderSize-3] = 0xFF
	oversized[batchHeaderSize-2] = 0xFF
	oversized[batchHeaderSize-1] = 0x7F
	return append(bad, badFrame{"oversized row count", oversized, ErrBatchCorrupt})
}

// FuzzDecodeBatch: the decoder never panics, and any frame it accepts
// re-encodes to the identical bytes (no partial or ambiguous parses).
// The corpus is a daemon-published table, the codec test table, and
// every frame TestBatchCodecErrors rejects.
func FuzzDecodeBatch(f *testing.F) {
	d, err := daemon.AttachOpts(busyChip(f), models(f), nil, daemon.Options{HistoryCap: 1})
	if err != nil {
		f.Fatal(err)
	}
	if err := d.RunIntervals(1); err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeBatch(d.Predictions()))
	good := EncodeBatch(codecTable)
	f.Add(good)
	for _, bad := range corruptFrames(good) {
		f.Add(bad.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if re := EncodeBatch(tab); string(re) != string(data) {
			t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", re, data)
		}
	})
}

// errorsIs avoids importing errors alongside the test's other needs.
func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestReportsEdgeCases covers the /reports query-window corners: ?n=0
// is a valid empty window, and a wrapped history ring still serves
// oldest-first with contiguous sequence numbers.
func TestReportsEdgeCases(t *testing.T) {
	const cap = 4
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{HistoryCap: cap})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, Options{})
	h := srv.Handler()

	// ?n=0 with no history at all: an empty array, not an error.
	code, body := get(t, h, "/reports?n=0")
	if code != http.StatusOK {
		t.Fatalf("empty-history /reports?n=0 = %d", code)
	}
	var recs []daemon.Record
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("?n=0 returned %d records", len(recs))
	}

	// Wrap the ring: 2.5× capacity worth of intervals.
	if err := d.RunIntervals(cap*2 + 2); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, h, "/reports")
	recs = nil
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != cap {
		t.Fatalf("wrapped ring served %d records, want %d", len(recs), cap)
	}
	wantFirst := uint64(cap + 3) // 10 intervals, newest 4 retained
	for i, rec := range recs {
		if rec.Seq != wantFirst+uint64(i) {
			t.Fatalf("record %d has seq %d, want %d (oldest-first, contiguous)", i, rec.Seq, wantFirst+uint64(i))
		}
	}

	// ?n=0 on a wrapped ring is still the empty window.
	_, body = get(t, h, "/reports?n=0")
	recs = nil
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("wrapped ?n=0 returned %d records", len(recs))
	}

	// ?n beyond the retained window returns everything retained.
	_, body = get(t, h, "/reports?n=100")
	recs = nil
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != cap {
		t.Errorf("?n=100 returned %d records, want %d", len(recs), cap)
	}
}

// TestServerTimeouts pins the http.Server hardening: all four timeouts
// are set — a slow client must not be able to pin a connection forever.
func TestServerTimeouts(t *testing.T) {
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{HistoryCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := New(d, Options{}).httpServer(":0")
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadTimeout != readTimeout ||
		hs.WriteTimeout != writeTimeout || hs.IdleTimeout != idleTimeout {
		t.Errorf("server timeouts not applied: %+v", hs)
	}
}

// TestQueryValue pins the allocation-free query scanner against the
// shapes the predict handlers see.
func TestQueryValue(t *testing.T) {
	cases := []struct {
		raw, key string
		want     string
		found    bool
	}{
		{"vf=3", "vf", "3", true},
		{"vf=", "vf", "", true},
		{"vf", "vf", "", true},
		{"", "vf", "", false},
		{"n=2", "vf", "", false},
		{"a=1&vf=4&b=2", "vf", "4", true},
		{"vff=9", "vf", "", false},
		{"x=vf", "vf", "", false},
		{"vf=1&vf=2", "vf", "1", true},
	}
	for _, c := range cases {
		got, found := queryValue(c.raw, c.key)
		if got != c.want || found != c.found {
			t.Errorf("queryValue(%q, %q) = %q/%v, want %q/%v", c.raw, c.key, got, found, c.want, c.found)
		}
	}
}
