package provenance

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// FuzzReadRecords feeds arbitrary bytes to the flight-recorder dump
// reader (dumps arrive from disk and over /debug/decisions). It must never
// panic, and any dump it accepts must re-encode through WriteRecords and
// read back to the same header and records. Values compare by their %+v
// rendering: exact for floats (NaN included, unlike DeepEqual), and blind
// only to nil versus empty slices and maps, which the dump omits alike.
func FuzzReadRecords(f *testing.F) {
	r := NewRecorder(8)
	for i := 0; i < 4; i++ {
		rec := testRecord(i)
		if i == 2 {
			rec.Raw[3] = math.NaN()
			rec.Raw[4] = math.Inf(-1)
			rec.TraceID = 0xfeedface
		}
		r.Record(&rec)
	}
	var dump bytes.Buffer
	hdr := Header{Build: map[string]string{"go": "test"}, Features: []string{"ipc"},
		TrainMean: []float64{1.5}, TrainStd: []float64{0.2}, Levels: 6, Capacity: r.Cap(), Head: r.Head()}
	if err := WriteRecords(&dump, hdr, r.Snapshot(nil)); err != nil {
		f.Fatal(err)
	}
	f.Add(dump.Bytes())
	for _, s := range []string{
		"",
		"{}",
		`{"schema":1}`,
		`{"schema":2}`,
		"{\"schema\":1}\n\n{\"reason\":\"model\",\"raw\":[1,\"NaN\",\"+Inf\",\"-0\"]}",
		"{\"schema\":1}\n{\"reason\":\"nonsense\"}",
		"{\"schema\":1}\n{\"reason\":\"shed\",\"trace_id\":\"xyz\"}",
		"{\"schema\":1}\n{\"reason\":\"model\",\"raw\":[\"Infinity\"]}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteRecords(&buf, hdr, recs); err != nil {
			t.Fatalf("accepted dump does not re-encode: %v", err)
		}
		hdr2, recs2, err := ReadRecords(&buf)
		if err != nil {
			t.Fatalf("re-encoded dump rejected: %v\n%s", err, buf.Bytes())
		}
		if got, want := fmt.Sprintf("%+v", hdr2), fmt.Sprintf("%+v", hdr); got != want {
			t.Fatalf("header changed on re-read:\n got %s\nwant %s", got, want)
		}
		if got, want := fmt.Sprintf("%+v", recs2), fmt.Sprintf("%+v", recs); got != want {
			t.Fatalf("records changed on re-read:\n got %s\nwant %s", got, want)
		}
	})
}
