package epochtrace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// sameRecords compares traces by their %+v rendering: exact for floats
// (NaN included, which a CSV may carry) and blind only to a nil versus an
// empty record slice.
func sameRecords(a, b *Trace) bool {
	return fmt.Sprintf("%+v", a.Records) == fmt.Sprintf("%+v", b.Records)
}

// FuzzReadCSV feeds arbitrary bytes to the CSV trace reader. It must
// never panic, and any trace it accepts must re-encode through WriteCSV
// and read back to the same records.
func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	header := strings.Join(csvHeader, ",") + "\n"
	for _, s := range []string{
		"",
		"a,b,c\n1,2,3\n",
		header + "not,enough,columns\n",
		header,
		header + "0,1,NaN,2,+Inf,-0,3,0x1p-2,1e3,4,5,6,0.5,7,8,9,10,-1\n",
		header + "0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,x\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.WriteCSV(&out); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		again, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v\n%s", err, out.Bytes())
		}
		if !sameRecords(again, tr) {
			t.Fatalf("records changed on re-read:\n got %+v\nwant %+v", again.Records, tr.Records)
		}
	})
}

// FuzzReadJSON is FuzzReadCSV for the JSON trace reader and WriteJSON.
func FuzzReadJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, s := range []string{"", "null", "[]", "{}", `[{"epoch":"x"}]`, `[{"ipc":-0,"level":1e2}]`, `[{"power_w":1e400}]`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.WriteJSON(&out); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		again, err := ReadJSON(&out)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v\n%s", err, out.Bytes())
		}
		if !sameRecords(again, tr) {
			t.Fatalf("records changed on re-read:\n got %+v\nwant %+v", again.Records, tr.Records)
		}
	})
}
