package store

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzReadLogFrom feeds arbitrary bytes to the store's line reader, what
// cmd/replay runs on a file a crash may have torn: no panic; every
// non-empty line is the format header, a row, or counted as skipped; and
// an accepted row re-marshals to a line that reads back as the same row.
func FuzzReadLogFrom(f *testing.F) {
	for _, seed := range []string{
		`{"format":"recdb/1"}` + "\n" +
			`{"run":"r","table":"run","t":0,"kind":"open","data":{"started":"2026-10-15T00:00:00Z"}}` + "\n",
		`{"run":"r","table":"decision","t":1.5,"kind":"decision","job":"job-001","data":{ "Action" : "add", "x":"<&>" }}` + "\r\n\n",
		`{"run":"r","table":"event","t":3,"ki`,
		"null\n{\"data\":null}\n{\"t\":-0,\"RUN\":\"caps\"}\r\n\r\n{\"format\":\"\"}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 1<<24 {
			return // one line may exceed the reader's bound, an error by design
		}
		l, err := ReadLogFrom(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("read failed: %v", err)
		}
		lines := 0
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSuffix(line, []byte("\r"))
			var row Row
			if len(line) == 0 || (json.Unmarshal(line, &row) == nil && row.Format != "") {
				continue
			}
			lines++
		}
		if got := len(l.Rows) + l.Skipped; got != lines {
			t.Fatalf("%d rows + %d skipped, want the %d non-empty, non-header lines", len(l.Rows), l.Skipped, lines)
		}
		for _, row := range l.Rows {
			line, err := json.Marshal(row)
			if err != nil {
				t.Fatalf("accepted row %+v does not marshal: %v", row, err)
			}
			back, err := ReadLogFrom(bytes.NewReader(line))
			if err != nil || len(back.Rows) != 1 {
				t.Fatalf("re-marshalled row %s reads back as %+v, %v", line, back, err)
			}
			if got := back.Rows[0]; !sameRow(row, got) {
				t.Fatalf("row %+v reads back as %+v", row, got)
			}
		}
	})
}

// sameRow compares two rows field by field, and their payloads as JSON
// values: Marshal compacts a payload and escapes HTML in it.
func sameRow(a, b Row) bool {
	ad, bd := a.Data, b.Data
	a.Data, b.Data = nil, nil
	return reflect.DeepEqual(a, b) && reflect.DeepEqual(jsonValue(ad), jsonValue(bd))
}

func jsonValue(raw json.RawMessage) any {
	if raw == nil {
		return nil
	}
	d := json.NewDecoder(bytes.NewReader(raw))
	d.UseNumber()
	var v any
	if err := d.Decode(&v); err != nil {
		return err.Error()
	}
	return v
}
