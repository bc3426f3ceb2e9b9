package store

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzReadLogFrom feeds arbitrary bytes to the store's one line reader,
// what ReadLog, the queries and cmd/replay run on a file a crash may
// have torn: no panic; every non-empty line is the format header, a row,
// or counted as skipped; each row's offsets frame a line in order; and
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
		rows, skipped, err := readRows(t, data)
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
		if got := len(rows) + skipped; got != lines {
			t.Fatalf("%d rows + %d skipped, want the %d non-empty, non-header lines", len(rows), skipped, lines)
		}
		for _, row := range rows {
			line, err := json.Marshal(row)
			if err != nil {
				t.Fatalf("accepted row %+v does not marshal: %v", row, err)
			}
			back, _, err := readRows(t, line)
			if err != nil || len(back) != 1 {
				t.Fatalf("re-marshalled row %s reads back as %+v, %v", line, back, err)
			}
			if got := back[0]; !sameRow(row, got) {
				t.Fatalf("row %+v reads back as %+v", row, got)
			}
		}
	})
}

// readRows collects what the store's line reader hands its callback,
// checking that each row's offsets, which a Log's spans are made of,
// frame the line it was decoded from.
func readRows(t *testing.T, data []byte) ([]Row, int, error) {
	var rows []Row
	var last int64
	skipped, err := scanRows(bytes.NewReader(data), nil, func(row Row, start, end int64) {
		if start < last || end <= start || end > int64(len(data)) {
			t.Fatalf("row %+v framed as [%d, %d) after offset %d of %d", row, start, end, last, len(data))
		}
		line := bytes.TrimSuffix(bytes.TrimSuffix(data[start:end], []byte("\n")), []byte("\r"))
		var framed Row
		if err := json.Unmarshal(line, &framed); err != nil || !sameRow(row, framed) {
			t.Fatalf("row %+v framed as %q (%v)", row, line, err)
		}
		last = end
		rows = append(rows, row)
	})
	return rows, skipped, err
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

// FuzzRowKeys holds the index's fast path to encoding/json: a line
// rowKeys reads is one json.Unmarshal decodes into a row, not the
// format header, with the same run and job.
func FuzzRowKeys(f *testing.F) {
	for _, seed := range []string{
		`{"run":"r","table":"event","t":3,"kind":"iteration","job":"job-007","data":{"i":3}}`,
		`{"run":"r","table":"sample","t":-0.5e-3,"data":{"counters":{"a":1}}}`,
		`{"t":0}`,
		`{"format":"recdb/1"}`,
		`{"run":"r","t":1e400}`,
		`{"run":"r","t":1,"data":1,"run":"x"}`,
		`{"run":"café","t":1}`,
		`{"RUN":"caps","t":01}`,
		`{"run":"r","table":"event","t":1,"job":"j","data":{"a":[1,{"b":"}"}]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		run, job, ok := rowKeys(line)
		if !ok {
			return
		}
		var row Row
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("rowKeys read %q, which json.Unmarshal refuses: %v", line, err)
		}
		if row.Format != "" || row.Run != string(run) || row.Job != string(job) {
			t.Fatalf("rowKeys read %q as run %q job %q, json.Unmarshal as %+v", line, run, job, row)
		}
	})
}

// TestRowKeysReadsWriterLines: every line the writer encodes takes the
// index's fast path, so ReadLog decodes no row of a store in full.
func TestRowKeysReadsWriterLines(t *testing.T) {
	for _, row := range []Row{
		{Run: "r", Table: TableEvent, Time: 3, Kind: "iteration", Job: "job-007", Data: json.RawMessage(`{"i":3}`)},
		{Run: "2026-10-18T09:00:00Z", Table: TableSample, Time: 0.125, Data: json.RawMessage(`{"counters":{"a":1}}`)},
		{Run: "r", Table: TableDecision, Time: 1e-9, Kind: "decision", Job: "job-001", Data: json.RawMessage(`{"Action":"add","x":"}"}`)},
		{Time: -2},
	} {
		line, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		run, job, ok := rowKeys(line)
		if !ok || string(run) != row.Run || string(job) != row.Job {
			t.Errorf("rowKeys(%s) = %q, %q, %v", line, run, job, ok)
		}
	}
}
