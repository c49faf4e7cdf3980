package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalDecode feeds arbitrary logs to decodeAll, the replay parser
// of a file a crash may have torn or a disk may have flipped: it never
// panics, the intact prefix it reports ends inside the input, and that
// prefix alone decodes to the same records and offset.
func FuzzJournalDecode(f *testing.F) {
	path := filepath.Join(f.TempDir(), "journal.wal")
	j, _, err := Open(path, -1)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []Record{
		{Type: TypeEnqueue, Hash: "aaa", Label: "l-aaa", Priority: 2, Spec: json.RawMessage(`{"k":1}`)},
		{Type: TypeCampaign, ID: "c-1", Name: "t2", Request: json.RawMessage(`{"configs":["table2"]}`)},
		{Type: TypeEnqueue, Hash: "bbb", Campaign: "c-1", Spec: json.RawMessage(`{"k":2}`)},
		{Type: TypeTerminal, Hash: "aaa", Status: "failed", Reason: "boom"},
	} {
		if err := j.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Compact(); err != nil {
		f.Fatal(err)
	}
	for _, rec := range []Record{
		{Type: TypeTerminal, Hash: "bbb", Status: "done"},
		{Type: TypeCampaignDone, ID: "c-1", Status: "done"},
	} {
		if err := j.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	log, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	if recs, off := decodeAll(log); len(recs) != 3 || off != len(log) {
		f.Fatalf("seed log decodes to %d records ending at %d of %d", len(recs), off, len(log))
	}
	f.Add(log)
	f.Add(log[:len(log)-7]) // torn: the last line lost its end
	flipped := bytes.Clone(log)
	flipped[len(flipped)-10] ^= 0x08 // a flipped bit in the last payload
	f.Add(flipped)
	f.Add([]byte("00000000 {}\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		recs, off := decodeAll(b)
		if off < 0 || off > len(b) {
			t.Fatalf("offset %d outside [0,%d]", off, len(b))
		}
		again, off2 := decodeAll(b[:off])
		if off2 != off || !reflect.DeepEqual(again, recs) {
			t.Fatalf("prefix [:%d] re-decodes to %d records ending at %d, want %d", off, len(again), off2, len(recs))
		}
	})
}
