package distrib

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"odr/internal/trace"
	"odr/internal/workload"
)

// framePartial wraps a raw JSON header and record bytes in a valid ODRP
// frame (magic, version, length prefix, trailing CRC), so tests can hand
// the decoder hostile headers that still pass the checksum.
func framePartial(hdr string, recs []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(partialMagic)
	buf.Write([]byte{partialVersion, 0, 0, 0})
	body := binary.LittleEndian.AppendUint32(nil, uint32(len(hdr)))
	body = append(body, hdr...)
	body = append(body, recs...)
	buf.Write(body)
	buf.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(body)))
	return buf.Bytes()
}

// FuzzPartialDecode: no byte string may panic the partial decoder, and
// an accepted partial never holds more tasks than its bytes can encode.
// The committed corpus in testdata/fuzz seeds it with a real partial,
// truncated and bit-flipped copies, and a CRC-valid header whose task
// count wraps the length check.
func FuzzPartialDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodePartial("fuzz", data)
		if err != nil {
			return
		}
		if int64(len(p.Tasks))*taskRecordLen > int64(len(data)) {
			t.Fatalf("decoded %d tasks from %d bytes", len(p.Tasks), len(data))
		}
	})
}

// unsized hides any Sizer its source implements.
type unsized struct{ workload.RequestSource }

// TestWorkerWindowSourceIsSized: the metered window source RunWorker
// hands the engine reports exactly Window.Limit requests, so the engine
// allocates one exact task page per window; a metered unsized source
// does not claim a length.
func TestWorkerWindowSourceIsSized(t *testing.T) {
	tracePath := writeTrace(t, 40, 5)
	records, err := trace.BinRecords(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	m := &meter{ctx: context.Background()}
	for _, win := range PlanWindows(records, 3) {
		src, closer, err := m.open(tracePath, win)
		if err != nil {
			t.Fatal(err)
		}
		sz, ok := src.(workload.Sizer)
		if !ok {
			t.Fatalf("window %v source is not a workload.Sizer", win)
		}
		if got := sz.TotalRequests(); int64(got) != win.Limit {
			t.Fatalf("window %v: TotalRequests = %d, want %d", win, got, win.Limit)
		}
		reqs, err := workload.Collect(src)
		closer.Close()
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(reqs)) != win.Limit {
			t.Fatalf("window %v yielded %d requests, want %d", win, len(reqs), win.Limit)
		}
	}
	plain := m.wrap(unsized{workload.NewSliceSource(nil)})
	if _, ok := plain.(workload.Sizer); ok {
		t.Fatal("metered unsized source claims a length")
	}
}
