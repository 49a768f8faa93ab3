package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzTraceReader feeds arbitrary bytes to the reader in both fail-fast and
// degraded mode and asserts it never panics, never loops forever, and fails
// only with classified errors. Seeds cover both format versions plus
// characteristic damage (bit flip, torn tail, replayed chunk).
func FuzzTraceReader(f *testing.F) {
	events := genEvents(200)

	var v2 bytes.Buffer
	w, err := NewWriterOpts(&v2, WriterOptions{Version: 2, ChunkBytes: 128})
	if err != nil {
		f.Fatal(err)
	}
	for i := range events {
		if err := w.Event(&events[i]); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}

	var v1 bytes.Buffer
	w1, _ := NewWriterV1(&v1)
	for i := range events {
		if err := w1.Event(&events[i]); err != nil {
			f.Fatal(err)
		}
	}
	if err := w1.Flush(); err != nil {
		f.Fatal(err)
	}

	f.Add(v2.Bytes())
	f.Add(v1.Bytes())
	f.Add(v2.Bytes()[:v2.Len()/2])         // torn tail
	f.Add([]byte("PGTRACE2"))              // header only
	f.Add([]byte("PGTRACE1"))              // header only
	f.Add([]byte("PGTRACE9junkjunkjunk"))  // unknown version
	f.Add([]byte{})                        // empty
	f.Add(bytes.Repeat([]byte{0xD7}, 100)) // marker-byte noise
	flipped := append([]byte(nil), v2.Bytes()...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	_, overwide := overwideTraces()
	for _, data := range overwide {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, degraded := range []bool{false, true} {
			r, err := NewReaderOpts(bytes.NewReader(data), ReaderOptions{Degraded: degraded})
			if err != nil {
				if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
					!errors.Is(err, ErrTruncated) {
					t.Fatalf("unclassified open error: %v", err)
				}
				continue
			}
			var e Event
			// The input is finite and every Next call either consumes
			// bytes or errors, so this loop terminates; the budget is a
			// backstop that turns a livelock into a test failure.
			for i := 0; i < len(data)+16; i++ {
				if err := r.Next(&e); err != nil {
					if err != io.EOF && degraded {
						// Degraded v2 reads absorb chunk damage; only
						// v1 streams may still fail mid-read.
						var cce *CorruptChunkError
						if r.Version() == 2 && errors.As(err, &cce) {
							t.Fatalf("degraded v2 read failed fast: %v", err)
						}
					}
					return
				}
			}
			t.Fatalf("reader did not terminate on %d input bytes", len(data))
		}
	})
}
