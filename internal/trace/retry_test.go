package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// flaky fails the next read with err whenever armed, consuming no data.
type flaky struct {
	r      io.Reader
	fail   int // fail this many more reads
	err    error
	faults int
}

func (f *flaky) Read(p []byte) (int, error) {
	if f.fail > 0 {
		f.fail--
		f.faults++
		return 0, f.err
	}
	return f.r.Read(p)
}

type tempErr struct{}

func (tempErr) Error() string   { return "temporarily down" }
func (tempErr) Temporary() bool { return true }

func TestRetryReaderRecoversTransientFailures(t *testing.T) {
	payload := strings.Repeat("the quick brown fox ", 100)
	f := &flaky{r: strings.NewReader(payload), fail: 3, err: tempErr{}}
	r := NewRetryReader(f, RetryOptions{Sleep: func(time.Duration) {}})
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(got) != payload {
		t.Fatalf("payload damaged by retries (%d bytes, want %d)", len(got), len(payload))
	}
	st := r.Stats()
	if st.Retries != 1 || st.Attempts != 3 || st.GaveUp != 0 {
		t.Fatalf("stats = %+v, want 1 retried read over 3 attempts", st)
	}
}

func TestRetryReaderGivesUpAfterMaxAttempts(t *testing.T) {
	f := &flaky{r: strings.NewReader("x"), fail: 1 << 30, err: tempErr{}}
	var slept []time.Duration
	r := NewRetryReader(f, RetryOptions{
		MaxAttempts: 4,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	_, err := io.ReadAll(r)
	if err == nil || !IsTransientError(err) {
		t.Fatalf("err = %v, want the transient error to surface after give-up", err)
	}
	if f.faults != 4 {
		t.Fatalf("underlying reader saw %d attempts, want 4", f.faults)
	}
	if r.Stats().GaveUp != 1 {
		t.Fatalf("stats = %+v, want GaveUp=1", r.Stats())
	}
	// Backoff is exponential with jitter in [d/2, 3d/2).
	if len(slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(slept))
	}
	base := time.Millisecond
	for i, d := range slept {
		want := base << uint(i)
		if d < want/2 || d >= want+want/2 {
			t.Errorf("backoff %d = %v, want in [%v, %v)", i, d, want/2, want+want/2)
		}
	}
}

func TestRetryReaderPermanentErrorsPassThrough(t *testing.T) {
	boom := errors.New("disk on fire")
	f := &flaky{r: strings.NewReader("x"), fail: 1, err: boom}
	r := NewRetryReader(f, RetryOptions{Sleep: func(time.Duration) {}})
	if _, err := io.ReadAll(r); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the permanent error unretried", err)
	}
	if st := r.Stats(); st.Retries != 0 {
		t.Fatalf("permanent error was retried: %+v", st)
	}
}

func TestRetryReaderSeededJitterIsDeterministic(t *testing.T) {
	run := func() []time.Duration {
		f := &flaky{r: strings.NewReader("x"), fail: 3, err: tempErr{}}
		var slept []time.Duration
		r := NewRetryReader(f, RetryOptions{Seed: 42, Sleep: func(d time.Duration) { slept = append(slept, d) }})
		io.ReadAll(r)
		return slept
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("bad backoff sequences: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different jitter: %v vs %v", a, b)
		}
	}
}

func TestRetryReaderHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &flaky{r: strings.NewReader("x"), fail: 10, err: tempErr{}}
	r := NewRetryReader(f, RetryOptions{Ctx: ctx, BaseDelay: time.Hour, MaxDelay: time.Hour})
	start := time.Now()
	_, err := io.ReadAll(r)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}

func TestReplayContextCancellation(t *testing.T) {
	buf := &EventBuffer{}
	var e Event
	for i := 0; i < 3*CtxCheckEvery; i++ {
		if err := buf.Event(&e); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var seen int
	sink := SinkFunc(func(*Event) error {
		seen++
		if seen == CtxCheckEvery/2 {
			cancel()
		}
		return nil
	})
	err := buf.ReplayContext(ctx, sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	// The replay must stop at the next amortized check, not run to the end.
	if seen > CtxCheckEvery {
		t.Fatalf("replay delivered %d events after cancellation (check period %d)", seen, CtxCheckEvery)
	}
	// A fresh context replays in full.
	var n int
	if err := buf.ReplayContext(context.Background(), SinkFunc(func(*Event) error { n++; return nil })); err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("clean replay delivered %d of %d events", n, buf.Len())
	}
}

func TestEventBufferBytes(t *testing.T) {
	buf := &EventBuffer{}
	if buf.Bytes() != 0 {
		t.Fatalf("empty buffer reports %d bytes", buf.Bytes())
	}
	var e Event
	for i := 0; i < 1000; i++ {
		buf.Event(&e)
	}
	if got := buf.Bytes(); got < int64(1000*16) {
		t.Fatalf("buffer bytes %d implausibly small for 1000 events", got)
	}
}

func TestRetryReaderOverDamagedTraceStream(t *testing.T) {
	// An encoded trace read through a transiently failing medium must
	// decode identically once wrapped in a RetryReader.
	var raw bytes.Buffer
	w, err := NewWriter(&raw)
	if err != nil {
		t.Fatal(err)
	}
	ev := Event{PC: 0x1000}
	for i := 0; i < 5000; i++ {
		ev.PC += 4
		if err := w.Event(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	f := &flaky{r: bytes.NewReader(raw.Bytes()), err: tempErr{}}
	// Arm a fault before every 512-byte boundary by re-arming in the sleep
	// hook (each fault fails exactly once).
	r := NewRetryReader(f, RetryOptions{Sleep: func(time.Duration) {}})
	f.fail = 1
	tr, err := NewReader(r)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if err := tr.ForEach(func(*Event) error { n++; return nil }); err != nil {
		t.Fatalf("ForEach over retried stream: %v", err)
	}
	if n != 5000 {
		t.Fatalf("decoded %d events, want 5000", n)
	}
}

// errWithData returns its first read's data, at most n bytes, together
// with err, then reads cleanly.
type errWithData struct {
	r     io.Reader
	n     int
	err   error
	fired bool
}

func (d *errWithData) Read(p []byte) (int, error) {
	if d.fired {
		return d.r.Read(p)
	}
	d.fired = true
	n, _ := d.r.Read(p[:min(len(p), d.n)])
	return n, d.err
}

// TestRetryReaderDropsTransientErrorWithData: a transient error that
// arrives with data is dropped and the data delivered, so the stream
// continues; a permanent one still rides along with its data.
func TestRetryReaderDropsTransientErrorWithData(t *testing.T) {
	payload := []byte(strings.Repeat("0123456789", 200))
	r := NewRetryReader(&errWithData{r: bytes.NewReader(payload), n: 512, err: tempErr{}},
		RetryOptions{Sleep: func(time.Duration) {}})
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read %d of %d bytes, err %v; want all of them", len(got), len(payload), err)
	}
	boom := errors.New("disk on fire")
	r = NewRetryReader(&errWithData{r: bytes.NewReader(payload), n: 512, err: boom},
		RetryOptions{Sleep: func(time.Duration) {}})
	got, err = io.ReadAll(r)
	if !errors.Is(err, boom) || len(got) != 512 {
		t.Fatalf("read %d bytes, err %v; want 512 and the permanent error", len(got), err)
	}
}
