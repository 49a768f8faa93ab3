package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// store is specrun's autosave row store: a map of "experiment/workload"
// keys to finished result rows, persisted as an append-only record log.
// Each put appends one CRC-framed record and fsyncs — O(row) per save
// instead of the old whole-file JSON rewrite, whose O(rows²) tail
// dominated big sweeps. A kill at any instant costs at most the torn
// record at the tail: recovery keeps every fully-framed record before it.
// Workloads are deterministic, so a resumed run that splices cached rows
// into fresh ones produces output identical to an uninterrupted run.
//
// On-disk format:
//
//	magic "specrunlog1\n"
//	record := kind(1B: 1=put 2=delete)
//	          uvarint(len(key)) key
//	          uvarint(len(value)) value       (empty for deletes)
//	          uint32le CRC-32/IEEE of the record bytes before it
//
// Later records win: a re-put supersedes, a delete tombstones. Opening
// with -resume replays the log and, when it holds tombstones, superseded
// rows, or a damaged tail, compacts it — one put record per live key,
// sorted, written through a temp-file+rename. A legacy whole-file JSON
// store is detected and migrated to the log format transparently.
//
// put may be called concurrently (the suite's OnRow hook fires from
// workload goroutines); the store serializes appends internally.
type store struct {
	path string

	mu      sync.Mutex
	rows    map[string]json.RawMessage
	f       *os.File
	appends int64 // records appended since open (write-amplification tests)
}

const storeMagic = "specrunlog1\n"

const (
	recPut byte = 1
	recDel byte = 2
)

// Framing sanity caps: a length prefix beyond these is corruption, not a
// record, so the scanner stops there instead of allocating absurdity.
const (
	maxKeyLen = 1 << 16
	maxValLen = 1 << 28
)

// appendRecord encodes one record into buf and returns the extended slice.
func appendRecord(buf []byte, kind byte, key string, val []byte) []byte {
	start := len(buf)
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(val)))
	buf = append(buf, val...)
	sum := crc32.ChecksumIEEE(buf[start:])
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// readRecord decodes the record at the head of b. ok is false on a torn or
// corrupt frame (short data, bad kind, oversized length, CRC mismatch); n
// is the record's encoded size when ok.
func readRecord(b []byte) (kind byte, key string, val []byte, n int, ok bool) {
	if len(b) < 1 {
		return 0, "", nil, 0, false
	}
	kind = b[0]
	if kind != recPut && kind != recDel {
		return 0, "", nil, 0, false
	}
	i := 1
	klen, m := binary.Uvarint(b[i:])
	if m <= 0 || klen > maxKeyLen {
		return 0, "", nil, 0, false
	}
	i += m
	if uint64(len(b)-i) < klen {
		return 0, "", nil, 0, false
	}
	key = string(b[i : i+int(klen)])
	i += int(klen)
	vlen, m := binary.Uvarint(b[i:])
	if m <= 0 || vlen > maxValLen {
		return 0, "", nil, 0, false
	}
	i += m
	if uint64(len(b)-i) < vlen+4 {
		return 0, "", nil, 0, false
	}
	val = b[i : i+int(vlen)]
	i += int(vlen)
	if crc32.ChecksumIEEE(b[:i]) != binary.LittleEndian.Uint32(b[i:]) {
		return 0, "", nil, 0, false
	}
	return kind, key, val, i + 4, true
}

// scanLog replays a log body (after the magic), returning the surviving
// table and whether the log needs compaction: a damaged tail, tombstones,
// or superseded records. Scanning stops at the first bad frame — every
// fully-framed record before it survives.
func scanLog(data []byte) (rows map[string]json.RawMessage, dirty bool) {
	rows = map[string]json.RawMessage{}
	records := 0
	off := 0
	for off < len(data) {
		kind, key, val, n, ok := readRecord(data[off:])
		if !ok {
			dirty = true // torn or corrupt tail: drop it at compaction
			break
		}
		off += n
		records++
		switch kind {
		case recPut:
			rows[key] = append(json.RawMessage(nil), val...)
		case recDel:
			delete(rows, key)
		}
	}
	if records != len(rows) {
		dirty = true // tombstones or superseded rows to reclaim
	}
	return rows, dirty
}

// openStore opens the autosave store at path. With resume, rows already on
// disk are loaded for reuse (compacting the log when it carries damage or
// dead records, and migrating a legacy JSON store); without it the store
// starts fresh, replacing whatever the file held.
func openStore(path string, resume bool) (*store, error) {
	st := &store{path: path, rows: map[string]json.RawMessage{}}
	if !resume {
		if err := st.rewrite(); err != nil {
			return nil, err
		}
		return st, nil
	}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Nothing autosaved yet: resume degenerates to a fresh run.
		if err := st.rewrite(); err != nil {
			return nil, err
		}
		return st, nil
	case err != nil:
		return nil, err
	}
	switch {
	case bytes.HasPrefix(data, []byte(storeMagic)):
		rows, dirty := scanLog(data[len(storeMagic):])
		st.rows = rows
		if dirty {
			if err := st.rewrite(); err != nil {
				return nil, err
			}
			return st, nil
		}
		// Clean log: append in place.
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		st.f = f
		return st, nil
	case len(bytes.TrimSpace(data)) > 0 && bytes.TrimSpace(data)[0] == '{':
		// Legacy whole-file JSON store: migrate to the log format.
		if err := json.Unmarshal(data, &st.rows); err != nil {
			return nil, fmt.Errorf("corrupt autosave file %s (delete it to start over): %w", path, err)
		}
		if err := st.rewrite(); err != nil {
			return nil, err
		}
		return st, nil
	}
	return nil, fmt.Errorf("corrupt autosave file %s (delete it to start over): not a row-store log", path)
}

// rewrite compacts the store: the current table, one sorted put record per
// key, written to a temp file and renamed over path, then reopened for
// appending. Also the fresh-store initializer (empty table = bare magic).
func (st *store) rewrite() error {
	if st.f != nil {
		st.f.Close()
		st.f = nil
	}
	keys := make([]string, 0, len(st.rows))
	for k := range st.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	data := []byte(storeMagic)
	for _, k := range keys {
		data = appendRecord(data, recPut, k, st.rows[k])
	}
	dir := filepath.Dir(st.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(st.path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), st.path); err != nil {
		return err
	}
	f, err := os.OpenFile(st.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st.f = f
	return nil
}

// put records v under key and appends one durable record — constant work
// per row regardless of how many rows the store already holds.
func (st *store) put(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := st.f.Write(appendRecord(nil, recPut, key, raw)); err != nil {
		return err
	}
	if err := st.f.Sync(); err != nil {
		return err
	}
	st.appends++
	st.rows[key] = raw
	return nil
}

// drop tombstones key: the row stops resolving immediately and the next
// compacting open reclaims it.
func (st *store) drop(key string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.rows[key]; !ok {
		return nil
	}
	if _, err := st.f.Write(appendRecord(nil, recDel, key, nil)); err != nil {
		return err
	}
	if err := st.f.Sync(); err != nil {
		return err
	}
	st.appends++
	delete(st.rows, key)
	return nil
}

// len reports how many rows the store currently resolves.
func (st *store) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.rows)
}

// has reports whether key currently resolves.
func (st *store) has(key string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.rows[key]
	return ok
}

// close releases the append handle; the log itself is already durable.
func (st *store) close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	err := st.f.Close()
	st.f = nil
	return err
}

// getCached returns the row stored under key, if one round-trips cleanly.
func getCached[T any](st *store, key string) (T, bool) {
	var v T
	if st == nil {
		return v, false
	}
	st.mu.Lock()
	raw, ok := st.rows[key]
	st.mu.Unlock()
	if !ok {
		return v, false
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return v, false
	}
	return v, true
}
