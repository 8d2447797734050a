package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"

	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// recSize is one recorded operation: transaction id, item id, action,
// value.
const recSize = 4 + 4 + 1 + 8

// recorder appends every committed schedule to a file in a compact
// binary form, so the check can read the whole concatenated schedule
// back without the run keeping it on its heap, where it would change
// the garbage collector's pacing.
type recorder struct {
	f     *os.File
	w     *bufio.Writer
	names []string
	ids   map[string]int32
	// bounds[i] is the operation count of request i.
	bounds []int
	buf    [recSize]byte
	h      hash.Hash64
	// digest identifies the recorded schedule once chunks has read
	// it back.
	digest uint64
}

func newRecorder(dir string, names []string) (*recorder, error) {
	f, err := os.CreateTemp(dir, "schedule-*.bin")
	if err != nil {
		return nil, err
	}
	r := &recorder{f: f, w: bufio.NewWriterSize(f, 1<<16), names: names, ids: make(map[string]int32, len(names)), h: fnv.New64a()}
	for i, n := range names {
		r.ids[n] = int32(i)
	}
	return r, nil
}

// add appends one request's schedule.
func (r *recorder) add(ops txn.Seq) error {
	for _, o := range ops {
		id, ok := r.ids[o.Entity]
		if !ok {
			return fmt.Errorf("schedule names unknown item %q", o.Entity)
		}
		if !o.Value.IsInt() {
			return fmt.Errorf("schedule op %v carries a non-integer value", o)
		}
		binary.LittleEndian.PutUint32(r.buf[0:], uint32(o.Txn))
		binary.LittleEndian.PutUint32(r.buf[4:], uint32(id))
		r.buf[8] = byte(o.Action)
		binary.LittleEndian.PutUint64(r.buf[9:], uint64(o.Value.AsInt()))
		if _, err := r.w.Write(r.buf[:]); err != nil {
			return err
		}
		r.h.Write(r.buf[:])
	}
	r.bounds = append(r.bounds, len(ops))
	return nil
}

// chunks reads the recorded schedule back in order, n requests at a
// time, and calls fn with each chunk as one schedule.
func (r *recorder) chunks(n int, fn func(*txn.Schedule) error) error {
	if err := r.w.Flush(); err != nil {
		return err
	}
	r.digest = r.h.Sum64()
	if _, err := r.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	br := bufio.NewReaderSize(r.f, 1<<16)
	var ops []txn.Op
	for from := 0; from < len(r.bounds); from += n {
		ops = ops[:0]
		for _, k := range r.bounds[from:min(from+n, len(r.bounds))] {
			for ; k > 0; k-- {
				if _, err := io.ReadFull(br, r.buf[:]); err != nil {
					return fmt.Errorf("read schedule: %w", err)
				}
				ops = append(ops, txn.Op{
					Txn:    int(int32(binary.LittleEndian.Uint32(r.buf[0:]))),
					Entity: r.names[binary.LittleEndian.Uint32(r.buf[4:])],
					Action: txn.Action(r.buf[8]),
					Value:  state.Int(int64(binary.LittleEndian.Uint64(r.buf[9:]))),
				})
			}
		}
		if err := fn(txn.NewSchedule(ops...)); err != nil {
			return err
		}
	}
	return nil
}

// close removes the file.
func (r *recorder) close() {
	r.f.Close()
	os.Remove(r.f.Name())
}
