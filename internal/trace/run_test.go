package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// expandRecord appends the single accesses a decoded record stands for.
func expandRecord(dst []Event, ev Event) []Event {
	for n := ev.Count; n > 0; n-- {
		one := ev
		one.Stride, one.Count = 0, 1
		dst = append(dst, one)
		ev.Addr += uint64(ev.Stride)
	}
	return dst
}

// accessKey renders an access for multiset comparison.
func accessKey(ev Event) string {
	return fmt.Sprintf("%#x/%d/%v/%v/%d", ev.Addr, ev.Size, ev.Write, ev.Atomic, ev.PC)
}

func sortedKeys(evs []Event) []string {
	keys := make([]string, len(evs))
	for i, ev := range evs {
		keys[i] = accessKey(ev)
	}
	slices.Sort(keys)
	return keys
}

// segment is the input between two boundaries the encoder must respect: a
// mutex event (which closes it) or a Len call (end, the byte length it
// returned).
type segment struct {
	accesses []Event
	mutex    *Event // the mutex event closing the segment, or nil
	end      int    // Len's return value when a Len call closed it
}

// checkBuffer decodes one flushed buffer and compares, segment by
// segment, the expanded accesses against the input multiset; mutex
// events must come back in order at the segment edges.
func checkBuffer(t *testing.T, buf []byte, segs []segment) {
	t.Helper()
	dec := NewDecoder(buf)
	si := 0
	var got []Event
	closeSeg := func(where string) {
		if si >= len(segs) {
			t.Fatalf("%s: decoded past the last segment", where)
		}
		if g, w := sortedKeys(got), sortedKeys(segs[si].accesses); !slices.Equal(g, w) {
			t.Fatalf("%s: segment %d decoded %d accesses %v, want %d %v", where, si, len(g), g, len(w), w)
		}
		got = got[:0]
		si++
	}
	for dec.More() {
		pos := dec.Pos()
		for si < len(segs) && segs[si].mutex == nil && pos >= segs[si].end {
			closeSeg(fmt.Sprintf("Len boundary at %d", segs[si].end))
		}
		var ev Event
		if err := dec.Next(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind != KindAccess {
			if si >= len(segs) || segs[si].mutex == nil || *segs[si].mutex != ev {
				t.Fatalf("unexpected mutex record %+v at %d", ev, pos)
			}
			closeSeg(fmt.Sprintf("mutex at %d", pos))
			continue
		}
		got = expandRecord(got, ev)
	}
	for si < len(segs) {
		if segs[si].mutex != nil {
			t.Fatalf("mutex event of segment %d missing", si)
		}
		closeSeg("end of buffer")
	}
}

// TestRunEncodingPreservesAccesses is the run encoder's property test:
// random streams mixing several strided streams, two progressions
// interleaved under one (pc, tag) key, negative and zero strides, noise,
// mutex events mid-stream, Len calls, flushes and Reset mid-run. Between
// consecutive boundaries, the decoded and expanded accesses must equal the
// input's as a multiset.
func TestRunEncodingPreservesAccesses(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type gen struct {
			addr   uint64
			stride int64
			size   uint8
			write  bool
			pc     uint64
		}
		gens := make([]gen, 2+rng.Intn(5))
		for i := range gens {
			gens[i] = gen{
				addr:   uint64(rng.Intn(1 << 20)),
				stride: int64(rng.Intn(5)-2) * 8,
				size:   uint8(1 << rng.Intn(4)),
				write:  rng.Intn(2) == 0,
				pc:     uint64(rng.Intn(3)), // few pcs: same-key streams interleave
			}
		}
		var enc Encoder
		var segs []segment
		var cur []Event
		records := 0
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(100); {
			case r < 3:
				ev := Event{Kind: KindMutexAcquire, Mutex: uint64(rng.Intn(8)), Count: 1}
				if rng.Intn(2) == 0 {
					ev.Kind = KindMutexRelease
					enc.Release(ev.Mutex)
				} else {
					enc.Acquire(ev.Mutex)
				}
				segs = append(segs, segment{accesses: cur, mutex: &ev})
				cur = nil
			case r < 6:
				segs = append(segs, segment{accesses: cur, end: enc.Len()})
				cur = nil
			case r < 8: // flush: Bytes ends the runs, then the buffer is checked
				buf := bytes.Clone(enc.Bytes())
				segs = append(segs, segment{accesses: cur, end: len(buf)})
				checkBuffer(t, buf, segs)
				records += enc.Records()
				enc.Reset()
				segs, cur = nil, nil
			case r < 9: // Reset mid-run: the buffer and its open runs are dropped
				enc.Reset()
				segs, cur = nil, nil
			case r < 14: // noise
				ev := Event{Kind: KindAccess, Addr: uint64(rng.Intn(1 << 20)), Size: 8, PC: uint64(rng.Intn(3)), Count: 1}
				enc.Access(ev.Addr, ev.Size, ev.Write, ev.Atomic, ev.PC)
				cur = append(cur, ev)
			default:
				g := &gens[rng.Intn(len(gens))]
				for n := 1 + rng.Intn(8); n > 0; n-- {
					ev := Event{Kind: KindAccess, Addr: g.addr, Size: g.size, Write: g.write, PC: g.pc, Count: 1}
					enc.Access(ev.Addr, ev.Size, ev.Write, ev.Atomic, ev.PC)
					cur = append(cur, ev)
					g.addr += uint64(g.stride)
				}
			}
		}
		buf := bytes.Clone(enc.Bytes())
		segs = append(segs, segment{accesses: cur, end: len(buf)})
		checkBuffer(t, buf, segs)
		if records += enc.Records(); records == 0 {
			t.Fatalf("seed %d: no records counted", seed)
		}
	}
}

// TestRunRecordsCoalesce: a strided sweep becomes a handful of records,
// whatever its stride sign, and Events still counts every access.
func TestRunRecordsCoalesce(t *testing.T) {
	for _, stride := range []int64{8, -8, 0, 1 << 40} {
		var enc Encoder
		addr := uint64(1 << 50)
		for i := 0; i < 10000; i++ {
			enc.Access(addr, 8, true, false, 5)
			addr += uint64(stride)
		}
		enc.Len()
		if enc.Events() != 10000 || enc.Records() > 3 {
			t.Fatalf("stride %d: %d events in %d records, want 10000 in at most 3", stride, enc.Events(), enc.Records())
		}
		dec := NewDecoder(enc.Bytes())
		var n uint64
		for dec.More() {
			var ev Event
			if err := dec.Next(&ev); err != nil {
				t.Fatal(err)
			}
			n += ev.Count
		}
		if n != 10000 {
			t.Fatalf("stride %d: decoded %d accesses, want 10000", stride, n)
		}
	}
}

// TestRunSplitsAtAddressWrap: a progression that wraps around the address
// space is written as runs that do not, so the decoder (which rejects
// wrapping runs) reads it back.
func TestRunSplitsAtAddressWrap(t *testing.T) {
	var enc Encoder
	addr := uint64(math.MaxUint64 - 3*64)
	var want []Event
	for i := 0; i < 10; i++ {
		enc.Access(addr, 8, false, false, 1)
		want = append(want, Event{Kind: KindAccess, Addr: addr, Size: 8, PC: 1, Count: 1})
		addr += 64
	}
	dec := NewDecoder(enc.Bytes())
	var got []Event
	for dec.More() {
		var ev Event
		if err := dec.Next(&ev); err != nil {
			t.Fatal(err)
		}
		got = expandRecord(got, ev)
	}
	if !slices.Equal(sortedKeys(got), sortedKeys(want)) {
		t.Fatalf("decoded %v, want %v", sortedKeys(got), sortedKeys(want))
	}
}

// appendRunRecord hand-encodes a run record after a zero address register.
func appendRunRecord(dst []byte, tag byte, base, pc uint64, stride int64, countMinus2 uint64) []byte {
	dst = append(dst, tagRun, tag)
	dst = binary.AppendUvarint(dst, zigzag(int64(base)))
	dst = binary.AppendUvarint(dst, pc)
	dst = binary.AppendUvarint(dst, zigzag(stride))
	return binary.AppendUvarint(dst, countMinus2)
}

// TestDecoderRejectsHostileRuns: counts beyond MaxRunCount and
// progressions that would wrap are malformed.
func TestDecoderRejectsHostileRuns(t *testing.T) {
	for name, buf := range map[string][]byte{
		"count over MaxRunCount": appendRunRecord(nil, 0x8c, 0x1000, 1, 8, MaxRunCount-1),
		"count overflows":        appendRunRecord(nil, 0x8c, 0x1000, 1, 8, math.MaxUint64),
		"wraps upward":           appendRunRecord(nil, 0x8c, math.MaxUint64-7, 1, 8, 0),
		"wraps downward":         appendRunRecord(nil, 0x8c, 8, 1, -16, 0),
		"reserved tag bits":      appendRunRecord(nil, 0x8d, 0x1000, 1, 8, 0),
		"truncated count":        appendRunRecord(nil, 0x8c, 0x1000, 1, 8, 0)[:6],
	} {
		var ev Event
		if err := NewDecoder(buf).Next(&ev); err == nil {
			t.Errorf("%s: decoded %+v", name, ev)
		}
	}
	ok := appendRunRecord(nil, 0xcc, 8*(MaxRunCount-1), 3, -8, MaxRunCount-2)
	var ev Event
	if err := NewDecoder(ok).Next(&ev); err != nil || ev.Count != MaxRunCount || ev.Stride != -8 || !ev.Write {
		t.Fatalf("largest legal run: %+v, %v", ev, err)
	}
}

// fuzzSeedEvents builds encoder output of the shapes the collector writes
// — strided sweeps of each stride sign, interleaved streams, mutex events
// — plus hostile run records, as the decoder fuzz corpus.
func fuzzSeedEvents() [][]byte {
	var seeds [][]byte
	var enc Encoder
	for _, stride := range []int64{8, -8, 0} {
		enc.Reset()
		addr := uint64(0x10000)
		for i := 0; i < 50; i++ {
			enc.Access(addr, 8, i%3 == 0, false, uint64(i%3))
			if i%3 == 2 {
				addr += uint64(stride)
			}
			if i == 25 {
				enc.Acquire(2)
			}
		}
		enc.Release(2)
		seeds = append(seeds, bytes.Clone(enc.Bytes()))
	}
	seeds = append(seeds,
		appendRunRecord(nil, 0x8c, 0x1000, 1, 8, MaxRunCount),
		appendRunRecord(nil, 0x8c, math.MaxUint64-7, 1, 8, 0),
		[]byte{tagRun},
	)
	return seeds
}

// FuzzDecoder feeds arbitrary bytes to the event decoder. The contract:
// no panic; every call consumes at least one byte, so decoding a buffer
// ends; a record never claims more than MaxRunCount accesses or a
// progression that wraps; and the count and stride it reports are the
// ones the record's bytes encode, checked by an independent parse of
// each run record.
func FuzzDecoder(f *testing.F) {
	for _, seed := range fuzzSeedEvents() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(data)
		for dec.More() {
			pos := dec.Pos()
			var ev Event
			if err := dec.Next(&ev); err != nil {
				return
			}
			if dec.Pos() <= pos {
				t.Fatalf("decoder did not advance at %d", pos)
			}
			if ev.Count == 0 || ev.Count > MaxRunCount {
				t.Fatalf("record at %d claims %d events", pos, ev.Count)
			}
			if ev.Count > 1 && ev.Count > runFit(ev.Addr, ev.Stride) {
				t.Fatalf("run at %d wraps: %+v", pos, ev)
			}
			if data[pos] != tagRun {
				if ev.Count != 1 || ev.Stride != 0 {
					t.Fatalf("plain record at %d decoded as %+v", pos, ev)
				}
				continue
			}
			p := pos + 2
			var fields [4]uint64 // address delta, pc, stride, count-2
			for i := range fields {
				v, n := binary.Uvarint(data[p:])
				if n <= 0 {
					t.Fatalf("decoder accepted a truncated run at %d", pos)
				}
				fields[i], p = v, p+n
			}
			if p != dec.Pos() || ev.PC != fields[1] || ev.Stride != unzigzag(fields[2]) || ev.Count != fields[3]+2 {
				t.Fatalf("run at %d decoded as %+v, bytes say pc %d stride %d count %d+2 ending at %d",
					pos, ev, fields[1], unzigzag(fields[2]), fields[3], p)
			}
		}
	})
}
