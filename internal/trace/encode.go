package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Event encoding
//
// Access (KindAccess):
//
//	tag byte: 1 w a sss mm
//	  bit 7    = 1 (access marker)
//	  bit 6    = write
//	  bit 5    = atomic
//	  bits 2-4 = log2(size)        (sizes 1..128 bytes)
//	  bits 0-1 = reserved (0)
//	zigzag-varint delta of Addr from the previous address register
//	uvarint PC id
//
// Run (KindAccess, Count ≥ 2): a strided stream of accesses sharing one
// access tag and pc, summarized at the source:
//
//	tag byte 0x03
//	access tag byte (as above)
//	zigzag-varint delta of the first address from the previous address register
//	uvarint PC id
//	zigzag-varint stride (any sign, including 0)
//	uvarint Count-2
//
// The addresses are base + i*stride for i in [0, Count); a run never wraps
// around the address space and never holds more than MaxRunCount accesses.
// After a run the previous-address register holds its last address.
//
// Mutex events:
//
//	tag byte 0x01 (acquire) or 0x02 (release), then uvarint mutex id.
//
// Address deltas exploit spatial locality of array sweeps: consecutive
// strided accesses encode in 2–4 bytes, and a sweep that keeps its stride
// collapses into one run record. The previous-address register resets to
// zero at the start of every encoder buffer (Reset); the collector keeps
// one encoder per flush buffer and the decoder mirrors its state, so
// fragment boundaries inside a buffer are safe.

const (
	tagAcquire = 0x01
	tagRelease = 0x02
	tagRun     = 0x03
	tagAccess  = 0x80
)

// MaxRunCount bounds the accesses one run record summarizes. It is what one
// block could hold as plain access records (each is at least three bytes),
// so a run never describes more than a buffer could have carried; decoders
// reject larger counts as malformed.
const MaxRunCount = MaxBlockBytes / 3

// streamWays is the associativity of the encoder's stream cache.
const streamWays = 4

// stream is one entry of the encoder's stream cache: the address history
// of one (pc, access tag) pair, and its open run when the stream is in run
// mode.
type stream struct {
	last  uint64 // address of the stream's latest access
	delta uint64 // last minus previous address (mod 2^64); 0 for a new stream
	base  uint64 // first address of the open run
	count uint64 // accesses in the open run; 0 when not in run mode
}

// Encoder appends encoded events to an internal buffer.
//
// Accesses are encoded eagerly, except on a stream in run mode. A stream is
// the accesses of one (pc, access tag) pair; the encoder tracks up to four
// of them in a fully associative cache with round-robin replacement. A
// stream enters run mode when an access repeats the stream's last address
// delta; from then on accesses that continue the progression are only
// counted, and the run is written as one record when it ends. A run ends
// when its stream breaks, its cache entry is evicted, a mutex event
// arrives, or Len, Bytes or Reset is called — so a caller that reads Len at
// every boundary it records (fragment, flush, commit) never sees a run
// straddle one.
//
// The zero value is ready to use.
type Encoder struct {
	buf      []byte
	prevAddr uint64
	events   int // accesses and mutex events since Reset
	records  int // records written since Reset

	keys    [streamWays]uint64 // pc<<8 | access tag; 0 marks an empty way
	streams [streamWays]stream
	victim  uint8 // next way to replace
	open    int   // streams in run mode
}

// Reset clears the buffer and the delta state, keeping capacity. Open runs
// belong to the discarded buffer and are dropped with it; the stream
// cache's address history survives, so a sweep that continues across a
// flush resumes run mode at once.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.prevAddr = 0
	e.events = 0
	e.records = 0
	if e.open != 0 {
		for i := range e.streams {
			e.streams[i].count = 0
		}
		e.open = 0
	}
}

// Bytes ends every open run and returns the encoded buffer. The slice is
// invalidated by further writes or Reset.
func (e *Encoder) Bytes() []byte {
	if e.open != 0 {
		e.endRuns()
	}
	return e.buf
}

// Len ends every open run and returns the encoded size in bytes.
func (e *Encoder) Len() int {
	if e.open != 0 {
		e.endRuns()
	}
	return len(e.buf)
}

// Events returns the number of events (accesses and mutex events) encoded
// since the last Reset, counting every access of a run, open or written.
func (e *Encoder) Events() int { return e.events }

// Records returns the number of records written since the last Reset. A
// run counts once, when it ends; call Len first for an exact figure.
func (e *Encoder) Records() int { return e.records }

// accessWindow is the spare capacity Access writes a plain record into:
// a record takes at most 1 + 2*binary.MaxVarintLen64 = 21 bytes, and a
// power-of-two window lets the writes go unchecked by index masking.
const accessWindow = 32

// Access encodes a memory access event. Size must be a power of two in
// 1..128.
//
// The common cases — a cached stream that continues its run, or one that
// is encoded eagerly into a buffer with room — run without a call, so
// the arguments never spill; every other case returns through accessSlow.
func (e *Encoder) Access(addr uint64, size uint8, write, atomic bool, pc uint64) {
	e.events++
	if size == 0 || size&(size-1) != 0 || pc >= 1<<56 {
		e.accessSlow(addr, size, write, atomic, pc)
		return
	}
	tag := accessTag(size, write, atomic)
	key := pc<<8 | uint64(tag)
	var s *stream
	switch key {
	case e.keys[0]:
		s = &e.streams[0]
	case e.keys[1]:
		s = &e.streams[1]
	case e.keys[2]:
		s = &e.streams[2]
	case e.keys[3]:
		s = &e.streams[3]
	default:
		e.accessSlow(addr, size, write, atomic, pc)
		return
	}
	d := addr - s.last
	if d == s.delta {
		s.last = addr
		if s.count == 0 {
			s.base = addr
			e.open++
		}
		s.count++
		if s.count == MaxRunCount {
			e.endRun(key, s)
		}
		return
	}
	n := len(e.buf)
	if s.count != 0 || cap(e.buf)-n < accessWindow {
		e.accessSlow(addr, size, write, atomic, pc)
		return
	}
	s.delta = d
	s.last = addr
	p := (*[accessWindow]byte)(e.buf[n : n+accessWindow])
	p[0] = tag
	i := 1 // never above 20: masking with accessWindow-1 only drops bounds checks
	z := zigzag(int64(addr - e.prevAddr))
	for z >= 0x80 {
		p[i&(accessWindow-1)] = byte(z) | 0x80
		z >>= 7
		i++
	}
	p[i&(accessWindow-1)] = byte(z)
	i++
	for pc >= 0x80 {
		p[i&(accessWindow-1)] = byte(pc) | 0x80
		pc >>= 7
		i++
	}
	p[i&(accessWindow-1)] = byte(pc)
	e.buf = e.buf[:n+i+1]
	e.prevAddr = addr
	e.records++
}

// accessTag returns the tag byte of an access of a valid size.
func accessTag(size uint8, write, atomic bool) byte {
	tag := byte(tagAccess | bits.TrailingZeros8(size)<<2)
	if write {
		tag |= 1 << 6
	}
	if atomic {
		tag |= 1 << 5
	}
	return tag
}

// accessSlow is Access for every case its straight path leaves out: an
// invalid size (which panics), a pc too large for a cache key, a cache
// miss, and, on a cached stream whose delta changed, a run to end or a
// buffer that must grow. Access has already counted the event.
func (e *Encoder) accessSlow(addr uint64, size uint8, write, atomic bool, pc uint64) {
	if size == 0 || size&(size-1) != 0 {
		panic(fmt.Sprintf("trace: invalid access size %d", size))
	}
	tag := accessTag(size, write, atomic)
	if pc >= 1<<56 { // does not fit a cache key
		e.putAccess(tag, addr, pc)
		return
	}
	key := pc<<8 | uint64(tag)
	w := slices.Index(e.keys[:], key)
	if w < 0 {
		w = e.replace(key, addr)
	}
	s := &e.streams[w]
	if s.count != 0 {
		e.endRun(key, s)
	}
	s.delta = addr - s.last
	s.last = addr
	e.putAccess(tag, addr, pc)
}

// replace installs key, for a stream whose latest access is addr, in the
// next way round-robin, ending the evicted stream's open run. It returns
// the way.
func (e *Encoder) replace(key, addr uint64) int {
	w := e.victim
	e.victim = (w + 1) % streamWays
	if s := &e.streams[w]; s.count != 0 {
		e.endRun(e.keys[w], s)
	}
	e.keys[w] = key
	e.streams[w] = stream{last: addr}
	return int(w)
}

// putAccess writes one plain access record.
func (e *Encoder) putAccess(tag byte, addr, pc uint64) {
	e.buf = append(e.buf, tag)
	e.buf = binary.AppendUvarint(e.buf, zigzag(int64(addr-e.prevAddr)))
	e.buf = binary.AppendUvarint(e.buf, pc)
	e.prevAddr = addr
	e.records++
}

// endRuns writes every open run.
func (e *Encoder) endRuns() {
	for i := range e.streams {
		if s := &e.streams[i]; s.count != 0 {
			e.endRun(e.keys[i], s)
		}
	}
}

// endRun writes the stream's open run and leaves run mode. The stream
// keeps its address history, so a continuation re-enters run mode on its
// next access.
func (e *Encoder) endRun(key uint64, s *stream) {
	e.putRun(byte(key), s.base, key>>8, int64(s.delta), s.count)
	s.count = 0
	e.open--
}

// putRun writes count accesses base + i*stride as run records, splitting
// the progression where it would wrap around the address space; a single
// access is written as a plain access record.
func (e *Encoder) putRun(tag byte, base, pc uint64, stride int64, count uint64) {
	for count > 0 {
		n := count
		if fit := runFit(base, stride); fit < n {
			n = fit
		}
		if n == 1 {
			e.putAccess(tag, base, pc)
		} else {
			e.buf = append(e.buf, tagRun, tag)
			e.buf = binary.AppendUvarint(e.buf, zigzag(int64(base-e.prevAddr)))
			e.buf = binary.AppendUvarint(e.buf, pc)
			e.buf = binary.AppendUvarint(e.buf, zigzag(stride))
			e.buf = binary.AppendUvarint(e.buf, n-2)
			e.prevAddr = base + (n-1)*uint64(stride)
			e.records++
		}
		base += n * uint64(stride)
		count -= n
	}
}

// runFit returns how many accesses base + i*stride fit before the
// progression would wrap around the address space.
func runFit(base uint64, stride int64) uint64 {
	switch {
	case stride > 0:
		return (math.MaxUint64-base)/uint64(stride) + 1
	case stride < 0:
		return base/(-uint64(stride)) + 1
	default:
		return math.MaxUint64
	}
}

// Acquire encodes a mutex acquisition. It ends every open run, so a run
// never spans a change of the held mutex set.
func (e *Encoder) Acquire(mutex uint64) { e.putMutex(tagAcquire, mutex) }

// Release encodes a mutex release, ending every open run.
func (e *Encoder) Release(mutex uint64) { e.putMutex(tagRelease, mutex) }

func (e *Encoder) putMutex(tag byte, mutex uint64) {
	if e.open != 0 {
		e.endRuns()
	}
	e.buf = append(e.buf, tag)
	e.buf = binary.AppendUvarint(e.buf, mutex)
	e.events++
	e.records++
}

// Decoder decodes events from a byte stream produced by Encoder. Its delta
// state must track the encoder's: decode exactly the bytes one encoder
// produced, in order, from a fresh Decoder per flush buffer.
type Decoder struct {
	buf      []byte
	pos      int
	prevAddr uint64
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset repoints the decoder at buf and clears the delta state.
func (d *Decoder) Reset(buf []byte) {
	d.buf = buf
	d.pos = 0
	d.prevAddr = 0
}

// Pos returns the byte position of the next record.
func (d *Decoder) Pos() int { return d.pos }

// More reports whether records remain.
func (d *Decoder) More() bool { return d.pos < len(d.buf) }

// uvarint reads one uvarint field, naming it in the error.
func (d *Decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: bad %s at %d", what, d.pos)
	}
	d.pos += n
	return v, nil
}

// Next decodes the next record into ev: one access, one run of accesses
// (Count ≥ 2), or one mutex event. It returns an error on a malformed or
// truncated stream; a run whose count exceeds MaxRunCount or whose
// addresses would wrap around the address space is malformed.
func (d *Decoder) Next(ev *Event) error {
	if d.pos >= len(d.buf) {
		return fmt.Errorf("trace: decode past end of buffer")
	}
	tag := d.buf[d.pos]
	d.pos++
	switch {
	case tag&tagAccess != 0:
		ev.Kind = KindAccess
		ev.Write = tag&(1<<6) != 0
		ev.Atomic = tag&(1<<5) != 0
		ev.Size = 1 << ((tag >> 2) & 0x7)
		z, n := binary.Uvarint(d.buf[d.pos:])
		if n <= 0 {
			return fmt.Errorf("trace: bad address delta at %d", d.pos)
		}
		d.pos += n
		d.prevAddr += uint64(unzigzag(z))
		ev.Addr = d.prevAddr
		pc, n := binary.Uvarint(d.buf[d.pos:])
		if n <= 0 {
			return fmt.Errorf("trace: bad pc at %d", d.pos)
		}
		d.pos += n
		ev.PC = pc
		ev.Stride, ev.Count, ev.Mutex = 0, 1, 0
		return nil
	case tag == tagRun:
		return d.nextRun(ev)
	case tag == tagAcquire, tag == tagRelease:
		kind := KindMutexAcquire
		if tag == tagRelease {
			kind = KindMutexRelease
		}
		m, err := d.uvarint("mutex id")
		if err != nil {
			return err
		}
		*ev = Event{Kind: kind, Mutex: m, Count: 1}
		return nil
	default:
		return fmt.Errorf("trace: unknown event tag %#x at %d", tag, d.pos-1)
	}
}

// nextRun decodes a run record after its tag byte.
func (d *Decoder) nextRun(ev *Event) error {
	if d.pos >= len(d.buf) {
		return fmt.Errorf("trace: truncated run at %d", d.pos)
	}
	tag := d.buf[d.pos]
	if tag&tagAccess == 0 || tag&3 != 0 {
		return fmt.Errorf("trace: bad run access tag %#x at %d", tag, d.pos)
	}
	d.pos++
	z, err := d.uvarint("run address delta")
	if err != nil {
		return err
	}
	pc, err := d.uvarint("run pc")
	if err != nil {
		return err
	}
	zs, err := d.uvarint("run stride")
	if err != nil {
		return err
	}
	c, err := d.uvarint("run count")
	if err != nil {
		return err
	}
	base, stride := d.prevAddr+uint64(unzigzag(z)), unzigzag(zs)
	if c > MaxRunCount-2 || c+2 > runFit(base, stride) {
		return fmt.Errorf("trace: run of %d+2 accesses from %#x stride %d out of range at %d", c, base, stride, d.pos)
	}
	*ev = Event{
		Kind:   KindAccess,
		Addr:   base,
		Size:   1 << ((tag >> 2) & 0x7),
		Write:  tag&(1<<6) != 0,
		Atomic: tag&(1<<5) != 0,
		PC:     pc,
		Stride: stride,
		Count:  c + 2,
	}
	d.prevAddr = base + (c+1)*uint64(stride)
	return nil
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// Meta encoding: one uvarint per field, in struct order. PPID encodes
// NoParent as 0 and otherwise pid+1, keeping root records to one byte.

// AppendMeta appends the binary encoding of m to dst.
func AppendMeta(dst []byte, m *Meta) []byte {
	dst = binary.AppendUvarint(dst, m.PID)
	pp := uint64(0)
	if m.PPID != NoParent {
		pp = m.PPID + 1
	}
	dst = binary.AppendUvarint(dst, pp)
	dst = binary.AppendUvarint(dst, m.BID)
	dst = binary.AppendUvarint(dst, m.Offset)
	dst = binary.AppendUvarint(dst, m.Span)
	dst = binary.AppendUvarint(dst, uint64(m.Level))
	dst = binary.AppendUvarint(dst, m.DataBegin)
	dst = binary.AppendUvarint(dst, m.DataSize)
	dst = binary.AppendUvarint(dst, m.ParentTID)
	dst = binary.AppendUvarint(dst, m.ParentBID)
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = binary.AppendUvarint(dst, uint64(m.Held))
	dst = binary.AppendUvarint(dst, m.Cut)
	dst = binary.AppendUvarint(dst, m.ParentCut)
	flags := uint64(0)
	if m.Async {
		flags |= 1
	}
	dst = binary.AppendUvarint(dst, flags)
	return dst
}

// DecodeMeta decodes one meta record from src, returning the bytes
// consumed.
func DecodeMeta(src []byte, m *Meta) (int, error) {
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(src[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: truncated meta record at byte %d", pos)
		}
		pos += n
		return v, nil
	}
	var err error
	read := func(dst *uint64) {
		if err != nil {
			return
		}
		*dst, err = next()
	}
	read(&m.PID)
	var pp uint64
	read(&pp)
	read(&m.BID)
	read(&m.Offset)
	read(&m.Span)
	var level uint64
	read(&level)
	read(&m.DataBegin)
	read(&m.DataSize)
	read(&m.ParentTID)
	read(&m.ParentBID)
	read(&m.Seq)
	var held uint64
	read(&held)
	m.Held = MutexSet(held)
	read(&m.Cut)
	read(&m.ParentCut)
	var flags uint64
	read(&flags)
	m.Async = flags&1 != 0
	if err != nil {
		return 0, err
	}
	if pp == 0 {
		m.PPID = NoParent
	} else {
		m.PPID = pp - 1
	}
	if m.Span == 0 {
		return 0, fmt.Errorf("trace: meta record with zero span")
	}
	m.Level = uint32(level)
	return pos, nil
}
