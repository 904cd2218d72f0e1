// Package pcreg interns program counters. The LLVM pass in the original
// tool records real PCs that are later symbolized; here every
// instrumentation site registers once — capturing its Go source location —
// and accesses carry the small interned id through trace logs. The
// collector persists the table to an auxiliary trace file so the offline
// analyzer, possibly a different process, can symbolize race reports.
package pcreg

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Table maps interned ids to source locations. The zero value is invalid;
// use NewTable. A process-wide Default table serves the common case.
type Table struct {
	mu    sync.RWMutex
	names []string
	index map[string]uint64
}

// NewTable returns an empty table. Id 0 is reserved for "unknown".
func NewTable() *Table {
	t := &Table{index: make(map[string]uint64)}
	t.names = append(t.names, "unknown")
	t.index["unknown"] = 0
	return t
}

// Default is the process-wide table used by the runtime's instrumentation
// helpers.
var Default = NewTable()

// Register interns name and returns its id. Registering the same name
// twice returns the same id.
func (t *Table) Register(name string) uint64 {
	t.mu.RLock()
	id, ok := t.index[name]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.index[name]; ok {
		return id
	}
	id = uint64(len(t.names))
	t.names = append(t.names, name)
	t.index[name] = id
	return id
}

// Name returns the source location for id, or "pc(N)" when unknown.
func (t *Table) Name(id uint64) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < uint64(len(t.names)) {
		return t.names[id]
	}
	return fmt.Sprintf("pc(%d)", id)
}

// Len returns the number of interned sites, including the reserved id 0.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.names)
}

// Here registers the caller's source location (skip frames above the
// caller of Here) and returns its id. Call it once per instrumentation
// site, outside hot loops.
func (t *Table) Here(skip int) uint64 {
	_, file, line, ok := runtime.Caller(skip + 1)
	if !ok {
		return 0
	}
	// Keep the last two path elements: pkg/file.go:NN.
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		if j := strings.LastIndexByte(file[:i], '/'); j >= 0 {
			file = file[j+1:]
		}
	}
	return t.Register(file + ":" + strconv.Itoa(line))
}

// Here registers the caller's location in the Default table.
func Here() uint64 { return Default.Here(1) }

// Site registers a symbolic site name in the Default table.
func Site(name string) uint64 { return Default.Register(name) }

// trailerTag opens the line WriteTo ends every table with:
//
//	#end<TAB><lines><TAB><crc32>
//
// where lines counts the lines before the trailer and crc32 is the IEEE
// checksum of every byte before it, as 8 lowercase hex digits. Entry lines
// start with a decimal id, so the tag never collides with one.
const trailerTag = "#end"

// WriteTo serializes the table as "id<TAB>name" lines followed by the
// trailer line that commits it (see Sealed).
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	body := io.MultiWriter(bw, crc)
	var n int64
	for id, name := range t.names {
		k, err := fmt.Fprintf(body, "%d\t%s\n", id, name)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	k, err := fmt.Fprintf(bw, "%s\t%d\t%08x\n", trailerTag, len(t.names), crc.Sum32())
	n += int64(k)
	if err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// Sealed reports whether data is a complete serialized table: it ends in a
// trailer line whose line count and checksum match the bytes before it.
// Every strict prefix of what WriteTo wrote is unsealed, so a reader
// tailing a still-running collector can tell a finished table from one
// that is still being written, however long the writer stalls.
func Sealed(data []byte) bool {
	i := lastLine(data)
	line, ok := bytes.CutSuffix(data[i:], []byte{'\n'})
	if !ok {
		return false
	}
	lines, sum, ok := parseTrailer(string(line))
	return ok && bytes.Count(data[:i], []byte{'\n'}) == lines && crc32.ChecksumIEEE(data[:i]) == sum
}

// lastLine returns where data's last line starts, ignoring a final newline.
func lastLine(data []byte) int {
	return bytes.LastIndexByte(bytes.TrimSuffix(data, []byte{'\n'}), '\n') + 1
}

// parseTrailer parses a trailer line without its newline.
func parseTrailer(line string) (lines int, sum uint32, ok bool) {
	rest, found := strings.CutPrefix(line, trailerTag+"\t")
	if !found {
		return 0, 0, false
	}
	count, hex, found := strings.Cut(rest, "\t")
	if !found || len(hex) != 8 {
		return 0, 0, false
	}
	n, err := strconv.Atoi(count)
	if err != nil || n < 0 {
		return 0, 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 32)
	if err != nil {
		return 0, 0, false
	}
	return n, uint32(v), true
}

// ReadTable parses a table previously written by WriteTo and reports
// whether it was sealed. A trailer must match the lines before it
// (Sealed); a table without one is read as is and reported unsealed — the
// table of a run that never reached its end, or of a collector that
// predates the trailer.
func ReadTable(r io.Reader) (t *Table, sealed bool, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, false, err
	}
	if i := lastLine(data); bytes.HasPrefix(data[i:], []byte("#")) {
		if !Sealed(data) {
			return nil, false, fmt.Errorf("pcreg: trailer %q does not match the table", bytes.TrimSuffix(data[i:], []byte{'\n'}))
		}
		data, sealed = data[:i], true
	}
	t, err = parseTable(data)
	return t, sealed, err
}

// parseTable parses the "id<TAB>name" lines of a table without trailer.
func parseTable(data []byte) (*Table, error) {
	t := NewTable()
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	entries := make(map[uint64]string)
	var maxID uint64
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		tab := strings.IndexByte(line, '\t')
		if tab < 0 {
			return nil, fmt.Errorf("pcreg: malformed line %q", line)
		}
		id, err := strconv.ParseUint(line[:tab], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pcreg: bad id in %q: %w", line, err)
		}
		entries[id] = line[tab+1:]
		if id > maxID {
			maxID = id
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	t.names = make([]string, maxID+1)
	t.index = make(map[string]uint64, len(entries))
	for id := range t.names {
		t.names[id] = fmt.Sprintf("pc(%d)", id)
	}
	ids := make([]uint64, 0, len(entries))
	for id := range entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		t.names[id] = entries[id]
		t.index[entries[id]] = id
	}
	return t, nil
}
