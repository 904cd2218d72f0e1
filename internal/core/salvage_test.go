package core

import (
	"bytes"
	"errors"
	"io"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"sword/internal/compress"
	"sword/internal/memsim"
	"sword/internal/obs"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/report"
	"sword/internal/rt"
	"sword/internal/trace"
)

// racyWorkload runs a two-thread region where both threads write the whole
// array every round: every barrier interval pair carries the same
// write-write race, and rounds scales the trace volume (the log writer
// buffers 64 KiB, so crash tests need enough rounds to reach the store
// mid-run). The writes go in bit-reversed index order, whose address
// deltas alternate in sign, so none coalesce into run records and the
// volume stays one record per access.
func racyWorkload(t *testing.T, store trace.Store, rounds int) error {
	t.Helper()
	col := rt.New(store, rt.Config{Synchronous: true, MaxEvents: 128, Codec: compress.Raw{}})
	pc := pcreg.Site("salvage-test:ww")
	rtm := omp.New(omp.WithTool(col))
	space := memsim.NewSpace(nil)
	arr, _ := space.AllocF64(64)
	rtm.Parallel(2, func(th *omp.Thread) {
		for round := 0; round < rounds; round++ {
			for i := 0; i < 64; i++ {
				j := int(bits.Reverse8(uint8(i)) >> 2)
				th.StoreF64(arr, j, float64(j), pc)
			}
			th.Barrier()
		}
	})
	return col.Close()
}

// raceSites normalizes a report to its distinct (pc, pc, write, write)
// pairs, the identity that survives a lost pc table.
func raceSites(rep *report.Report) [][4]uint64 {
	var out [][4]uint64
	for _, r := range rep.Races() {
		a, b := r.First, r.Second
		if a.PC > b.PC {
			a, b = b, a
		}
		k := [4]uint64{a.PC, b.PC, 0, 0}
		if a.Write {
			k[2] = 1
		}
		if b.Write {
			k[3] = 1
		}
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		for x := 0; x < 4; x++ {
			if out[i][x] != out[j][x] {
				return out[i][x] < out[j][x]
			}
		}
		return false
	})
	return out
}

func sitesEqual(a, b [][4]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSalvageCrashMidRun is the end-to-end crash simulation of the issue's
// acceptance criteria: the store dies mid-run (global byte budget runs out,
// final write torn), and salvage-mode analysis of the wreckage must recover
// the intact prefix of every slot, analyze the surviving interval pairs,
// and report the same races the uncorrupted run reports.
func TestSalvageCrashMidRun(t *testing.T) {
	clean := trace.NewMemStore()
	if err := racyWorkload(t, clean, 400); err != nil {
		t.Fatal(err)
	}
	cleanRep, err := New(clean, Config{}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if cleanRep.Len() == 0 {
		t.Fatal("clean run found no races; workload broken")
	}

	crashed := trace.NewMemStore()
	fs := trace.NewFaultStore(crashed)
	fs.FailWritesAfter(96<<10, nil) // the disk fills a couple of flushes in
	fs.SetTornWrites(true)
	if err := racyWorkload(t, fs, 400); err == nil {
		t.Fatal("collector reported no error despite the dying store")
	}

	metrics := obs.New()
	salvRep, err := New(crashed, Config{Salvage: true, Obs: metrics}).Analyze()
	if err != nil {
		t.Fatalf("salvage analysis failed: %v", err)
	}
	st := salvRep.Stats
	if !st.Partial() {
		t.Fatalf("crashed trace not reported partial: %+v", st)
	}
	if st.IntervalsQuarantined == 0 {
		t.Fatalf("no intervals quarantined: %+v", st)
	}
	if st.IntervalsQuarantined >= st.Intervals {
		t.Fatalf("everything quarantined, nothing salvaged: %+v", st)
	}
	if st.SalvagedBytes == 0 {
		t.Fatalf("no bytes salvaged: %+v", st)
	}
	if len(salvRep.Notes()) == 0 {
		t.Fatal("salvage report carries no notes")
	}
	if got, want := raceSites(salvRep), raceSites(cleanRep); !sitesEqual(got, want) {
		t.Fatalf("salvaged races %v differ from clean run %v\nsalvage report:\n%s", got, want, salvRep)
	}
	snap := metrics.Snapshot()
	if snap.Value("trace.truncated_slots") == 0 {
		t.Fatal("trace.truncated_slots not counted")
	}
	if snap.Value("core.intervals_quarantined") == 0 {
		t.Fatal("core.intervals_quarantined not counted")
	}
}

// TestSalvageCorruptBlock flips one byte in the middle of a slot's log:
// strict analysis must fail, salvage analysis must quarantine only the
// damaged data and still report the races of the healthy remainder.
func TestSalvageCorruptBlock(t *testing.T) {
	mem := trace.NewMemStore()
	if err := racyWorkload(t, mem, 40); err != nil {
		t.Fatal(err)
	}
	cleanRep, err := New(mem, Config{}).Analyze()
	if err != nil {
		t.Fatal(err)
	}

	fs := trace.NewFaultStore(mem)
	fs.SetMutateRead(func(name string, data []byte) []byte {
		if name != "log:0" {
			return data
		}
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 0xFF
		return flipped
	})

	if _, err := New(fs, Config{}).Analyze(); err == nil {
		t.Fatal("strict analysis succeeded on a corrupt log")
	}

	salvRep, err := New(fs, Config{Salvage: true}).Analyze()
	if err != nil {
		t.Fatalf("salvage analysis failed: %v", err)
	}
	st := salvRep.Stats
	if !st.Partial() {
		t.Fatalf("corrupt trace not reported partial: %+v", st)
	}
	if st.IntervalsQuarantined == 0 || st.IntervalsQuarantined >= st.Intervals {
		t.Fatalf("quarantine off the mark: %+v", st)
	}
	if salvRep.Len() == 0 {
		t.Fatalf("no races recovered from the healthy remainder:\n%s", salvRep)
	}
	if got, want := raceSites(salvRep), raceSites(cleanRep); !sitesEqual(got, want) {
		t.Fatalf("salvaged races %v differ from clean run %v", got, want)
	}
}

// TestSalvageTornMeta truncates one slot's meta stream: the intervals whose
// records were lost are quarantined (their log events have no home and are
// dropped), everything else still analyzes.
func TestSalvageTornMeta(t *testing.T) {
	mem := trace.NewMemStore()
	if err := racyWorkload(t, mem, 40); err != nil {
		t.Fatal(err)
	}
	fs := trace.NewFaultStore(mem)
	fs.SetMutateRead(func(name string, data []byte) []byte {
		if name != "meta:0" {
			return data
		}
		return data[:len(data)/2]
	})

	salvRep, err := New(fs, Config{Salvage: true}).Analyze()
	if err != nil {
		t.Fatalf("salvage analysis failed: %v", err)
	}
	st := salvRep.Stats
	if st.TruncatedSlots == 0 {
		t.Fatalf("torn meta not counted as a truncated slot: %+v", st)
	}
	if !st.Partial() {
		t.Fatalf("torn meta not reported partial: %+v", st)
	}
	if salvRep.Len() == 0 {
		t.Fatalf("no races recovered despite slot 1 being intact:\n%s", salvRep)
	}
}

// TestSalvageCleanTrace pins the no-damage invariant: on an intact trace,
// salvage mode returns exactly the strict-mode result and reports nothing
// partial.
func TestSalvageCleanTrace(t *testing.T) {
	mem := trace.NewMemStore()
	if err := racyWorkload(t, mem, 40); err != nil {
		t.Fatal(err)
	}
	strict, err := New(mem, Config{}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	salv, err := New(mem, Config{Salvage: true}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if salv.Stats.Partial() {
		t.Fatalf("clean trace reported partial: %+v", salv.Stats)
	}
	if salv.Stats.IntervalsQuarantined != 0 {
		t.Fatalf("quarantined intervals on a clean trace: %+v", salv.Stats)
	}
	if !sitesEqual(raceSites(salv), raceSites(strict)) {
		t.Fatalf("salvage races differ from strict on a clean trace:\nstrict:\n%s\nsalvage:\n%s", strict, salv)
	}
	// Salvage must also compose with the streaming batches.
	batched, err := New(mem, Config{Salvage: true, SubtreeBatch: 1}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !sitesEqual(raceSites(batched), raceSites(strict)) {
		t.Fatal("salvage + SubtreeBatch diverges from strict analysis")
	}
}

// noPCTable hides the store's pc table, as after a crash before Close.
type noPCTable struct{ trace.Store }

func (s noPCTable) OpenAux(name string) (io.ReadCloser, error) {
	if name == rt.PCTableAux {
		return nil, errors.New("no such aux file")
	}
	return s.Store.OpenAux(name)
}

// TestUnfinishedRunNoted: a trace whose pc table has no end-of-run trailer,
// or no pc table at all, reports that the run did not finish, in strict
// and in salvage mode alike; the sealed table of a finished run does not.
func TestUnfinishedRunNoted(t *testing.T) {
	mem := trace.NewMemStore()
	if err := racyWorkload(t, mem, 4); err != nil {
		t.Fatal(err)
	}
	noted := func(rep *report.Report) bool {
		return slices.Contains(rep.Notes(), NoteUnfinished)
	}
	trailerless := trace.NewFaultStore(mem)
	trailerless.SetMutateRead(func(name string, data []byte) []byte {
		if name != "aux:"+rt.PCTableAux {
			return data
		}
		end := bytes.LastIndex(data, []byte("#end"))
		if end < 0 {
			t.Fatalf("pc table carries no trailer:\n%s", data)
		}
		return data[:end]
	})
	for _, salvage := range []bool{false, true} {
		for _, c := range []struct {
			name  string
			store trace.Store
			want  bool
		}{
			{"sealed", mem, false},
			{"trailerless", trailerless, true},
			{"missing", noPCTable{mem}, true},
		} {
			rep, err := New(c.store, Config{Salvage: salvage}).Analyze()
			if err != nil {
				t.Fatalf("%s (salvage %v): %v", c.name, salvage, err)
			}
			if noted(rep) != c.want {
				t.Errorf("%s (salvage %v): unfinished-run note %v, want %v; notes %q",
					c.name, salvage, noted(rep), c.want, rep.Notes())
			}
			if rep.Len() == 0 {
				t.Errorf("%s (salvage %v): races lost", c.name, salvage)
			}
		}
	}
}
