package pcreg

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestRegisterIdempotent(t *testing.T) {
	tb := NewTable()
	a := tb.Register("x.go:1")
	b := tb.Register("x.go:2")
	if a == b {
		t.Fatal("distinct names share id")
	}
	if tb.Register("x.go:1") != a {
		t.Fatal("re-register changed id")
	}
	if tb.Name(a) != "x.go:1" {
		t.Fatalf("Name(%d) = %q", a, tb.Name(a))
	}
	if tb.Name(0) != "unknown" {
		t.Fatalf("Name(0) = %q", tb.Name(0))
	}
	if got := tb.Name(9999); got != "pc(9999)" {
		t.Fatalf("Name(9999) = %q", got)
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestHereCapturesLocation(t *testing.T) {
	tb := NewTable()
	id := tb.Here(0)
	name := tb.Name(id)
	if !strings.Contains(name, "pcreg_test.go:") {
		t.Fatalf("Here captured %q", name)
	}
	if id2 := tb.Here(0); tb.Name(id2) == name {
		t.Fatalf("two Here calls on different lines interned same name %q", name)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tb := NewTable()
	tb.Register("a.go:10")
	tb.Register("b.go:20")
	var buf bytes.Buffer
	if _, err := tb.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, sealed, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sealed {
		t.Fatal("table written by WriteTo read as unsealed")
	}
	if got.Len() != tb.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), tb.Len())
	}
	for _, name := range []string{"unknown", "a.go:10", "b.go:20"} {
		if got.Name(tb.Register(name)) != name {
			t.Fatalf("round trip lost %q", name)
		}
	}
}

func TestReadTableErrors(t *testing.T) {
	if _, _, err := ReadTable(strings.NewReader("no tab here\n")); err == nil {
		t.Error("malformed line accepted")
	}
	if _, _, err := ReadTable(strings.NewReader("x\tname\n")); err == nil {
		t.Error("bad id accepted")
	}
	got, sealed, err := ReadTable(strings.NewReader(""))
	if err != nil || got.Len() == 0 || sealed {
		t.Errorf("empty table: %v, len %d, sealed %v", err, got.Len(), sealed)
	}
}

// TestTrailerCommitsTable pins the end-of-table contract: the written
// table is sealed, no strict prefix of it is, and ReadTable rejects a
// trailer that does not match the bytes before it while still reading a
// legacy table that has none.
func TestTrailerCommitsTable(t *testing.T) {
	tb := NewTable()
	for i := 0; i < 50; i++ {
		tb.Register(fmt.Sprintf("site%d.go:%d", i, 10*i))
	}
	var buf bytes.Buffer
	if _, err := tb.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if !Sealed(data) {
		t.Fatal("complete table not sealed")
	}
	for n := 0; n < len(data); n++ {
		if Sealed(data[:n]) {
			t.Fatalf("prefix of %d/%d bytes reported sealed", n, len(data))
		}
	}

	body := data[:bytes.LastIndex(data, []byte("#end"))]
	legacy, sealed, err := ReadTable(bytes.NewReader(body))
	if err != nil || legacy.Len() != tb.Len() || sealed {
		t.Fatalf("legacy table: %v, len %d want %d, sealed %v", err, legacy.Len(), tb.Len(), sealed)
	}

	damaged := bytes.Clone(data)
	damaged[len(body)/2] ^= 0x01 // inside some entry's name
	if Sealed(damaged) {
		t.Error("damaged table reported sealed")
	}
	if _, _, err := ReadTable(bytes.NewReader(damaged)); err == nil {
		t.Error("trailer mismatch accepted")
	}
	// A lost line leaves every remaining line well-formed.
	first := bytes.IndexByte(body, '\n') + 1
	second := first + bytes.IndexByte(body[first:], '\n') + 1
	short := append(bytes.Clone(data[:first]), data[second:]...)
	if _, _, err := ReadTable(bytes.NewReader(short)); err == nil {
		t.Error("table with a missing line accepted")
	}
	if _, _, err := ReadTable(bytes.NewReader(append(bytes.Clone(data), "7\textra\n"...))); err == nil {
		t.Error("data after the trailer accepted")
	}
	if _, _, err := ReadTable(bytes.NewReader(data[:len(data)-1])); err == nil {
		t.Error("torn trailer accepted")
	}
}

func TestConcurrentRegister(t *testing.T) {
	tb := NewTable()
	var wg sync.WaitGroup
	ids := make([]uint64, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ids[g] = tb.Register("shared")
				tb.Register("own-" + string(rune('a'+g)))
			}
		}(g)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatal("concurrent Register returned different ids for same name")
		}
	}
}
