package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDIMACSRoundTrip(t *testing.T) {
	g := diamond()
	g.SetName("diamond")
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("DIMACS round trip changed the graph")
	}
}

func TestReadDIMACSErrors(t *testing.T) {
	cases := []string{
		"",                    // missing problem line
		"a 1 2 3\n",           // arc before p line
		"p sp x 3\n",          // bad n
		"p sp 3 x\n",          // bad m
		"p tw 3 3\n",          // wrong problem type
		"p sp 2 1\na 1 2\n",   // short arc
		"p sp 2 1\na 1 2 z\n", // bad weight
		"p sp 2 1\nq 1 2 3\n", // unknown record
		"p sp 2 1\na 1 3 5\n", // out-of-range target
	}
	for _, c := range cases {
		if _, err := ReadDIMACS(strings.NewReader(c)); err == nil {
			t.Fatalf("input %q accepted", c)
		}
	}
}

func TestReadMatrixMarketGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate integer general
% comment
3 3 3
1 2 5
2 3 7
3 1 2
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %v", g)
	}
	vs, ws := g.Neighbors(0)
	if len(vs) != 1 || vs[0] != 1 || ws[0] != 5 {
		t.Fatalf("neighbors(0) = %v %v", vs, ws)
	}
}

func TestReadMatrixMarketSymmetricPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
3 3 2
2 1
3 3
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// (2,1) expands to both directions; (3,3) is a kept self-loop.
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	vs, ws := g.Neighbors(0)
	if len(vs) != 1 || vs[0] != 1 || ws[0] != 1 {
		t.Fatalf("neighbors(0) = %v %v", vs, ws)
	}
}

func TestReadMatrixMarketReal(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
2 2 2
1 2 2.6
2 1 0.1
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	_, ws := g.Neighbors(0)
	if ws[0] != 3 {
		t.Fatalf("2.6 rounded to %d, want 3", ws[0])
	}
	_, ws = g.Neighbors(1)
	if ws[0] != 1 {
		t.Fatalf("0.1 clamped to %d, want 1", ws[0])
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
		"%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 0\n",
		"%%MatrixMarket matrix coordinate real general\nbad size\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 x\n",
	}
	for _, c := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(c)); err == nil {
			t.Fatalf("input %q accepted", c)
		}
	}
}

func TestTSVRoundTrip(t *testing.T) {
	g := diamond()
	g.SetName("diamond")
	var buf bytes.Buffer
	if err := WriteTSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("TSV round trip changed the graph")
	}
}

func TestReadTSVErrors(t *testing.T) {
	for _, c := range []string{"1 2\n", "1 2 3 4\n", "a b c\n"} {
		if _, err := ReadTSV(strings.NewReader(c)); err == nil {
			t.Fatalf("input %q accepted", c)
		}
	}
}

// TestReadersRejectOutOfRange feeds each loader ids, weights and header
// counts outside what the CSR layout can hold. Each must come back as an
// error: not a panic, not an out-of-memory crash, and not a silently
// truncated graph.
func TestReadersRejectOutOfRange(t *testing.T) {
	dimacs := func(s string) (*Graph, error) { return ReadDIMACS(strings.NewReader(s)) }
	mm := func(s string) (*Graph, error) { return ReadMatrixMarket(strings.NewReader(s)) }
	tsv := func(s string) (*Graph, error) { return ReadTSV(strings.NewReader(s)) }
	const mmReal = "%%MatrixMarket matrix coordinate real general\n"
	cases := []struct {
		name string
		read func(string) (*Graph, error)
		in   string
	}{
		{"dimacs id and weight past int32", dimacs, "p sp 4 1\na 4294967297 2 4294967301\n"},
		{"dimacs weight past int32", dimacs, "p sp 4 1\na 1 2 4294967301\n"},
		{"dimacs zero id", dimacs, "p sp 4 1\na 0 2 3\n"},
		{"dimacs negative arc count", dimacs, "p sp 4 -1\n"},
		{"dimacs negative vertex count", dimacs, "p sp -4 1\n"},
		{"dimacs vertex count past int32", dimacs, "p sp 4294967297 0\n"},
		{"mm negative nnz", mm, mmReal + "2 2 -5\n"},
		{"mm negative rows", mm, mmReal + "-2 2 1\n"},
		{"mm weight past int32", mm, mmReal + "2 2 1\n1 2 1e20\n"},
		{"mm infinite weight", mm, mmReal + "2 2 1\n1 2 Inf\n"},
		{"mm NaN weight", mm, mmReal + "2 2 1\n1 2 NaN\n"},
		{"mm id past int32", mm, mmReal + "2 2 1\n4294967297 2 3\n"},
		{"mm zero id", mm, mmReal + "2 2 1\n0 2 3\n"},
		{"tsv id past int32", tsv, "0 4294967297 3\n"},
		{"tsv weight past int32", tsv, "0 1 4294967301\n"},
		{"tsv negative id", tsv, "-1 1 3\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if g, err := tc.read(tc.in); err == nil {
				t.Fatalf("%q accepted as %v", tc.in, g)
			}
		})
	}

	// A header that overstates the edge count is only a capacity hint:
	// the file still loads with the arcs it actually holds.
	g, err := dimacs("p sp 2 9223372036854775807\na 1 2 3\n")
	if err != nil || g.NumEdges() != 1 {
		t.Fatalf("overstated arc count: %v, %v", g, err)
	}
}

// failingReader injects an I/O fault after n bytes.
type failingReader struct {
	data []byte
	n    int
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.n >= len(f.data) {
		return 0, errFault
	}
	k := copy(p, f.data[f.n:])
	if k > 4 {
		k = 4 // trickle to exercise scanner refills
	}
	f.n += k
	return k, nil
}

var errFault = &faultErr{}

type faultErr struct{}

func (*faultErr) Error() string { return "injected I/O fault" }

// Readers must propagate mid-stream I/O faults rather than returning a
// truncated graph.
func TestReadersPropagateIOFaults(t *testing.T) {
	dimacs := "p sp 3 2\na 1 2 5\na 2 3 7\n"
	if _, err := ReadDIMACS(&failingReader{data: []byte(dimacs)}); err == nil {
		t.Fatal("DIMACS reader swallowed injected fault")
	}
	mm := "%%MatrixMarket matrix coordinate integer general\n3 3 2\n1 2 5\n2 3 7\n"
	if _, err := ReadMatrixMarket(&failingReader{data: []byte(mm)}); err == nil {
		t.Fatal("MatrixMarket reader swallowed injected fault")
	}
	tsv := "0\t1\t5\n1\t2\t7\n"
	if _, err := ReadTSV(&failingReader{data: []byte(tsv)}); err == nil {
		t.Fatal("TSV reader swallowed injected fault")
	}
}

func TestLoadSaveFile(t *testing.T) {
	dir := t.TempDir()
	g := diamond()
	g.SetName("diamond")

	for _, ext := range []string{".gr", ".tsv"} {
		path := filepath.Join(dir, "g"+ext)
		if err := SaveFile(path, g); err != nil {
			t.Fatal(err)
		}
		h, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(h) {
			t.Fatalf("%s round trip changed the graph", ext)
		}
	}

	mtx := filepath.Join(dir, "g.mtx")
	if err := os.WriteFile(mtx, []byte("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := LoadFile(mtx)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 1 {
		t.Fatal("mtx load failed")
	}

	if err := SaveFile(filepath.Join(dir, "g.bogus"), g); err == nil {
		t.Fatal("unknown save extension accepted")
	}
	if _, err := LoadFile(filepath.Join(dir, "g.bogus")); err == nil {
		t.Fatal("unknown load extension accepted")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.gr")); err == nil {
		t.Fatal("missing file accepted")
	}
}
