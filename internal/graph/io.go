package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// This file implements readers and writers for the interchange formats used
// by the paper's data sources: the DIMACS Shortest Path Challenge ".gr"
// format (the Cal road network) and Matrix Market coordinate format (the UF
// sparse matrix collection's wikipedia-20051105), plus a trivial TSV edge
// list for tooling.
//
// Every reader rejects input it cannot represent exactly: ids and weights
// that do not fit in int32, and negative header counts, are errors rather
// than silently truncated or wrapped values.

// maxPrealloc caps the edge capacity a reader reserves up front from a
// header's declared edge count, which is outside input. 4M edges (48 MB)
// covers a 1/8-scale Wiki-like graph (about 2.5M arcs) in one allocation.
const maxPrealloc = 1 << 22

// appendEdge appends e to edges, where declared is the header's edge
// count. Once the input fills the up-front reservation, the slice grows
// toward declared, at most doubling per step: an honest large file is
// copied a couple of times rather than at every small growth step of
// append, and a lying header costs at most twice the arcs the file holds.
func appendEdge(edges []Edge, e Edge, declared int) []Edge {
	if n := len(edges); n == cap(edges) && declared > n {
		edges = slices.Grow(edges, min(declared, 2*n)-n)
	}
	return append(edges, e)
}

// parseInt32 parses a decimal integer that must fit in int32, the width
// of VID and Weight. It range-checks strconv.Atoi's result rather than
// calling ParseInt with bitSize 32: Atoi's short-string fast path loads a
// Cal-like DIMACS file about 15% faster.
func parseInt32(s string) (int32, error) {
	x, err := strconv.Atoi(s)
	if err == nil && (x < math.MinInt32 || x > math.MaxInt32) {
		err = fmt.Errorf("%s is out of int32 range", s)
	}
	return int32(x), err
}

// parseCount parses a non-negative header count.
func parseCount(s string) (int, error) {
	x, err := strconv.Atoi(s)
	if err == nil && x < 0 {
		err = fmt.Errorf("negative count %d", x)
	}
	return x, err
}

// ReadDIMACS parses a DIMACS shortest-path ".gr" stream:
//
//	c comment
//	p sp <n> <m>
//	a <u> <v> <w>     (1-based vertex ids)
//
// Arcs are directed, exactly as stored in the file.
func ReadDIMACS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		n, m  int // declared vertex and arc counts
		edges []Edge
		seenP bool
		line  int
	)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		switch text[0] {
		case 'c':
			continue
		case 'p':
			f := strings.Fields(text)
			if len(f) != 4 || f[1] != "sp" {
				return nil, fmt.Errorf("graph: dimacs line %d: bad problem line %q", line, text)
			}
			var err error
			n, err = parseCount(f[2])
			if err != nil {
				return nil, fmt.Errorf("graph: dimacs line %d: %v", line, err)
			}
			m, err = parseCount(f[3])
			if err != nil {
				return nil, fmt.Errorf("graph: dimacs line %d: %v", line, err)
			}
			edges = make([]Edge, 0, min(m, maxPrealloc))
			seenP = true
		case 'a':
			if !seenP {
				return nil, fmt.Errorf("graph: dimacs line %d: arc before problem line", line)
			}
			f := strings.Fields(text)
			if len(f) != 4 {
				return nil, fmt.Errorf("graph: dimacs line %d: bad arc %q", line, text)
			}
			u, err1 := parseInt32(f[1])
			v, err2 := parseInt32(f[2])
			w, err3 := parseInt32(f[3])
			if err1 != nil || err2 != nil || err3 != nil || u < 1 || v < 1 {
				return nil, fmt.Errorf("graph: dimacs line %d: bad arc %q", line, text)
			}
			edges = appendEdge(edges, Edge{U: u - 1, V: v - 1, W: w}, m)
		default:
			return nil, fmt.Errorf("graph: dimacs line %d: unknown record %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenP {
		return nil, fmt.Errorf("graph: dimacs: missing problem line")
	}
	return New(n, edges)
}

// WriteDIMACS writes g in DIMACS ".gr" format (1-based ids).
func WriteDIMACS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if g.Name() != "" {
		fmt.Fprintf(bw, "c %s\n", g.Name())
	}
	fmt.Fprintf(bw, "p sp %d %d\n", g.NumVertices(), g.NumEdges())
	for u := 0; u < g.NumVertices(); u++ {
		vs, ws := g.Neighbors(VID(u))
		for i, v := range vs {
			fmt.Fprintf(bw, "a %d %d %d\n", u+1, v+1, ws[i])
		}
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a Matrix Market coordinate stream into a graph.
// Supported headers: "matrix coordinate (integer|real|pattern)
// (general|symmetric)". Pattern entries receive weight 1; real weights are
// rounded to the nearest positive integer (minimum 1) and must fit in
// int32 after rounding; symmetric matrices produce both arcs. Entries on
// the diagonal become self-loops and are kept.
func ReadMatrixMarket(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("graph: mm: empty input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("graph: mm: unsupported header %q", sc.Text())
	}
	valType, sym := header[3], header[4]
	switch valType {
	case "integer", "real", "pattern":
	default:
		return nil, fmt.Errorf("graph: mm: unsupported value type %q", valType)
	}
	switch sym {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("graph: mm: unsupported symmetry %q", sym)
	}
	// Skip comments, find size line.
	var rows, cols, nnz int
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		if _, err := fmt.Sscan(text, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("graph: mm: bad size line %q: %v", text, err)
		}
		if rows < 0 || cols < 0 || nnz < 0 {
			return nil, fmt.Errorf("graph: mm: negative count in size line %q", text)
		}
		break
	}
	n := rows
	if cols > n {
		n = cols
	}
	declared := nnz
	if sym == "symmetric" {
		declared = 2 * nnz
	}
	edges := make([]Edge, 0, min(declared, maxPrealloc))
	addEntry := func(u, v VID, w Weight) {
		edges = appendEdge(edges, Edge{U: u - 1, V: v - 1, W: w}, declared)
		if sym == "symmetric" && u != v {
			edges = appendEdge(edges, Edge{U: v - 1, V: u - 1, W: w}, declared)
		}
	}
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		f := strings.Fields(text)
		if len(f) < 2 {
			return nil, fmt.Errorf("graph: mm: bad entry %q", text)
		}
		u, err1 := parseInt32(f[0])
		v, err2 := parseInt32(f[1])
		if err1 != nil || err2 != nil || u < 1 || v < 1 {
			return nil, fmt.Errorf("graph: mm: bad entry %q", text)
		}
		w := Weight(1)
		if valType != "pattern" {
			if len(f) < 3 {
				return nil, fmt.Errorf("graph: mm: missing value in %q", text)
			}
			x, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: mm: bad value in %q", text)
			}
			x = math.Abs(x) + 0.5
			if !(x < math.MaxInt32+1) { // also rejects NaN
				return nil, fmt.Errorf("graph: mm: value out of weight range in %q", text)
			}
			w = Weight(x)
			if w < 1 {
				w = 1
			}
		}
		addEntry(u, v, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(n, edges)
}

// ReadTSV parses a "u<TAB>v<TAB>w" edge list with 0-based ids; '#' lines are
// comments. The vertex count is 1 + the maximum id seen.
func ReadTSV(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) != 3 {
			return nil, fmt.Errorf("graph: tsv line %d: want 3 fields, got %d", line, len(f))
		}
		u, err1 := parseInt32(f[0])
		v, err2 := parseInt32(f[1])
		w, err3 := parseInt32(f[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("graph: tsv line %d: bad numbers", line)
		}
		maxID = max(maxID, int(u), int(v))
		edges = append(edges, Edge{U: u, V: v, W: w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(maxID+1, edges)
}

// WriteTSV writes g as a 0-based TSV edge list.
func WriteTSV(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if g.Name() != "" {
		fmt.Fprintf(bw, "# %s\n", g.Name())
	}
	for u := 0; u < g.NumVertices(); u++ {
		vs, ws := g.Neighbors(VID(u))
		for i, v := range vs {
			fmt.Fprintf(bw, "%d\t%d\t%d\n", u, v, ws[i])
		}
	}
	return bw.Flush()
}

// LoadFile reads a graph from path, selecting the format by extension:
// ".gr" (DIMACS), ".mtx" (Matrix Market), ".tsv" (edge list).
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:ignore errcheck read-only file: a close error after a successful read carries no signal
	defer f.Close()
	var g *Graph
	switch {
	case strings.HasSuffix(path, ".gr"):
		g, err = ReadDIMACS(f)
	case strings.HasSuffix(path, ".mtx"):
		g, err = ReadMatrixMarket(f)
	case strings.HasSuffix(path, ".tsv"):
		g, err = ReadTSV(f)
	default:
		return nil, fmt.Errorf("graph: unknown file extension in %q (want .gr, .mtx, or .tsv)", path)
	}
	if err != nil {
		return nil, fmt.Errorf("graph: loading %q: %w", path, err)
	}
	g.SetName(path)
	return g, nil
}

// SaveFile writes g to path, selecting the format by extension (".gr" or
// ".tsv").
func SaveFile(path string, g *Graph) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer closeFile(f, &err)
	switch {
	case strings.HasSuffix(path, ".gr"):
		err = WriteDIMACS(f, g)
	case strings.HasSuffix(path, ".tsv"):
		err = WriteTSV(f, g)
	default:
		return fmt.Errorf("graph: unknown file extension in %q (want .gr or .tsv)", path)
	}
	return err
}

// closeFile folds a Close error into the caller's named return, so a write
// failure surfacing only at close (NFS, full disk) is not lost.
func closeFile(f *os.File, err *error) {
	if cerr := f.Close(); cerr != nil && *err == nil {
		*err = cerr
	}
}
