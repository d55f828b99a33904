package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags allocation-prone constructs inside parallel.Pool kernel
// callbacks and inside functions carrying the //hot:alloc-free marker.
// Kernels run once per solver iteration on every worker and are covered by
// testing.AllocsPerRun gates; the constructs below defeat those gates in
// ways that are easy to miss in review:
//
//   - fmt.* calls box every vararg into an interface and usually build a
//     string (even fmt.Errorf on a path "never taken" allocates its frame);
//   - string concatenation with non-constant operands allocates the result;
//   - explicit conversion of a concrete value to an interface type boxes it.
//     Pointer-shaped operands (pointers, channels, maps, funcs) are exempt:
//     their interface representation is the word itself, so converting them
//     never heap-allocates.
//
// Formatting and diagnostics belong at the solver level, outside the
// kernels; counters (internal/obs) are the allocation-free way to get data
// out of a kernel body.
//
// The //hot:alloc-free marker (a whole doc-comment line, like a //go:
// directive) declares a named function part of a solver's per-iteration hot
// path — the flight recorder's Append, the controller's model checkpoint —
// and subjects its body to the same checks as a kernel callback.
type HotAlloc struct{}

func (*HotAlloc) ID() string { return "hotalloc" }

func (*HotAlloc) Doc() string {
	return "no fmt calls, string concatenation, or interface boxing inside parallel.Pool kernel callbacks or //hot:alloc-free functions"
}

func (r *HotAlloc) Check(p *Pass) []Finding {
	var out []Finding
	flag := func(pos token.Pos, msg string) {
		out = append(out, Finding{
			Pos:      p.Position(pos),
			Rule:     r.ID(),
			Severity: Error,
			Message:  msg,
		})
	}
	scan := func(body *ast.BlockStmt, ctx string) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.CallExpr:
				if name, ok := fmtCall(p, st); ok {
					flag(st.Pos(), "fmt."+name+" inside "+ctx+" allocates; format at the solver level or record an obs counter")
					return true
				}
				if to, ok := interfaceConversion(p, st); ok {
					flag(st.Pos(), "conversion to interface type "+to+" inside "+ctx+" boxes its operand")
				}
			case *ast.BinaryExpr:
				if st.Op == token.ADD && isNonConstString(p, st) {
					flag(st.Pos(), "string concatenation inside "+ctx+" allocates; build strings at the solver level")
					return false // one finding per concatenation chain
				}
			case *ast.AssignStmt:
				if st.Tok == token.ADD_ASSIGN && len(st.Lhs) == 1 && isStringType(p.Info.Types[st.Lhs[0]].Type) {
					flag(st.Pos(), "string += inside "+ctx+" allocates; build strings at the solver level")
				}
			}
			return true
		})
	}
	for _, f := range p.Files {
		kernelCallbacks(p, f, func(_ *ast.CallExpr, lit *ast.FuncLit) {
			scan(lit.Body, "a parallel.Pool kernel callback")
		})
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotMarked(fd.Doc) {
				continue
			}
			scan(fd.Body, "the //hot:alloc-free function "+fd.Name.Name)
		}
	}
	return out
}

// hotMarked reports whether the doc comment contains the //hot:alloc-free
// marker line.
func hotMarked(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == "//hot:alloc-free" {
			return true
		}
	}
	return false
}

// fmtCall reports whether the call targets a function in package fmt.
func fmtCall(p *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" {
		return "", false
	}
	return obj.Name(), true
}

// interfaceConversion reports whether the call is an explicit conversion
// T(x) where T is an interface type and x is not already an interface.
func interfaceConversion(p *Pass, call *ast.CallExpr) (string, bool) {
	if len(call.Args) != 1 {
		return "", false
	}
	tv, ok := p.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return "", false
	}
	if _, isIface := tv.Type.Underlying().(*types.Interface); !isIface {
		return "", false
	}
	argT := p.Info.Types[call.Args[0]].Type
	if argT == nil {
		return "", false
	}
	if _, already := argT.Underlying().(*types.Interface); already {
		return "", false
	}
	if pointerShaped(argT) {
		return "", false // the iface data word holds the value directly: no boxing allocation
	}
	return types.TypeString(tv.Type, types.RelativeTo(p.Pkg)), true
}

// pointerShaped reports whether values of t are represented as a single
// pointer word, so converting them to an interface stores the word in the
// iface directly instead of heap-allocating a copy.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// isNonConstString reports whether e is a string-typed expression whose
// value is not known at compile time (constant concatenations fold away and
// never allocate).
func isNonConstString(p *Pass, e *ast.BinaryExpr) bool {
	tv := p.Info.Types[e]
	return isStringType(tv.Type) && tv.Value == nil
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
