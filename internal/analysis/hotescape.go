package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotEscape extends the hotalloc gate with the two allocation shapes that
// survive review because they look innocent at a glance: slice growth and
// closure creation inside loops on the per-iteration hot path. Both are
// judged with the intra-procedural CFG so only constructs that actually sit
// at loop depth >= 1 are flagged.
//
// An append at loop depth >= 1 reallocates every time capacity runs out —
// per solver iteration, on every worker. It is accepted when the growth is
// amortized by one of the idioms the kernels use:
//
//   - the destination was pre-sized with a three-argument make;
//   - the destination is reset with a [:0] reslice (buffer reuse, as in
//     Engine.Advance's e.bufs[w] = e.bufs[w][:0]);
//   - the destination is banked back to persistent storage in the same
//     function (buf := kn.sc.bufs[w]; ... append ...; kn.sc.bufs[w] = buf),
//     so capacity survives across calls and growth reaches a steady state.
//
// A function literal created at loop depth >= 1 allocates a closure object
// per iteration when it captures enclosing function variables and is not
// invoked on the spot. Hoist the closure out of the loop or pass the data
// as explicit parameters.
type HotEscape struct{}

func (*HotEscape) ID() string { return "hotescape" }

func (*HotEscape) Doc() string {
	return "no unbounded append growth or escaping loop closures inside parallel.Pool kernel callbacks or //hot:alloc-free functions"
}

func (r *HotEscape) Check(p *Pass) []Finding {
	var out []Finding
	for _, f := range p.Files {
		kernelCallbacks(p, f, func(_ *ast.CallExpr, lit *ast.FuncLit) {
			scope := enclosingDeclBody(f, lit.Pos())
			if scope == nil {
				scope = lit.Body
			}
			out = append(out, r.scanRegion(p, lit.Body, scope, "a parallel.Pool kernel callback")...)
		})
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotMarked(fd.Doc) {
				continue
			}
			out = append(out, r.scanRegion(p, fd.Body, fd.Body, "the //hot:alloc-free function "+fd.Name.Name)...)
		}
	}
	return out
}

// scanRegion checks one hot body. escScope is the surrounding function body
// the amortization idioms are searched in: for a kernel callback the
// enclosing declaration, since the banked buffer is loaded before the
// closure and stored after it.
func (r *HotEscape) scanRegion(p *Pass, body, escScope *ast.BlockStmt, ctx string) []Finding {
	cfg := BuildCFG(body)
	amortized := amortizedTargets(p, escScope)
	invoked := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
				invoked[fl] = true
			}
		}
		return true
	})

	var out []Finding
	flag := func(pos token.Pos, format string, args ...any) {
		out = append(out, Finding{
			Pos:      p.Position(pos),
			Rule:     r.ID(),
			Severity: Error,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if !isBuiltinAppend(p, n) || cfg.LoopDepth(n.Pos()) < 1 {
				return true
			}
			dst := ast.Unparen(n.Args[0])
			if se, ok := dst.(*ast.SliceExpr); ok && isZeroHighSlice(p, se) {
				return true // append(x[:0], ...) reuses in place
			}
			if obj := referencedObj(p, dst); obj != nil && amortized[obj] {
				return true
			}
			flag(n.Pos(), "append to %s grows inside a loop in %s; pre-size with make(_, 0, n), reuse via a [:0] reslice, or bank the buffer back to persistent storage", types.ExprString(n.Args[0]), ctx)
		case *ast.FuncLit:
			if n.Body == body || invoked[n] || cfg.LoopDepth(n.Pos()) < 1 {
				return true
			}
			caps := capturedVars(p, n, escScope)
			if len(caps) == 0 {
				return true // capture-free literals compile to a singleton
			}
			flag(n.Pos(), "closure created per loop iteration in %s captures %s and escapes; hoist it out of the loop or pass the data as parameters", ctx, strings.Join(caps, ", "))
		}
		return true
	})
	return out
}

// amortizedTargets collects the objects whose append growth is amortized:
// pre-sized makes, [:0] reslices, and buffers stored back to a persistent
// selector/index location.
func amortizedTargets(p *Pass, scope *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(e ast.Expr) {
		if obj := referencedObj(p, e); obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(scope, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				rhs = ast.Unparen(rhs)
				if isCapMake(p, rhs) {
					mark(n.Lhs[i])
				}
				if se, ok := rhs.(*ast.SliceExpr); ok && isZeroHighSlice(p, se) {
					mark(n.Lhs[i])
				}
				// kn.sc.bufs[w] = buf — the local is banked, its capacity
				// survives this call.
				if id, ok := rhs.(*ast.Ident); ok {
					switch ast.Unparen(n.Lhs[i]).(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
						mark(id)
					}
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if i >= len(n.Names) {
					break
				}
				v = ast.Unparen(v)
				if isCapMake(p, v) {
					out[p.Info.Defs[n.Names[i]]] = true
				}
				if se, ok := v.(*ast.SliceExpr); ok && isZeroHighSlice(p, se) {
					out[p.Info.Defs[n.Names[i]]] = true
				}
			}
		}
		return true
	})
	return out
}

// capturedVars returns the sorted names of function-scoped variables the
// literal captures from its environment: used inside, declared outside the
// literal but inside the enclosing function (package-level references are
// direct, not captures).
func capturedVars(p *Pass, lit *ast.FuncLit, scope *ast.BlockStmt) []string {
	seen := map[types.Object]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal
		}
		if v.Pos() < scope.Pos() || v.Pos() >= scope.End() {
			return true // package-level or another function's state
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	sort.Strings(names)
	return names
}

// enclosingDeclBody finds the function declaration body containing pos.
func enclosingDeclBody(f *ast.File, pos token.Pos) *ast.BlockStmt {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && fd.Body.Pos() <= pos && pos < fd.Body.End() {
			return fd.Body
		}
	}
	return nil
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isCapMake reports whether e is a three-argument make: an explicit
// capacity, the pre-sizing idiom.
func isCapMake(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 3 {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isZeroHighSlice reports whether se is a [:0]-style reslice (high bound
// constant zero): the buffer-reuse reset that keeps capacity.
func isZeroHighSlice(p *Pass, se *ast.SliceExpr) bool {
	if se.High == nil {
		return false
	}
	v := p.Info.Types[se.High].Value
	if v == nil {
		return false
	}
	z, ok := constant.Int64Val(v)
	return ok && z == 0
}
