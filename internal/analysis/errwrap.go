package analysis

// errwrap enforces the module's error-discipline contract around its
// sentinel errors (relation.ErrEmptyTree, relation.ErrNotUpdatable
// and friends):
//
//  1. A sentinel declared in another module package must be compared
//     with errors.Is/errors.As, never ==/!= — wrapped errors cross
//     package boundaries here (the CLIs classify engine errors for
//     exit codes), and an identity comparison silently stops matching
//     the moment a %w wrap is added upstream. The finding carries a
//     rewrite to errors.Is.
//  2. fmt.Errorf must wrap error operands with %w, not flatten them
//     through %v/%s: flattening severs the Unwrap chain the rest of
//     the module relies on. The finding carries a verb rewrite.
//
// Identity comparisons against stdlib sentinels (io.EOF) are left
// alone — several loaders use the documented `err == io.EOF`
// convention for APIs that are specified to return it unwrapped.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var ErrWrap = &Analyzer{
	Name:      "errwrap",
	Directive: "errwrap",
	Doc: "module sentinel errors must be compared via errors.Is/As across package " +
		"boundaries and wrapped with %w, never flattened through %v/%s",
	Run: runErrWrap,
}

func runErrWrap(p *Pass) {
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkSentinelCompare(p, n)
			case *ast.CallExpr:
				checkErrorfWrap(p, n)
			}
			return true
		})
	}
}

// checkSentinelCompare flags ==/!= against a sentinel error declared
// in a different module package.
func checkSentinelCompare(p *Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	var sentinel, other ast.Expr
	switch {
	case isForeignSentinel(p, bin.Y):
		sentinel, other = bin.Y, bin.X
	case isForeignSentinel(p, bin.X):
		sentinel, other = bin.X, bin.Y
	default:
		return
	}
	rewrite := "errors.Is(" + types.ExprString(other) + ", " + types.ExprString(sentinel) + ")"
	if bin.Op == token.NEQ {
		rewrite = "!" + rewrite
	}
	fix := &Fix{
		Message:   "compare with errors.Is",
		Edits:     []Edit{p.EditAt(bin.Pos(), bin.End(), rewrite)},
		AddImport: "errors",
	}
	p.ReportFixf(bin.Pos(), fix, "sentinel %s compared with %s; use errors.Is so wrapped errors still match",
		types.ExprString(sentinel), bin.Op)
}

// isForeignSentinel reports whether the expression denotes an
// exported package-level `Err*` variable of type error declared in a
// module package other than the one being analyzed.
func isForeignSentinel(p *Pass, e ast.Expr) bool {
	var obj types.Object
	switch e := e.(type) {
	case *ast.SelectorExpr:
		obj = p.Info.Uses[e.Sel]
	case *ast.Ident:
		obj = p.Info.Uses[e]
	default:
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || !v.Exported() || !strings.HasPrefix(v.Name(), "Err") {
		return false
	}
	if !types.Identical(v.Type(), types.Universe.Lookup("error").Type()) {
		return false
	}
	path := v.Pkg().Path()
	if path == p.Path {
		return false // same package: identity comparison is the author's call
	}
	return path == ModulePrefix || strings.HasPrefix(path, ModulePrefix+"/")
}

// checkErrorfWrap flags %v/%s verbs in fmt.Errorf whose operand is an
// error, offering a %w rewrite.
func checkErrorfWrap(p *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "fmt" {
		return
	}
	if obj, ok := p.Info.Uses[pkg].(*types.PkgName); !ok || obj.Imported().Path() != "fmt" {
		return
	}
	if len(call.Args) < 2 || call.Ellipsis.IsValid() {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	verbs := formatVerbs(lit.Value)
	for _, v := range verbs {
		if v.verb != 'v' && v.verb != 's' {
			continue
		}
		argIdx := 1 + v.operand
		if argIdx >= len(call.Args) {
			continue
		}
		if !isErrorExpr(p, call.Args[argIdx]) {
			continue
		}
		// The verb's byte range inside the literal source text: the
		// scanner ran over lit.Value, whose indices map one-to-one
		// onto the file bytes of the literal.
		verbPos := lit.Pos() + token.Pos(v.off)
		fix := &Fix{
			Message: "wrap with %w",
			Edits:   []Edit{p.EditAt(verbPos, verbPos+token.Pos(v.len), "%w")},
		}
		p.ReportFixf(verbPos, fix, "error %s formatted with %%%c; use %%w so the cause stays unwrappable",
			types.ExprString(call.Args[argIdx]), v.verb)
	}
}

func isErrorExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	errType, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(tv.Type, errType)
}

// formatVerb is one conversion in a format string: the final verb
// rune, the operand index it consumes, and the byte range
// [off, off+len) of the whole conversion within the literal's source
// text (including quotes).
type formatVerb struct {
	verb    rune
	operand int
	off     int
	len     int
}

// formatVerbs scans a format string literal (source text, quotes
// included) in the fmt grammar, far enough to map verbs to operand
// indices: flags, width/precision (including * operands), and %%.
// Explicit argument indexes (%[n]d) abort the scan — the engine never
// uses them, and mismapping operands would misreport.
func formatVerbs(src string) []formatVerb {
	var out []formatVerb
	operand := 0
	for i := 0; i < len(src); i++ {
		if src[i] != '%' {
			continue
		}
		start := i
		i++
		// flags
		for i < len(src) && strings.ContainsRune("+-# 0", rune(src[i])) {
			i++
		}
		// width
		for i < len(src) && src[i] >= '0' && src[i] <= '9' {
			i++
		}
		if i < len(src) && src[i] == '*' {
			operand++
			i++
		}
		// precision
		if i < len(src) && src[i] == '.' {
			i++
			for i < len(src) && src[i] >= '0' && src[i] <= '9' {
				i++
			}
			if i < len(src) && src[i] == '*' {
				operand++
				i++
			}
		}
		if i >= len(src) {
			break
		}
		switch src[i] {
		case '%':
			continue
		case '[':
			return nil // explicit argument index: stand down
		}
		out = append(out, formatVerb{
			verb:    rune(src[i]),
			operand: operand,
			off:     start,
			len:     i - start + 1,
		})
		operand++
	}
	return out
}
