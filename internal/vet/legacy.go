package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Three source rules resolved through go/types:
//
//   - hot-path-keys resolves the callee through go/types, so
//     `import f "fmt"; f.Sprintf(...)` does not slip through.
//   - engine-profile matches the composite literal's *type* against
//     engines.Engine, so aliases and qualified forms are equivalent.
//   - stream-rows decides by the receiver's type (relation.Relation vs
//     relation.Batch), not by the variable's name.

// checkHotPathKeys bans per-row string building in internal/exec: the
// hashed-key kernels (PR 1) exist precisely to avoid it.
func checkHotPathKeys(p *pass) {
	p.eachFuncDecl(func(pkg *Package, file *File, decl *ast.FuncDecl) {
		if !underAny(pkg.Rel, []string{"internal/exec"}) {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeOf(pkg.Info, n)
				if fn == nil || pkgPathOf(fn) != "fmt" {
					return true
				}
				switch fn.Name() {
				case "Sprintf", "Sprint", "Sprintln", "Appendf", "Append", "Appendln":
					p.reportf(n.Pos(), fmt.Sprintf(
						"fmt.%s in exec hot path: build row keys with hashed/typed keys, not formatted strings", fn.Name()))
				}
			case *ast.BinaryExpr:
				if n.Op != token.ADD {
					return true
				}
				if isStringLiteral(n.X) || isStringLiteral(n.Y) {
					p.reportf(n.Pos(), "string concatenation in exec hot path: build row keys with hashed/typed keys, not string building")
				}
			}
			return true
		})
	})
}

func isStringLiteral(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.STRING
}

// checkEngineProfile requires every engines.Engine composite literal to
// set a prof: field — no back-end enters the registry without a
// capability/cost profile for the planner.
func checkEngineProfile(p *pass) {
	for _, pkg := range p.m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f.Ast, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				tv, ok := pkg.Info.Types[lit]
				if !ok || !p.isModuleType(tv.Type, "internal/engines", "Engine") {
					return true
				}
				for _, el := range lit.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "prof" {
							return true
						}
					}
				}
				p.reportf(lit.Pos(), "Engine literal without a prof: field — every engine must register a capability/cost profile")
				return true
			})
		}
	}
}

// checkStreamRows keeps streaming kernels streaming: inside
// internal/exec's stream files, reading .Rows of a materialized
// relation.Relation defeats the pull pipeline (reading the current
// relation.Batch's rows is the point and stays allowed).
func checkStreamRows(p *pass) {
	for _, pkg := range p.m.Pkgs {
		if pkg.Rel != "internal/exec" {
			continue
		}
		for _, f := range pkg.Files {
			base := f.Rel
			if i := strings.LastIndex(base, "/"); i >= 0 {
				base = base[i+1:]
			}
			if !strings.HasPrefix(base, "stream") {
				continue
			}
			ast.Inspect(f.Ast, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Rows" {
					return true
				}
				tv, ok := pkg.Info.Types[sel.X]
				if !ok {
					return true
				}
				if relationType(p, tv.Type) {
					p.reportf(sel.Pos(), "streaming kernel reads .Rows of a materialized relation: pull batches through RowSource.Next instead")
				}
				return true
			})
		}
	}
}

func relationType(p *pass, t types.Type) bool {
	return p.isModuleType(t, "internal/relation", "Relation")
}
