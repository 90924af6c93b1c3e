//! Pretty-printing of IR in an abstract C-like syntax.
//!
//! This printer is backend-neutral (builtins print in CUDA spelling, math
//! functions unsuffixed); the real CUDA/OpenCL emitters live in
//! `hipacc-codegen` and reuse [`expr_to_string`] with backend-specific
//! renderers for the memory nodes.

use crate::expr::{Builtin, Expr, TexCoords, UnOp};
use crate::stmt::{LValue, Stmt};
use std::fmt::Write;

/// How to render the backend-specific leaf nodes of an expression. The
/// neutral printer and both codegen backends provide implementations.
pub trait LeafRenderer {
    /// Render a thread/block builtin.
    fn builtin(&self, b: Builtin) -> String;
    /// Render a math-function name for the given argument renderings.
    fn math_call(&self, f: crate::expr::MathFn, args: &[String]) -> String;
    /// Render a global load `buf[idx]`.
    fn global_load(&self, buf: &str, idx: &str) -> String;
    /// Render a texture fetch.
    fn tex_fetch(&self, buf: &str, coords: &RenderedCoords) -> String;
    /// Render a constant-memory load.
    fn const_load(&self, buf: &str, idx: &str) -> String;
    /// Render a shared-memory load.
    fn shared_load(&self, buf: &str, y: &str, x: &str) -> String;
}

/// Rendered texture coordinates.
pub enum RenderedCoords {
    /// Linear element index.
    Linear(String),
    /// 2-D coordinates.
    Xy(String, String),
}

/// The neutral renderer used for diagnostics and DSL pretty-printing.
pub struct NeutralRenderer;

impl LeafRenderer for NeutralRenderer {
    fn builtin(&self, b: Builtin) -> String {
        b.cuda_name().to_string()
    }
    fn math_call(&self, f: crate::expr::MathFn, args: &[String]) -> String {
        format!("{}({})", f.name(), args.join(", "))
    }
    fn global_load(&self, buf: &str, idx: &str) -> String {
        format!("{buf}[{idx}]")
    }
    fn tex_fetch(&self, buf: &str, coords: &RenderedCoords) -> String {
        match coords {
            RenderedCoords::Linear(i) => format!("tex({buf}, {i})"),
            RenderedCoords::Xy(x, y) => format!("tex2({buf}, {x}, {y})"),
        }
    }
    fn const_load(&self, buf: &str, idx: &str) -> String {
        format!("{buf}[{idx}]")
    }
    fn shared_load(&self, buf: &str, y: &str, x: &str) -> String {
        format!("{buf}[{y}][{x}]")
    }
}

/// Operator precedence for parenthesization.
fn precedence(e: &Expr) -> u8 {
    use crate::expr::BinOp::*;
    match e {
        Expr::Binary(op, ..) => match op {
            Or => 1,
            And => 2,
            Eq | Ne => 3,
            Lt | Le | Gt | Ge => 4,
            Add | Sub => 5,
            Mul | Div | Rem => 6,
        },
        Expr::Select(..) => 0,
        Expr::Unary(..) | Expr::Cast(..) => 7,
        _ => 8,
    }
}

/// Render an expression with a leaf renderer.
pub fn expr_to_string(e: &Expr, r: &dyn LeafRenderer) -> String {
    let mut out = String::new();
    write_expr(e, r, &mut out);
    out
}

/// Append the rendering of `e` to `out`. Operators and their operands are
/// written in place; only the backend's leaf nodes (builtins, math calls,
/// loads) render through strings, because the [`LeafRenderer`] composes
/// them from their rendered operands.
fn write_expr(e: &Expr, r: &dyn LeafRenderer, out: &mut String) {
    let child = |e: &Expr, parent_prec: u8, out: &mut String| {
        if precedence(e) < parent_prec {
            out.push('(');
            write_expr(e, r, out);
            out.push(')');
        } else {
            write_expr(e, r, out);
        }
    };
    match e {
        Expr::ImmInt(i) => {
            let _ = write!(out, "{i}");
        }
        Expr::ImmFloat(f) => {
            let _ = write!(out, "{}", crate::ty::Const::Float(*f));
        }
        Expr::ImmBool(b) => {
            let _ = write!(out, "{b}");
        }
        Expr::Var(n) => out.push_str(n),
        Expr::Unary(op, a) => {
            out.push_str(match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
            });
            child(a, 7, out);
        }
        Expr::Binary(op, a, b) => {
            let p = precedence(e);
            child(a, p, out);
            out.push(' ');
            out.push_str(op.c_symbol());
            out.push(' ');
            child(b, p + 1, out);
        }
        Expr::Call(f, args) => {
            let rendered: Vec<String> = args.iter().map(|a| expr_to_string(a, r)).collect();
            out.push_str(&r.math_call(*f, &rendered));
        }
        Expr::Cast(ty, a) => {
            let _ = write!(out, "({})", ty.c_name());
            child(a, 7, out);
        }
        Expr::Select(c, a, b) => {
            child(c, 1, out);
            out.push_str(" ? ");
            child(a, 1, out);
            out.push_str(" : ");
            child(b, 1, out);
        }
        Expr::InputAt { acc, dx, dy } => {
            let dx = expr_to_string(dx, r);
            let dy = expr_to_string(dy, r);
            if dx == "0" && dy == "0" {
                let _ = write!(out, "{acc}()");
            } else {
                let _ = write!(out, "{acc}({dx}, {dy})");
            }
        }
        Expr::MaskAt { mask, dx, dy } => {
            let _ = write!(out, "{mask}(");
            write_expr(dx, r, out);
            out.push_str(", ");
            write_expr(dy, r, out);
            out.push(')');
        }
        Expr::OutputX => out.push_str("x()"),
        Expr::OutputY => out.push_str("y()"),
        Expr::Builtin(b) => out.push_str(&r.builtin(*b)),
        Expr::GlobalLoad { buf, idx } => {
            out.push_str(&r.global_load(buf, &expr_to_string(idx, r)));
        }
        Expr::TexFetch { buf, coords } => {
            let rc = match coords {
                TexCoords::Linear(i) => RenderedCoords::Linear(expr_to_string(i, r)),
                TexCoords::Xy(x, y) => {
                    RenderedCoords::Xy(expr_to_string(x, r), expr_to_string(y, r))
                }
            };
            out.push_str(&r.tex_fetch(buf, &rc));
        }
        Expr::ConstLoad { buf, idx } => {
            out.push_str(&r.const_load(buf, &expr_to_string(idx, r)));
        }
        Expr::SharedLoad { buf, y, x } => {
            out.push_str(&r.shared_load(buf, &expr_to_string(y, r), &expr_to_string(x, r)));
        }
    }
}

/// Emit a statement list with a leaf renderer into `out`, indented by
/// `indent` levels of four spaces.
pub fn emit_stmts(stmts: &[Stmt], r: &dyn LeafRenderer, indent: usize, out: &mut String) {
    let pad = |out: &mut String| {
        for _ in 0..indent {
            out.push_str("    ");
        }
    };
    for s in stmts {
        pad(out);
        match s {
            Stmt::Decl { name, ty, init } => {
                let _ = write!(out, "{} {name}", ty.c_name());
                if let Some(e) = init {
                    out.push_str(" = ");
                    write_expr(e, r, out);
                }
                out.push_str(";\n");
            }
            Stmt::Assign { target, value } => {
                let LValue::Var(name) = target;
                let _ = write!(out, "{name} = ");
                write_expr(value, r, out);
                out.push_str(";\n");
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let _ = write!(out, "for (int {var} = ");
                write_expr(from, r, out);
                let _ = write!(out, "; {var} <= ");
                write_expr(to, r, out);
                let _ = writeln!(out, "; ++{var}) {{");
                emit_stmts(body, r, indent + 1, out);
                pad(out);
                out.push_str("}\n");
            }
            Stmt::If { cond, then, els } => {
                out.push_str("if (");
                write_expr(cond, r, out);
                out.push_str(") {\n");
                emit_stmts(then, r, indent + 1, out);
                pad(out);
                if els.is_empty() {
                    out.push_str("}\n");
                } else {
                    out.push_str("} else {\n");
                    emit_stmts(els, r, indent + 1, out);
                    pad(out);
                    out.push_str("}\n");
                }
            }
            Stmt::Output(e) => {
                out.push_str("output() = ");
                write_expr(e, r, out);
                out.push_str(";\n");
            }
            Stmt::GlobalStore { buf, idx, value } => {
                let _ = write!(out, "{buf}[");
                write_expr(idx, r, out);
                out.push_str("] = ");
                write_expr(value, r, out);
                out.push_str(";\n");
            }
            Stmt::SharedStore { buf, y, x, value } => {
                let _ = write!(out, "{buf}[");
                write_expr(y, r, out);
                out.push_str("][");
                write_expr(x, r, out);
                out.push_str("] = ");
                write_expr(value, r, out);
                out.push_str(";\n");
            }
            Stmt::Barrier => out.push_str("__barrier();\n"),
            Stmt::Return => out.push_str("return;\n"),
            Stmt::Comment(c) => {
                let _ = writeln!(out, "// {c}");
            }
        }
    }
}

/// Pretty-print a statement list in the neutral syntax.
pub fn pretty(stmts: &[Stmt]) -> String {
    let mut out = String::new();
    emit_stmts(stmts, &NeutralRenderer, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::ScalarType;

    #[test]
    fn precedence_parenthesizes_correctly() {
        // (a + b) * c needs parens; a + b * c does not.
        let e = (Expr::var("a") + Expr::var("b")) * Expr::var("c");
        assert_eq!(expr_to_string(&e, &NeutralRenderer), "(a + b) * c");
        let e = Expr::var("a") + Expr::var("b") * Expr::var("c");
        assert_eq!(expr_to_string(&e, &NeutralRenderer), "a + b * c");
    }

    #[test]
    fn subtraction_is_left_associative() {
        // a - (b - c) must keep its parens; (a - b) - c must not.
        let e = Expr::var("a") - (Expr::var("b") - Expr::var("c"));
        assert_eq!(expr_to_string(&e, &NeutralRenderer), "a - (b - c)");
        let e = (Expr::var("a") - Expr::var("b")) - Expr::var("c");
        assert_eq!(expr_to_string(&e, &NeutralRenderer), "a - b - c");
    }

    #[test]
    fn input_center_prints_empty_parens() {
        let e = Expr::input_center("Input");
        assert_eq!(expr_to_string(&e, &NeutralRenderer), "Input()");
        let e = Expr::input_at("Input", Expr::var("xf"), Expr::var("yf"));
        assert_eq!(expr_to_string(&e, &NeutralRenderer), "Input(xf, yf)");
    }

    #[test]
    fn float_literals_keep_suffix() {
        let e = Expr::float(1.0) / Expr::float(2.0);
        assert_eq!(expr_to_string(&e, &NeutralRenderer), "1.0f / 2.0f");
    }

    #[test]
    fn statements_render_as_c() {
        let stmts = vec![
            Stmt::Decl {
                name: "d".into(),
                ty: ScalarType::F32,
                init: Some(Expr::float(0.0)),
            },
            Stmt::For {
                var: "i".into(),
                from: Expr::int(-1),
                to: Expr::int(1),
                body: vec![Stmt::Assign {
                    target: LValue::Var("d".into()),
                    value: Expr::var("d") + Expr::var("i").cast(ScalarType::F32),
                }],
            },
            Stmt::Output(Expr::var("d")),
        ];
        let text = pretty(&stmts);
        assert_eq!(
            text,
            "float d = 0.0f;\n\
             for (int i = -1; i <= 1; ++i) {\n    \
                 d = d + (float)i;\n\
             }\n\
             output() = d;\n"
        );
    }

    #[test]
    fn select_renders_ternary() {
        let e = Expr::select(
            Expr::var("x").lt(Expr::int(0)),
            Expr::int(0),
            Expr::var("x"),
        );
        assert_eq!(expr_to_string(&e, &NeutralRenderer), "x < 0 ? 0 : x");
    }

    #[test]
    fn cast_and_negation() {
        let e = -(Expr::var("c") * Expr::var("d"));
        assert_eq!(expr_to_string(&e, &NeutralRenderer), "-(c * d)");
        let e = Expr::var("i").cast(ScalarType::F32) * Expr::var("j").cast(ScalarType::F32);
        assert_eq!(expr_to_string(&e, &NeutralRenderer), "(float)i * (float)j");
    }
}
