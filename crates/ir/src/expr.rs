//! Expression nodes of the kernel IR.

use crate::ty::ScalarType;

/// Binary operators. Comparison and logic operators produce
/// `ScalarType::Bool`; the rest preserve
/// their operand type.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    /// C `%` (truncated remainder; may be negative for negative operands).
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// The C spelling of the operator.
    pub fn c_symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// Whether the result type is boolean regardless of operand type.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        ) || matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Unary operators.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    Not,
}

/// Abstract mathematical functions.
///
/// The IR keeps these *unsuffixed*; the paper's "function mapping" happens
/// at codegen time (CUDA preserves the `f` suffix — `expf` — while OpenCL
/// overloads `exp`; optionally CUDA maps to the hardware-accelerated
/// `__expf`). Min/max on integers are emitted as `min`/`max`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum MathFn {
    Exp,
    Log,
    Sqrt,
    Rsqrt,
    Abs,
    Sin,
    Cos,
    Pow,
    Min,
    Max,
    Floor,
    Round,
}

impl MathFn {
    /// Number of arguments the function takes.
    pub fn arity(self) -> usize {
        match self {
            MathFn::Pow | MathFn::Min | MathFn::Max => 2,
            _ => 1,
        }
    }

    /// Whether evaluating the function uses the GPU's special-function
    /// units (transcendentals). Drives the timing model's SFU accounting.
    pub fn uses_sfu(self) -> bool {
        matches!(
            self,
            MathFn::Exp
                | MathFn::Log
                | MathFn::Sqrt
                | MathFn::Rsqrt
                | MathFn::Sin
                | MathFn::Cos
                | MathFn::Pow
        )
    }

    /// Canonical (abstract) name used by the IR printer.
    pub fn name(self) -> &'static str {
        match self {
            MathFn::Exp => "exp",
            MathFn::Log => "log",
            MathFn::Sqrt => "sqrt",
            MathFn::Rsqrt => "rsqrt",
            MathFn::Abs => "abs",
            MathFn::Sin => "sin",
            MathFn::Cos => "cos",
            MathFn::Pow => "pow",
            MathFn::Min => "min",
            MathFn::Max => "max",
            MathFn::Floor => "floor",
            MathFn::Round => "round",
        }
    }
}

/// Device-level builtin values (CUDA spellings; OpenCL equivalents are
/// substituted by the OpenCL backend: `get_local_id(0)`, `get_group_id(0)`,
/// `get_local_size(0)`, `get_num_groups(0)`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Builtin {
    ThreadIdxX,
    ThreadIdxY,
    BlockIdxX,
    BlockIdxY,
    BlockDimX,
    BlockDimY,
    GridDimX,
    GridDimY,
}

impl Builtin {
    /// CUDA spelling.
    pub fn cuda_name(self) -> &'static str {
        match self {
            Builtin::ThreadIdxX => "threadIdx.x",
            Builtin::ThreadIdxY => "threadIdx.y",
            Builtin::BlockIdxX => "blockIdx.x",
            Builtin::BlockIdxY => "blockIdx.y",
            Builtin::BlockDimX => "blockDim.x",
            Builtin::BlockDimY => "blockDim.y",
            Builtin::GridDimX => "gridDim.x",
            Builtin::GridDimY => "gridDim.y",
        }
    }

    /// OpenCL spelling.
    pub fn opencl_name(self) -> &'static str {
        match self {
            Builtin::ThreadIdxX => "get_local_id(0)",
            Builtin::ThreadIdxY => "get_local_id(1)",
            Builtin::BlockIdxX => "get_group_id(0)",
            Builtin::BlockIdxY => "get_group_id(1)",
            Builtin::BlockDimX => "get_local_size(0)",
            Builtin::BlockDimY => "get_local_size(1)",
            Builtin::GridDimX => "get_num_groups(0)",
            Builtin::GridDimY => "get_num_groups(1)",
        }
    }
}

/// Texture coordinate forms (see Section IV-A of the paper).
#[derive(Clone, Debug, PartialEq)]
pub enum TexCoords {
    /// CUDA `tex1Dfetch` on linear memory: a single linear element index.
    Linear(Box<Expr>),
    /// CUDA 2-D texture / OpenCL image object: `(x, y)` coordinates. The
    /// hardware address mode (boundary handling) is attached to the texture
    /// binding, not the fetch.
    Xy(Box<Expr>, Box<Expr>),
}

/// Expression nodes. DSL-level kernels use the first group plus
/// `InputAt`/`MaskAt`/`OutputX`/`OutputY`; the compiler lowers those into
/// the device-level group.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    ImmInt(i64),
    /// Float literal.
    ImmFloat(f32),
    /// Boolean literal.
    ImmBool(bool),
    /// Reference to a declared variable or kernel parameter.
    Var(String),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Mathematical function call.
    Call(MathFn, Vec<Expr>),
    /// Explicit conversion, `(type)expr`.
    Cast(ScalarType, Box<Expr>),
    /// Ternary `cond ? a : b`.
    Select(Box<Expr>, Box<Expr>, Box<Expr>),

    // ---- DSL level ----
    /// `Input(dx, dy)` — read the accessor named `acc` at the window offset
    /// `(dx, dy)` relative to the output pixel. `Input()` is offset (0, 0).
    InputAt {
        /// Accessor name, as declared on the kernel.
        acc: String,
        /// Column offset expression.
        dx: Box<Expr>,
        /// Row offset expression.
        dy: Box<Expr>,
    },
    /// `Mask(dx, dy)` — read a filter-mask coefficient.
    MaskAt {
        /// Mask name, as declared on the kernel.
        mask: String,
        /// Column offset expression.
        dx: Box<Expr>,
        /// Row offset expression.
        dy: Box<Expr>,
    },
    /// The output pixel's x coordinate within the iteration space.
    OutputX,
    /// The output pixel's y coordinate within the iteration space.
    OutputY,

    // ---- Device level ----
    /// Thread/block builtin.
    Builtin(Builtin),
    /// `buf[idx]` from global memory.
    GlobalLoad {
        /// Global buffer (kernel parameter) name.
        buf: String,
        /// Linear element index.
        idx: Box<Expr>,
    },
    /// Texture fetch (read-only cached path).
    TexFetch {
        /// Texture reference / image object name.
        buf: String,
        /// Coordinate form.
        coords: TexCoords,
    },
    /// `cbuf[idx]` from constant memory.
    ConstLoad {
        /// Constant buffer name.
        buf: String,
        /// Linear element index.
        idx: Box<Expr>,
    },
    /// `smem[y][x]` from scratchpad memory.
    SharedLoad {
        /// Shared array name.
        buf: String,
        /// Row index.
        y: Box<Expr>,
        /// Column index.
        x: Box<Expr>,
    },
}

impl Expr {
    /// Integer literal helper.
    pub fn int(v: i64) -> Expr {
        Expr::ImmInt(v)
    }

    /// Float literal helper.
    pub fn float(v: f32) -> Expr {
        Expr::ImmFloat(v)
    }

    /// Variable reference helper.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// `Input()` at the center offset.
    pub fn input_center(acc: impl Into<String>) -> Expr {
        Expr::InputAt {
            acc: acc.into(),
            dx: Box::new(Expr::int(0)),
            dy: Box::new(Expr::int(0)),
        }
    }

    /// `Input(dx, dy)` with expression offsets.
    pub fn input_at(acc: impl Into<String>, dx: Expr, dy: Expr) -> Expr {
        Expr::InputAt {
            acc: acc.into(),
            dx: Box::new(dx),
            dy: Box::new(dy),
        }
    }

    /// `Mask(dx, dy)` with expression offsets.
    pub fn mask_at(mask: impl Into<String>, dx: Expr, dy: Expr) -> Expr {
        Expr::MaskAt {
            mask: mask.into(),
            dx: Box::new(dx),
            dy: Box::new(dy),
        }
    }

    /// Unary math call.
    pub fn call1(f: MathFn, a: Expr) -> Expr {
        debug_assert_eq!(f.arity(), 1);
        Expr::Call(f, vec![a])
    }

    /// Binary math call.
    pub fn call2(f: MathFn, a: Expr, b: Expr) -> Expr {
        debug_assert_eq!(f.arity(), 2);
        Expr::Call(f, vec![a, b])
    }

    /// `exp(a)` helper — the workhorse of the bilateral filter.
    pub fn exp(a: Expr) -> Expr {
        Expr::call1(MathFn::Exp, a)
    }

    /// `min(a, b)` helper.
    pub fn min(a: Expr, b: Expr) -> Expr {
        Expr::call2(MathFn::Min, a, b)
    }

    /// `max(a, b)` helper.
    pub fn max(a: Expr, b: Expr) -> Expr {
        Expr::call2(MathFn::Max, a, b)
    }

    /// Comparison helper, `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Lt, Box::new(self), Box::new(rhs))
    }

    /// Comparison helper, `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Le, Box::new(self), Box::new(rhs))
    }

    /// Comparison helper, `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Gt, Box::new(self), Box::new(rhs))
    }

    /// Comparison helper, `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Ge, Box::new(self), Box::new(rhs))
    }

    /// Comparison helper, `self == rhs`.
    pub fn eq_(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Eq, Box::new(self), Box::new(rhs))
    }

    /// Logical and.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::And, Box::new(self), Box::new(rhs))
    }

    /// Logical or.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Or, Box::new(self), Box::new(rhs))
    }

    /// C remainder.
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Rem, Box::new(self), Box::new(rhs))
    }

    /// Cast to another scalar type.
    pub fn cast(self, ty: ScalarType) -> Expr {
        Expr::Cast(ty, Box::new(self))
    }

    /// Ternary select.
    pub fn select(cond: Expr, then: Expr, els: Expr) -> Expr {
        Expr::Select(Box::new(cond), Box::new(then), Box::new(els))
    }

    /// Visit every sub-expression (including `self`), pre-order.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Unary(_, a) | Expr::Cast(_, a) => a.visit(f),
            Expr::Binary(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Select(c, a, b) => {
                c.visit(f);
                a.visit(f);
                b.visit(f);
            }
            Expr::InputAt { dx, dy, .. } | Expr::MaskAt { dx, dy, .. } => {
                dx.visit(f);
                dy.visit(f);
            }
            Expr::GlobalLoad { idx, .. } | Expr::ConstLoad { idx, .. } => idx.visit(f),
            Expr::TexFetch { coords, .. } => match coords {
                TexCoords::Linear(i) => i.visit(f),
                TexCoords::Xy(x, y) => {
                    x.visit(f);
                    y.visit(f);
                }
            },
            Expr::SharedLoad { y, x, .. } => {
                y.visit(f);
                x.visit(f);
            }
            Expr::ImmInt(_)
            | Expr::ImmFloat(_)
            | Expr::ImmBool(_)
            | Expr::Var(_)
            | Expr::OutputX
            | Expr::OutputY
            | Expr::Builtin(_) => {}
        }
    }

    /// Rewrite every sub-expression bottom-up through `f`. Children are
    /// rewritten inside the boxes that already hold them, so a node `f`
    /// hands back unchanged costs no allocation.
    pub fn rewrite(mut self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        match &mut self {
            Expr::Unary(_, a) | Expr::Cast(_, a) => a.rewrite_in_place(f),
            Expr::Binary(_, a, b) => {
                a.rewrite_in_place(f);
                b.rewrite_in_place(f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.rewrite_in_place(f);
                }
            }
            Expr::Select(c, a, b) => {
                c.rewrite_in_place(f);
                a.rewrite_in_place(f);
                b.rewrite_in_place(f);
            }
            Expr::InputAt { dx, dy, .. } | Expr::MaskAt { dx, dy, .. } => {
                dx.rewrite_in_place(f);
                dy.rewrite_in_place(f);
            }
            Expr::GlobalLoad { idx, .. } | Expr::ConstLoad { idx, .. } => idx.rewrite_in_place(f),
            Expr::TexFetch { coords, .. } => match coords {
                TexCoords::Linear(i) => i.rewrite_in_place(f),
                TexCoords::Xy(x, y) => {
                    x.rewrite_in_place(f);
                    y.rewrite_in_place(f);
                }
            },
            Expr::SharedLoad { y, x, .. } => {
                y.rewrite_in_place(f);
                x.rewrite_in_place(f);
            }
            Expr::ImmInt(_)
            | Expr::ImmFloat(_)
            | Expr::ImmBool(_)
            | Expr::Var(_)
            | Expr::OutputX
            | Expr::OutputY
            | Expr::Builtin(_) => {}
        }
        f(self)
    }

    /// [`rewrite`](Self::rewrite) through a mutable reference: the node
    /// is moved out (leaving an allocation-free placeholder), rewritten
    /// and moved back.
    pub fn rewrite_in_place(&mut self, f: &mut impl FnMut(Expr) -> Expr) {
        let node = std::mem::replace(self, Expr::ImmBool(false));
        *self = node.rewrite(f);
    }
}

// Operator overloads for ergonomic kernel construction.
impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Box::new(self), Box::new(rhs))
    }
}
impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Sub, Box::new(self), Box::new(rhs))
    }
}
impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Mul, Box::new(self), Box::new(rhs))
    }
}
impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Div, Box::new(self), Box::new(rhs))
    }
}
impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Unary(UnOp::Neg, Box::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_overloads_build_binaries() {
        let e = Expr::var("a") + Expr::int(1) * Expr::var("b");
        match e {
            Expr::Binary(BinOp::Add, lhs, rhs) => {
                assert_eq!(*lhs, Expr::var("a"));
                assert!(matches!(*rhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn visit_reaches_every_node() {
        let e = Expr::exp(-(Expr::var("c") * Expr::input_at("IN", Expr::var("xf"), Expr::int(0))));
        let mut count = 0usize;
        let mut inputs = 0usize;
        e.visit(&mut |n| {
            count += 1;
            if matches!(n, Expr::InputAt { .. }) {
                inputs += 1;
            }
        });
        // exp, neg, mul, var c, input, var xf, imm 0 = 7 nodes.
        assert_eq!(count, 7);
        assert_eq!(inputs, 1);
    }

    #[test]
    fn rewrite_substitutes_variables() {
        let e = Expr::var("sigma") + Expr::int(1);
        let out = e.rewrite(&mut |n| {
            if n == Expr::var("sigma") {
                Expr::int(3)
            } else {
                n
            }
        });
        assert_eq!(out, Expr::int(3) + Expr::int(1));
    }

    #[test]
    fn mathfn_arity_and_sfu() {
        assert_eq!(MathFn::Exp.arity(), 1);
        assert_eq!(MathFn::Pow.arity(), 2);
        assert!(MathFn::Exp.uses_sfu());
        assert!(MathFn::Rsqrt.uses_sfu());
        assert!(!MathFn::Abs.uses_sfu());
        assert!(!MathFn::Min.uses_sfu());
    }

    #[test]
    fn builtin_names_differ_per_backend() {
        assert_eq!(Builtin::ThreadIdxX.cuda_name(), "threadIdx.x");
        assert_eq!(Builtin::ThreadIdxX.opencl_name(), "get_local_id(0)");
        assert_eq!(Builtin::GridDimY.cuda_name(), "gridDim.y");
        assert_eq!(Builtin::GridDimY.opencl_name(), "get_num_groups(1)");
    }

    #[test]
    fn comparison_ops_are_boolean() {
        assert!(BinOp::Lt.is_comparison());
        assert!(BinOp::And.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert_eq!(BinOp::Le.c_symbol(), "<=");
    }
}
