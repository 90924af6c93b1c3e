//! Scalar types and compile-time constants.

use std::fmt;

/// The scalar types the kernel IR supports. These correspond to the C
/// types the generated CUDA/OpenCL uses; vector types (`float4`) only
/// appear at the codegen boundary and are not first-class in the IR.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// `bool` — condition results.
    Bool,
    /// `int` — 32-bit signed integer (indices, loop counters).
    I32,
    /// `unsigned int` — 32-bit unsigned integer (dimensions, strides).
    U32,
    /// `float` — 32-bit IEEE float (pixel arithmetic).
    F32,
}

impl ScalarType {
    /// The C spelling of the type in generated code.
    pub fn c_name(self) -> &'static str {
        match self {
            ScalarType::Bool => "bool",
            ScalarType::I32 => "int",
            ScalarType::U32 => "unsigned int",
            ScalarType::F32 => "float",
        }
    }

    /// Whether the type is an integer (signed or unsigned).
    pub fn is_integer(self) -> bool {
        matches!(self, ScalarType::I32 | ScalarType::U32)
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.c_name())
    }
}

/// A compile-time constant value, produced by constant evaluation.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Const {
    /// Boolean constant.
    Bool(bool),
    /// Integer constant (stored widened; both I32 and U32 land here).
    Int(i64),
    /// Float constant.
    Float(f32),
}

impl Const {
    /// Interpret as `f32`, widening integers.
    pub fn as_f32(self) -> f32 {
        match self {
            Const::Bool(b) => {
                if b {
                    1.0
                } else {
                    0.0
                }
            }
            Const::Int(i) => i as f32,
            Const::Float(f) => f,
        }
    }

    /// Interpret as `i64`, truncating floats toward zero (C semantics).
    pub fn as_i64(self) -> i64 {
        match self {
            Const::Bool(b) => b as i64,
            Const::Int(i) => i,
            Const::Float(f) => f as i64,
        }
    }

    /// Interpret as a boolean (C truthiness: nonzero is true).
    pub fn as_bool(self) -> bool {
        match self {
            Const::Bool(b) => b,
            Const::Int(i) => i != 0,
            Const::Float(f) => f != 0.0,
        }
    }

    /// Whether the constant is exactly integer-valued (used by folding to
    /// decide when `Float` can participate in index arithmetic).
    pub fn is_integral(self) -> bool {
        match self {
            Const::Bool(_) | Const::Int(_) => true,
            Const::Float(f) => f.fract() == 0.0,
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Bool(b) => write!(f, "{b}"),
            Const::Int(i) => write!(f, "{i}"),
            Const::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e7 {
                    write!(f, "{v:.1}f")
                } else {
                    write!(f, "{v}f")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_names() {
        assert_eq!(ScalarType::F32.c_name(), "float");
        assert_eq!(ScalarType::I32.c_name(), "int");
        assert_eq!(ScalarType::U32.c_name(), "unsigned int");
        assert_eq!(ScalarType::Bool.c_name(), "bool");
    }

    #[test]
    fn integer_predicate() {
        assert!(ScalarType::I32.is_integer());
        assert!(ScalarType::U32.is_integer());
        assert!(!ScalarType::F32.is_integer());
        assert!(!ScalarType::Bool.is_integer());
    }

    #[test]
    fn const_conversions() {
        assert_eq!(Const::Int(3).as_f32(), 3.0);
        assert_eq!(Const::Float(2.9).as_i64(), 2); // C truncation
        assert_eq!(Const::Float(-2.9).as_i64(), -2);
        assert!(Const::Int(1).as_bool());
        assert!(!Const::Float(0.0).as_bool());
        assert!(Const::Bool(true).as_bool());
        assert_eq!(Const::Bool(true).as_f32(), 1.0);
    }

    #[test]
    fn integral_detection() {
        assert!(Const::Float(4.0).is_integral());
        assert!(!Const::Float(4.5).is_integral());
        assert!(Const::Int(-7).is_integral());
    }

    #[test]
    fn display_formats_floats_with_suffix() {
        assert_eq!(Const::Float(1.0).to_string(), "1.0f");
        assert_eq!(Const::Int(42).to_string(), "42");
        assert_eq!(Const::Bool(false).to_string(), "false");
    }
}
