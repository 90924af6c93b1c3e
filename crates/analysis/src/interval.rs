//! The interval lattice of the one interpreter, [`crate::range`], which
//! both the bounds verifier ([`crate::bounds`]) and the IR optimizer run.
//!
//! Values are (possibly empty) inclusive integer intervals clamped to
//! `[-BOUND, BOUND]`; arithmetic uses the standard four-corner transfer
//! functions with saturation, so it never overflows and "unknown" stays
//! representable as the top element.

/// Absolute magnitude cap: intervals are clamped to `[-BOUND, BOUND]`, so
/// arithmetic never overflows and "unknown" is representable.
pub const BOUND: i64 = 1 << 40;

/// A (possibly empty) inclusive integer interval.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Ival {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound (`hi < lo` means the empty interval).
    pub hi: i64,
}

fn sat(v: i128) -> i64 {
    v.clamp(-(BOUND as i128), BOUND as i128) as i64
}

// The arithmetic methods intentionally shadow the `std::ops` names:
// interval arithmetic is partial (empty intervals, widening to top), so
// operator sugar would suggest a precision these transfer functions do
// not have.
#[allow(clippy::should_implement_trait)]
impl Ival {
    /// Interval `[lo, hi]`, clamped to the representable range.
    pub fn new(lo: i64, hi: i64) -> Ival {
        Ival {
            lo: lo.clamp(-BOUND, BOUND),
            hi: hi.clamp(-BOUND, BOUND),
        }
    }

    /// The single-point interval `[v, v]`.
    pub fn point(v: i64) -> Ival {
        Ival::new(v, v)
    }

    /// The unknown-value interval `[-BOUND, BOUND]`.
    pub fn top() -> Ival {
        Ival {
            lo: -BOUND,
            hi: BOUND,
        }
    }

    /// The empty interval (unreachable value).
    pub fn empty() -> Ival {
        Ival { lo: 1, hi: 0 }
    }

    /// Whether no value is contained.
    pub fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// Whether every contained value lies within `[lo, hi]`.
    pub fn within(self, lo: i64, hi: i64) -> bool {
        self.is_empty() || (self.lo >= lo && self.hi <= hi)
    }

    fn lift2(self, rhs: Ival, f: impl Fn(i128, i128) -> i128) -> Ival {
        if self.is_empty() || rhs.is_empty() {
            return Ival::empty();
        }
        let c = [
            f(self.lo as i128, rhs.lo as i128),
            f(self.lo as i128, rhs.hi as i128),
            f(self.hi as i128, rhs.lo as i128),
            f(self.hi as i128, rhs.hi as i128),
        ];
        Ival {
            lo: sat(*c.iter().min().unwrap()),
            hi: sat(*c.iter().max().unwrap()),
        }
    }

    /// Interval addition.
    pub fn add(self, rhs: Ival) -> Ival {
        self.lift2(rhs, |a, b| a + b)
    }

    /// Interval subtraction.
    pub fn sub(self, rhs: Ival) -> Ival {
        self.lift2(rhs, |a, b| a - b)
    }

    /// Interval multiplication.
    pub fn mul(self, rhs: Ival) -> Ival {
        self.lift2(rhs, |a, b| a * b)
    }

    /// Interval negation.
    pub fn neg(self) -> Ival {
        if self.is_empty() {
            return self;
        }
        Ival::new(-self.hi, -self.lo)
    }

    /// Truncated (C) division. Sound only bounds are produced when the
    /// divisor may be zero or change sign: the result widens to top.
    pub fn div(self, rhs: Ival) -> Ival {
        if self.is_empty() || rhs.is_empty() {
            return Ival::empty();
        }
        if rhs.lo > 0 || rhs.hi < 0 {
            // Truncated division is monotone in the dividend for a
            // fixed-sign divisor; the four corners bound the result.
            self.lift2(rhs, |a, b| a / b)
        } else {
            Ival::top()
        }
    }

    /// Truncated (C) remainder: for a constant positive divisor `r` the
    /// result lies in `[-(r-1), r-1]`, tightened by the dividend's sign.
    pub fn rem(self, rhs: Ival) -> Ival {
        if self.is_empty() || rhs.is_empty() {
            return Ival::empty();
        }
        if rhs.lo == rhs.hi && rhs.lo > 0 {
            let r = rhs.lo;
            let lo = if self.lo >= 0 { 0 } else { -(r - 1) };
            let hi = if self.hi <= 0 { 0 } else { r - 1 };
            // A non-negative dividend smaller than r is unchanged.
            if self.lo >= 0 {
                return Ival::new(0, self.hi.min(r - 1));
            }
            Ival::new(lo, hi)
        } else {
            Ival::top()
        }
    }

    /// Pointwise minimum (the `min()` math call).
    pub fn min_(self, rhs: Ival) -> Ival {
        self.lift2(rhs, |a, b| a.min(b))
    }

    /// Pointwise maximum (the `max()` math call).
    pub fn max_(self, rhs: Ival) -> Ival {
        self.lift2(rhs, |a, b| a.max(b))
    }

    /// Absolute value.
    pub fn abs(self) -> Ival {
        if self.is_empty() {
            return self;
        }
        if self.lo >= 0 {
            self
        } else if self.hi <= 0 {
            self.neg()
        } else {
            Ival::new(0, (-self.lo).max(self.hi))
        }
    }

    /// Union hull (lattice join).
    pub fn join(self, rhs: Ival) -> Ival {
        if self.is_empty() {
            return rhs;
        }
        if rhs.is_empty() {
            return self;
        }
        Ival {
            lo: self.lo.min(rhs.lo),
            hi: self.hi.max(rhs.hi),
        }
    }

    /// Intersection (lattice meet); may be empty.
    pub fn meet(self, rhs: Ival) -> Ival {
        Ival {
            lo: self.lo.max(rhs.lo),
            hi: self.hi.min(rhs.hi),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_arithmetic_basics() {
        let a = Ival::new(1, 3);
        let b = Ival::new(-2, 2);
        assert_eq!(a.add(b), Ival::new(-1, 5));
        assert_eq!(a.sub(b), Ival::new(-1, 5));
        assert_eq!(a.mul(b), Ival::new(-6, 6));
        assert_eq!(a.neg(), Ival::new(-3, -1));
        assert_eq!(Ival::new(0, 10).rem(Ival::point(4)), Ival::new(0, 3));
        assert_eq!(Ival::new(0, 2).rem(Ival::point(4)), Ival::new(0, 2));
        assert_eq!(Ival::new(-5, 5).div(Ival::point(2)), Ival::new(-2, 2));
        assert!(Ival::new(-5, 5).div(Ival::new(-1, 1)) == Ival::top());
        assert_eq!(a.join(b), Ival::new(-2, 3));
        assert_eq!(a.meet(b), Ival::new(1, 2));
        assert!(Ival::new(3, 1).is_empty());
        assert!(Ival::empty().add(a).is_empty());
        assert!(Ival::empty().within(0, 0));
        assert!(Ival::new(0, 4).within(0, 4));
        assert!(!Ival::new(0, 5).within(0, 4));
        assert_eq!(Ival::new(-3, 2).abs(), Ival::new(0, 3));
        assert_eq!(Ival::new(-3, -1).abs(), Ival::new(1, 3));
        assert_eq!(a.min_(b), Ival::new(-2, 2));
        assert_eq!(a.max_(b), Ival::new(1, 3));
    }
}
