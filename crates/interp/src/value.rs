//! Runtime values.

use crate::memory::ObjId;

/// A value during interpretation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtVal {
    /// 64-bit integer.
    I(i64),
    /// 64-bit float.
    F(f64),
    /// Boolean.
    B(bool),
    /// Pointer: memory object + element offset.
    P {
        /// Target object.
        obj: ObjId,
        /// Element offset (may be transiently out of bounds; checked at
        /// access time).
        off: i64,
    },
    /// Uninitialized slot (reading one is a machine bug, not a program
    /// error).
    Undef,
}

impl RtVal {
    /// Pointer to the start of an object.
    #[inline]
    #[must_use]
    pub fn ptr(obj: ObjId) -> RtVal {
        RtVal::P { obj, off: 0 }
    }

    /// The integer payload.
    ///
    /// # Panics
    /// Panics if the value is not an integer.
    #[inline]
    #[must_use]
    pub fn as_i(self) -> i64 {
        match self {
            RtVal::I(v) => v,
            other => panic!("expected int, got {other:?}"),
        }
    }

    /// The float payload.
    ///
    /// # Panics
    /// Panics if the value is not a float.
    #[inline]
    #[must_use]
    pub fn as_f(self) -> f64 {
        match self {
            RtVal::F(v) => v,
            other => panic!("expected float, got {other:?}"),
        }
    }

    /// The boolean payload.
    ///
    /// # Panics
    /// Panics if the value is not a boolean.
    #[inline]
    #[must_use]
    pub fn as_b(self) -> bool {
        match self {
            RtVal::B(v) => v,
            other => panic!("expected bool, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(RtVal::I(4).as_i(), 4);
        assert_eq!(RtVal::F(2.5).as_f(), 2.5);
        assert!(RtVal::B(true).as_b());
        let p = RtVal::ptr(ObjId(3));
        assert_eq!(p, RtVal::P { obj: ObjId(3), off: 0 });
    }

    #[test]
    #[should_panic(expected = "expected int")]
    fn wrong_accessor_panics() {
        let _ = RtVal::F(1.0).as_i();
    }
}
