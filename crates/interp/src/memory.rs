//! Memory model: flat typed arrays, a trait for pluggable backends, and
//! the owned backend used by sequential execution.
//!
//! The parallel runtime in `gr-parallel` supplies overlay backends that
//! redirect selected objects to thread-private copies (privatization) or to
//! lock-protected shared storage ("original parallel version" simulations).

use gr_ir::{Module, Type};
use std::fmt;

/// Index of a memory object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

impl ObjId {
    /// The object index as `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A typed flat array.
#[derive(Debug, Clone, PartialEq)]
pub enum Obj {
    /// Integer array.
    I(Vec<i64>),
    /// Float array.
    F(Vec<f64>),
}

impl Obj {
    /// Element count.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Obj::I(v) => v.len(),
            Obj::F(v) => v.len(),
        }
    }

    /// Whether the object is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Memory access errors (reported as [`crate::machine::Trap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Index outside the object bounds.
    OutOfBounds {
        /// Object accessed.
        obj: ObjId,
        /// Offending element index.
        index: i64,
        /// Current length.
        len: usize,
    },
    /// Unknown object id.
    BadObject(ObjId),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { obj, index, len } => {
                write!(f, "out-of-bounds access to {obj:?}[{index}] (len {len})")
            }
            MemError::BadObject(o) => write!(f, "access to unknown object {o:?}"),
        }
    }
}

impl std::error::Error for MemError {}

/// Backend trait: where loads and stores actually go.
pub trait MemBackend {
    /// Reads an integer element.
    ///
    /// # Errors
    /// [`MemError::OutOfBounds`] / [`MemError::BadObject`].
    fn load_i(&self, obj: ObjId, index: i64) -> Result<i64, MemError>;
    /// Reads a float element.
    ///
    /// # Errors
    /// [`MemError::OutOfBounds`] / [`MemError::BadObject`].
    fn load_f(&self, obj: ObjId, index: i64) -> Result<f64, MemError>;
    /// Writes an integer element.
    ///
    /// # Errors
    /// [`MemError::OutOfBounds`] / [`MemError::BadObject`].
    fn store_i(&mut self, obj: ObjId, index: i64, v: i64) -> Result<(), MemError>;
    /// Writes a float element.
    ///
    /// # Errors
    /// [`MemError::OutOfBounds`] / [`MemError::BadObject`].
    fn store_f(&mut self, obj: ObjId, index: i64, v: f64) -> Result<(), MemError>;
    /// Allocates a fresh zero-filled object (for `alloca`).
    fn alloc(&mut self, ty: Type, len: usize) -> ObjId;
}

/// The owned, single-threaded backend.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    objects: Vec<Obj>,
}

impl Memory {
    /// Creates memory with one zero-filled object per module global, so
    /// `ObjId(i)` corresponds to `GlobalId(i)` (C globals are
    /// zero-initialized).
    #[must_use]
    pub fn new(module: &Module) -> Memory {
        let mut m = Memory { objects: Vec::new() };
        for g in &module.globals {
            match g.elem {
                Type::Int => m.objects.push(Obj::I(vec![0; g.size])),
                _ => m.objects.push(Obj::F(vec![0.0; g.size])),
            }
        }
        m
    }

    /// Allocates an integer array with the given contents.
    pub fn alloc_int(&mut self, data: &[i64]) -> ObjId {
        self.objects.push(Obj::I(data.to_vec()));
        ObjId((self.objects.len() - 1) as u32)
    }

    /// Allocates a float array with the given contents.
    pub fn alloc_float(&mut self, data: &[f64]) -> ObjId {
        self.objects.push(Obj::F(data.to_vec()));
        ObjId((self.objects.len() - 1) as u32)
    }

    /// Borrow an object.
    ///
    /// # Panics
    /// Panics on unknown ids.
    #[must_use]
    pub fn object(&self, obj: ObjId) -> &Obj {
        &self.objects[obj.index()]
    }

    /// Mutably borrow an object.
    ///
    /// # Panics
    /// Panics on unknown ids.
    pub fn object_mut(&mut self, obj: ObjId) -> &mut Obj {
        &mut self.objects[obj.index()]
    }

    /// Number of objects.
    #[must_use]
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Convenience: the float contents of an object.
    ///
    /// # Panics
    /// Panics if the object holds integers.
    #[must_use]
    pub fn floats(&self, obj: ObjId) -> &[f64] {
        match self.object(obj) {
            Obj::F(v) => v,
            Obj::I(_) => panic!("object {obj:?} holds ints"),
        }
    }

    /// Convenience: the integer contents of an object.
    ///
    /// # Panics
    /// Panics if the object holds floats.
    #[must_use]
    pub fn ints(&self, obj: ObjId) -> &[i64] {
        match self.object(obj) {
            Obj::I(v) => v,
            Obj::F(_) => panic!("object {obj:?} holds floats"),
        }
    }

    #[inline]
    fn check(&self, obj: ObjId, index: i64) -> Result<usize, MemError> {
        let o = self.objects.get(obj.index()).ok_or(MemError::BadObject(obj))?;
        if index < 0 || index as usize >= o.len() {
            return Err(MemError::OutOfBounds { obj, index, len: o.len() });
        }
        Ok(index as usize)
    }
}

impl MemBackend for Memory {
    #[inline]
    fn load_i(&self, obj: ObjId, index: i64) -> Result<i64, MemError> {
        let i = self.check(obj, index)?;
        match &self.objects[obj.index()] {
            Obj::I(v) => Ok(v[i]),
            Obj::F(v) => Ok(v[i] as i64),
        }
    }

    #[inline]
    fn load_f(&self, obj: ObjId, index: i64) -> Result<f64, MemError> {
        let i = self.check(obj, index)?;
        match &self.objects[obj.index()] {
            Obj::F(v) => Ok(v[i]),
            Obj::I(v) => Ok(v[i] as f64),
        }
    }

    #[inline]
    fn store_i(&mut self, obj: ObjId, index: i64, v: i64) -> Result<(), MemError> {
        let i = self.check(obj, index)?;
        match &mut self.objects[obj.index()] {
            Obj::I(vec) => vec[i] = v,
            Obj::F(vec) => vec[i] = v as f64,
        }
        Ok(())
    }

    #[inline]
    fn store_f(&mut self, obj: ObjId, index: i64, v: f64) -> Result<(), MemError> {
        let i = self.check(obj, index)?;
        match &mut self.objects[obj.index()] {
            Obj::F(vec) => vec[i] = v,
            Obj::I(vec) => vec[i] = v as i64,
        }
        Ok(())
    }

    fn alloc(&mut self, ty: Type, len: usize) -> ObjId {
        match ty {
            Type::Int | Type::PtrInt => self.alloc_int(&vec![0; len]),
            _ => self.alloc_float(&vec![0.0; len]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globals_are_zero_initialized() {
        let m = gr_frontend::compile("float q[4]; int k[2]; void f() { return; }").unwrap();
        let mem = Memory::new(&m);
        assert_eq!(mem.object_count(), 2);
        assert_eq!(mem.floats(ObjId(0)), &[0.0; 4]);
        assert_eq!(mem.ints(ObjId(1)), &[0, 0]);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut mem = Memory::default();
        let a = mem.alloc_float(&[1.0, 2.0]);
        mem.store_f(a, 1, 9.0).unwrap();
        assert_eq!(mem.load_f(a, 1), Ok(9.0));
        let b = mem.alloc_int(&[5]);
        mem.store_i(b, 0, -3).unwrap();
        assert_eq!(mem.load_i(b, 0), Ok(-3));
    }

    #[test]
    fn bounds_are_checked() {
        let mut mem = Memory::default();
        let a = mem.alloc_int(&[0; 3]);
        assert!(matches!(mem.load_i(a, 3), Err(MemError::OutOfBounds { .. })));
        assert!(matches!(mem.load_i(a, -1), Err(MemError::OutOfBounds { .. })));
        assert!(matches!(mem.store_i(a, 100, 1), Err(MemError::OutOfBounds { .. })));
        assert!(matches!(mem.load_i(ObjId(9), 0), Err(MemError::BadObject(_))));
    }
}
