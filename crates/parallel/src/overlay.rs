//! Thread-local memory views.
//!
//! [`OverlayMemory`] gives a thread read access to the base memory plus
//! redirections for selected objects:
//!
//! * **Private** — a thread-owned copy (identity-seeded for histograms,
//!   content copies for scratch arrays); this is the paper's privatization,
//! * **Raw shared** — unsynchronized shared storage for objects whose
//!   writes are provably disjoint across threads,
//! * **Locked shared** — mutex-per-access shared storage, used to simulate
//!   the critical-section style "original parallel versions" of tpacf and
//!   histo (paper §6.3).

use crate::sync::Mutex;
use gr_interp::memory::{MemBackend, MemError, Memory, Obj, ObjId};
use gr_ir::Type;
use std::cell::UnsafeCell;
use std::sync::Arc;

/// Shared storage written without synchronization.
///
/// # Safety contract
/// Constructing one is safe; it is the *runtime's* obligation (checked
/// statically during planning) that concurrent writers touch disjoint
/// elements. All access goes through raw pointer reads/writes so disjoint
/// concurrent use is sound.
#[derive(Debug)]
pub struct SharedRaw {
    data: UnsafeCell<Obj>,
}

// SAFETY: access discipline (disjoint element writes) is guaranteed by the
// planner: objects become SharedRaw only when every store index is affine in
// the loop iterator with nonzero constant slope, so distinct iterations
// (and therefore distinct threads) write distinct elements.
unsafe impl Sync for SharedRaw {}
unsafe impl Send for SharedRaw {}

impl SharedRaw {
    /// Wraps an object snapshot.
    #[must_use]
    pub fn new(obj: Obj) -> SharedRaw {
        SharedRaw { data: UnsafeCell::new(obj) }
    }

    #[inline]
    fn len(&self) -> usize {
        // SAFETY: length is never mutated (no overlay access resizes an
        // object).
        unsafe { (*self.data.get()).len() }
    }

    #[inline]
    fn read_i(&self, i: usize) -> i64 {
        // SAFETY: see type-level contract.
        unsafe {
            match &*self.data.get() {
                Obj::I(v) => *v.as_ptr().add(i),
                Obj::F(v) => *v.as_ptr().add(i) as i64,
            }
        }
    }

    #[inline]
    fn read_f(&self, i: usize) -> f64 {
        // SAFETY: see type-level contract.
        unsafe {
            match &*self.data.get() {
                Obj::F(v) => *v.as_ptr().add(i),
                Obj::I(v) => *v.as_ptr().add(i) as f64,
            }
        }
    }

    #[inline]
    fn write_i(&self, i: usize, v: i64) {
        // SAFETY: see type-level contract.
        unsafe {
            match &mut *self.data.get() {
                Obj::I(vec) => *vec.as_mut_ptr().add(i) = v,
                Obj::F(vec) => *vec.as_mut_ptr().add(i) = v as f64,
            }
        }
    }

    #[inline]
    fn write_f(&self, i: usize, v: f64) {
        // SAFETY: see type-level contract.
        unsafe {
            match &mut *self.data.get() {
                Obj::F(vec) => *vec.as_mut_ptr().add(i) = v,
                Obj::I(vec) => *vec.as_mut_ptr().add(i) = v as i64,
            }
        }
    }

    /// Takes the object back out (single-threaded epilogue).
    #[must_use]
    pub fn into_obj(self) -> Obj {
        self.data.into_inner()
    }
}

/// Where a redirected object lives.
#[derive(Debug, Clone)]
pub enum Redirect {
    /// Thread-private copy (index into the overlay's private vector). An
    /// access past its end traps, exactly as on the original object.
    Private {
        /// Slot in the private store.
        slot: usize,
    },
    /// Unsynchronized shared storage (disjoint writes).
    Raw(Arc<SharedRaw>),
    /// Mutex-protected shared storage (one lock round-trip per access).
    Locked(Arc<Mutex<Obj>>),
    /// Write-only sink: stores vanish, loads are a planner bug (used for
    /// outputs a pass recomputes later, e.g. the scan partials pass).
    Sink,
}

/// A thread's view: base memory (read-only) plus redirects plus private
/// allocations made by `alloca` during chunk execution.
pub struct OverlayMemory<'b> {
    base: &'b Memory,
    /// Dense per-base-object redirect table — every load/store consults
    /// it, so it must be an index, not a hash lookup.
    redirects: Vec<Option<Redirect>>,
    private: Vec<Obj>,
    /// Objects allocated by this thread (ids above the base range).
    fresh: Vec<Obj>,
    fresh_base: usize,
}

impl<'b> OverlayMemory<'b> {
    /// Creates an overlay with no redirects.
    #[must_use]
    pub fn new(base: &'b Memory) -> OverlayMemory<'b> {
        OverlayMemory {
            base,
            redirects: (0..base.object_count()).map(|_| None).collect(),
            private: Vec::new(),
            fresh: Vec::new(),
            fresh_base: base.object_count(),
        }
    }

    fn set_redirect(&mut self, obj: ObjId, r: Redirect) {
        assert!(obj.index() < self.fresh_base, "only base objects can be redirected");
        self.redirects[obj.index()] = Some(r);
    }

    #[inline]
    fn redirect_of(&self, obj: ObjId) -> Option<&Redirect> {
        self.redirects.get(obj.index()).and_then(Option::as_ref)
    }

    /// Redirects `obj` to a private copy seeded with `seed`.
    pub fn redirect_private(&mut self, obj: ObjId, seed: Obj) {
        let slot = self.private.len();
        self.private.push(seed);
        self.set_redirect(obj, Redirect::Private { slot });
    }

    /// Redirects `obj` to raw shared storage.
    pub fn redirect_raw(&mut self, obj: ObjId, shared: Arc<SharedRaw>) {
        self.set_redirect(obj, Redirect::Raw(shared));
    }

    /// Redirects `obj` to lock-protected shared storage.
    pub fn redirect_locked(&mut self, obj: ObjId, shared: Arc<Mutex<Obj>>) {
        self.set_redirect(obj, Redirect::Locked(shared));
    }

    /// Redirects `obj` to a write-only sink (stores vanish; loads trap).
    /// Sound only when the plan proves the loop never reads the object —
    /// the scan specification's `OnlyObjectAccesses` guarantees exactly
    /// that for scan outputs.
    pub fn redirect_sink(&mut self, obj: ObjId) {
        self.set_redirect(obj, Redirect::Sink);
    }

    /// Extracts the private copy that was installed for `obj`.
    ///
    /// # Panics
    /// Panics if `obj` has no private redirect.
    #[must_use]
    pub fn take_private(&mut self, obj: ObjId) -> Obj {
        match self.redirect_of(obj) {
            Some(Redirect::Private { slot }) => {
                let slot = *slot;
                std::mem::replace(&mut self.private[slot], Obj::I(Vec::new()))
            }
            _ => panic!("object {obj:?} has no private redirect"),
        }
    }

    #[inline]
    fn check_raw(shared: &SharedRaw, obj: ObjId, index: i64) -> Result<usize, MemError> {
        if index < 0 || index as usize >= shared.len() {
            return Err(MemError::OutOfBounds { obj, index, len: shared.len() });
        }
        Ok(index as usize)
    }
}

impl MemBackend for OverlayMemory<'_> {
    #[inline]
    fn load_i(&self, obj: ObjId, index: i64) -> Result<i64, MemError> {
        match self.redirect_of(obj) {
            None => {
                if obj.index() >= self.fresh_base {
                    let o = self
                        .fresh
                        .get(obj.index() - self.fresh_base)
                        .ok_or(MemError::BadObject(obj))?;
                    return read_obj_i(o, obj, index);
                }
                self.base.load_i(obj, index)
            }
            Some(Redirect::Private { slot }) => read_obj_i(&self.private[*slot], obj, index),
            Some(Redirect::Raw(s)) => {
                let i = Self::check_raw(s, obj, index)?;
                Ok(s.read_i(i))
            }
            Some(Redirect::Locked(m)) => {
                let g = m.lock();
                read_obj_i(&g, obj, index)
            }
            Some(Redirect::Sink) => Err(MemError::BadObject(obj)),
        }
    }

    #[inline]
    fn load_f(&self, obj: ObjId, index: i64) -> Result<f64, MemError> {
        match self.redirect_of(obj) {
            None => {
                if obj.index() >= self.fresh_base {
                    let o = self
                        .fresh
                        .get(obj.index() - self.fresh_base)
                        .ok_or(MemError::BadObject(obj))?;
                    return read_obj_f(o, obj, index);
                }
                self.base.load_f(obj, index)
            }
            Some(Redirect::Private { slot }) => read_obj_f(&self.private[*slot], obj, index),
            Some(Redirect::Raw(s)) => {
                let i = Self::check_raw(s, obj, index)?;
                Ok(s.read_f(i))
            }
            Some(Redirect::Locked(m)) => {
                let g = m.lock();
                read_obj_f(&g, obj, index)
            }
            Some(Redirect::Sink) => Err(MemError::BadObject(obj)),
        }
    }

    #[inline]
    fn store_i(&mut self, obj: ObjId, index: i64, v: i64) -> Result<(), MemError> {
        match self.redirects.get_mut(obj.index()).and_then(Option::as_mut) {
            None => {
                if obj.index() >= self.fresh_base {
                    let base = self.fresh_base;
                    let o =
                        self.fresh.get_mut(obj.index() - base).ok_or(MemError::BadObject(obj))?;
                    return write_obj_i(o, obj, index, v);
                }
                // Writing a shared base object from a thread is a planner
                // bug; surface it as a memory error rather than racing.
                Err(MemError::BadObject(obj))
            }
            Some(Redirect::Private { slot }) => {
                write_obj_i(&mut self.private[*slot], obj, index, v)
            }
            Some(Redirect::Raw(s)) => {
                let i = Self::check_raw(s, obj, index)?;
                s.write_i(i, v);
                Ok(())
            }
            Some(Redirect::Locked(m)) => {
                let mut g = m.lock();
                write_obj_i(&mut g, obj, index, v)
            }
            Some(Redirect::Sink) => Ok(()),
        }
    }

    #[inline]
    fn store_f(&mut self, obj: ObjId, index: i64, v: f64) -> Result<(), MemError> {
        match self.redirects.get_mut(obj.index()).and_then(Option::as_mut) {
            None => {
                if obj.index() >= self.fresh_base {
                    let base = self.fresh_base;
                    let o =
                        self.fresh.get_mut(obj.index() - base).ok_or(MemError::BadObject(obj))?;
                    return write_obj_f(o, obj, index, v);
                }
                Err(MemError::BadObject(obj))
            }
            Some(Redirect::Private { slot }) => {
                write_obj_f(&mut self.private[*slot], obj, index, v)
            }
            Some(Redirect::Raw(s)) => {
                let i = Self::check_raw(s, obj, index)?;
                s.write_f(i, v);
                Ok(())
            }
            Some(Redirect::Locked(m)) => {
                let mut g = m.lock();
                write_obj_f(&mut g, obj, index, v)
            }
            Some(Redirect::Sink) => Ok(()),
        }
    }

    fn alloc(&mut self, ty: Type, len: usize) -> ObjId {
        let obj = match ty {
            Type::Int | Type::PtrInt => Obj::I(vec![0; len]),
            _ => Obj::F(vec![0.0; len]),
        };
        self.fresh.push(obj);
        ObjId((self.fresh_base + self.fresh.len() - 1) as u32)
    }
}

#[inline]
fn read_obj_i(o: &Obj, obj: ObjId, index: i64) -> Result<i64, MemError> {
    if index < 0 || index as usize >= o.len() {
        return Err(MemError::OutOfBounds { obj, index, len: o.len() });
    }
    Ok(match o {
        Obj::I(v) => v[index as usize],
        Obj::F(v) => v[index as usize] as i64,
    })
}

#[inline]
fn read_obj_f(o: &Obj, obj: ObjId, index: i64) -> Result<f64, MemError> {
    if index < 0 || index as usize >= o.len() {
        return Err(MemError::OutOfBounds { obj, index, len: o.len() });
    }
    Ok(match o {
        Obj::F(v) => v[index as usize],
        Obj::I(v) => v[index as usize] as f64,
    })
}

#[inline]
fn write_obj_i(o: &mut Obj, obj: ObjId, index: i64, v: i64) -> Result<(), MemError> {
    if index < 0 || index as usize >= o.len() {
        return Err(MemError::OutOfBounds { obj, index, len: o.len() });
    }
    match o {
        Obj::I(vec) => vec[index as usize] = v,
        Obj::F(vec) => vec[index as usize] = v as f64,
    }
    Ok(())
}

#[inline]
fn write_obj_f(o: &mut Obj, obj: ObjId, index: i64, v: f64) -> Result<(), MemError> {
    if index < 0 || index as usize >= o.len() {
        return Err(MemError::OutOfBounds { obj, index, len: o.len() });
    }
    match o {
        Obj::F(vec) => vec[index as usize] = v,
        Obj::I(vec) => vec[index as usize] = v as i64,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Memory {
        let mut m = Memory::default();
        m.alloc_int(&[10, 20, 30]);
        m.alloc_float(&[1.0, 2.0]);
        m
    }

    #[test]
    fn reads_fall_through_to_base() {
        let b = base();
        let ov = OverlayMemory::new(&b);
        assert_eq!(ov.load_i(ObjId(0), 1), Ok(20));
        assert_eq!(ov.load_f(ObjId(1), 0), Ok(1.0));
    }

    #[test]
    fn base_writes_are_rejected() {
        let b = base();
        let mut ov = OverlayMemory::new(&b);
        assert!(ov.store_i(ObjId(0), 0, 1).is_err());
    }

    #[test]
    fn private_redirect_reads_and_writes() {
        let b = base();
        let mut ov = OverlayMemory::new(&b);
        ov.redirect_private(ObjId(0), Obj::I(vec![0; 3]));
        ov.store_i(ObjId(0), 2, 7).unwrap();
        assert_eq!(ov.load_i(ObjId(0), 2), Ok(7));
        // base object is untouched
        assert_eq!(b.ints(ObjId(0)), &[10, 20, 30]);
        assert_eq!(ov.take_private(ObjId(0)), Obj::I(vec![0, 0, 7]));
    }

    #[test]
    fn raw_shared_roundtrip() {
        let b = base();
        let shared = Arc::new(SharedRaw::new(Obj::F(vec![0.0; 4])));
        let mut ov = OverlayMemory::new(&b);
        ov.redirect_raw(ObjId(1), Arc::clone(&shared));
        ov.store_f(ObjId(1), 3, 2.5).unwrap();
        assert_eq!(ov.load_f(ObjId(1), 3), Ok(2.5));
        assert!(ov.store_f(ObjId(1), 4, 0.0).is_err());
        drop(ov);
        assert_eq!(Arc::try_unwrap(shared).unwrap().into_obj(), Obj::F(vec![0.0, 0.0, 0.0, 2.5]));
    }

    #[test]
    fn locked_shared_roundtrip() {
        let b = base();
        let shared = Arc::new(Mutex::new(Obj::I(vec![0; 2])));
        let mut ov = OverlayMemory::new(&b);
        ov.redirect_locked(ObjId(0), Arc::clone(&shared));
        ov.store_i(ObjId(0), 0, 5).unwrap();
        assert_eq!(ov.load_i(ObjId(0), 0), Ok(5));
        assert_eq!(*shared.lock(), Obj::I(vec![5, 0]));
    }

    #[test]
    fn alloca_objects_are_thread_local() {
        let b = base();
        let mut ov = OverlayMemory::new(&b);
        let o = ov.alloc(Type::Float, 4);
        assert_eq!(o, ObjId(2));
        ov.store_f(o, 0, 1.5).unwrap();
        assert_eq!(ov.load_f(o, 0), Ok(1.5));
    }

    #[test]
    fn raw_shared_disjoint_threads() {
        let shared = Arc::new(SharedRaw::new(Obj::I(vec![0; 8])));
        let b = base();
        std::thread::scope(|s| {
            for t in 0..4 {
                let shared = Arc::clone(&shared);
                let b = &b;
                s.spawn(move || {
                    let mut ov = OverlayMemory::new(b);
                    ov.redirect_raw(ObjId(0), shared);
                    // thread t writes elements 2t and 2t+1: disjoint
                    ov.store_i(ObjId(0), 2 * t, t).unwrap();
                    ov.store_i(ObjId(0), 2 * t + 1, -t).unwrap();
                });
            }
        });
        let data = Arc::try_unwrap(shared).unwrap().into_obj();
        assert_eq!(data, Obj::I(vec![0, 0, 1, -1, 2, -2, 3, -3]));
    }
}
