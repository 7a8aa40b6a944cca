//! The process-wide type registry (§6.3).
//!
//! In PlinyCompute, every class deriving from `Object` is registered with the
//! catalog server by shipping its `.so`; a worker that dereferences a handle
//! whose type it has never seen fetches the library, calls `getVTablePtr()`,
//! and caches the result. Here the registry maps each **type code** (a stable
//! hash of the type name) to a [`TypeVTable`] holding the function pointers
//! the engine needs for dynamic behaviour: deep copy and drop. The worker
//! catalogs in `pc-storage` layer the fetch-on-miss simulation over this.
//!
//! ## Layout and cost
//!
//! The registry is two append-only, open-addressing tables read with atomic
//! `Acquire` loads only — no lock, no reader-side write:
//!
//! * `TypeId → &TypeVTable` (which carries the type's code) serves every
//!   statically typed site ([`vtable_of`]: `make_object`, handle stores,
//!   checked downcasts, `root_handle`, container deep copies);
//! * `TypeCode → &TypeVTable` serves the dynamically typed ones
//!   ([`lookup_vtable`]: every object free, `AnyObj` deep copy and drop,
//!   page opens).
//!
//! A hit costs one hash of a word and one probe; no cache line is written,
//! so threads allocating at once do not contend. The only writer path is
//! first-touch registration of a type: it runs under one mutex, checks the
//! name/code collision, publishes the vtable in the code table and only
//! then the type's entry, so a reader that finds an entry also finds its
//! vtable. Entries and vtables are leaked (`'static`) and never move. A
//! table that passes half full is copied into one twice its size, published
//! with a single pointer store; the old array stays alive for readers still
//! probing it, which can then only miss an entry published after they
//! started — in [`vtable_of`] such a miss falls through to the locked path
//! and re-probes.

use crate::block::BlockRef;
use crate::error::{PcError, PcResult};
use crate::traits::PcObjType;
use std::any::TypeId;
use std::hash::{Hash, Hasher};
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Mutex, PoisonError};

/// A stable identifier for a registered PC object type.
///
/// Type codes are minted from the FNV-1a hash of the type name, so the same
/// class registers under the same code on every "machine" — a property the
/// paper needs so that pages written by one node resolve on another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeCode(pub u32);

impl TypeCode {
    /// Mints the code for a type name. Never zero (zero marks null handles).
    pub fn of(name: &str) -> TypeCode {
        let h = crate::hash::fnv1a(name.as_bytes());
        let code = ((h >> 32) as u32) ^ (h as u32);
        TypeCode(if code == 0 { 1 } else { code })
    }
}

/// The dynamic behaviour of a registered type: what PC obtains from a
/// class's `.so` via `getVTablePtr()`.
pub struct TypeVTable {
    pub name: String,
    pub code: TypeCode,
    pub var_size: bool,
    pub deep_copy: fn(&BlockRef, u32, &BlockRef) -> PcResult<u32>,
    pub drop_obj: fn(&BlockRef, u32),
}

/// The registered vtable of `T`, registering `T` on first touch.
///
/// One probe of the `TypeId` table; the returned vtable carries the code
/// `T` writes into object headers and stored handles, and its `name` is the
/// interned type name. Fails only when `T`'s code is already registered
/// under another name (a [`PcError::Catalog`] collision).
#[inline]
pub fn vtable_of<T: PcObjType>() -> PcResult<&'static TypeVTable> {
    let id = TypeId::of::<T>();
    match BY_TYPE.find(id) {
        Some(e) => Ok(e.vt),
        None => register::<T>(id),
    }
}

/// Looks up a vtable by type code (`None` = the "missing .so" case).
#[inline]
pub fn lookup_vtable(code: TypeCode) -> Option<&'static TypeVTable> {
    BY_CODE.find(code)
}

/// Like [`lookup_vtable`] but returns a catalog error.
pub fn require_vtable(code: TypeCode) -> PcResult<&'static TypeVTable> {
    lookup_vtable(code).ok_or(PcError::TypeNotRegistered(code.0))
}

/// Ensures the built-in container types used by the engine internals are
/// registered (`PcString`, raw arrays are headerless, and generic containers
/// register lazily on first use).
pub fn ensure_builtins_registered() {
    // A collision would surface again at the first `PcString` allocation.
    let _ = vtable_of::<crate::containers::PcString>();
}

// ------------------------------------------------------------ the tables

/// A `TypeId` table entry: the vtable a Rust type registered with.
struct TypeEntry {
    id: TypeId,
    vt: &'static TypeVTable,
}

static BY_TYPE: AtomicTable<TypeEntry> = AtomicTable::new();
static BY_CODE: AtomicTable<TypeVTable> = AtomicTable::new();

/// Serializes registration; holds each table's entry count.
static WRITER: Mutex<Writer> = Mutex::new(Writer {
    by_type: 0,
    by_code: 0,
});

struct Writer {
    by_type: usize,
    by_code: usize,
}

/// The cold path of [`vtable_of`]: registers `T` under the writer lock.
#[cold]
fn register<T: PcObjType>(id: TypeId) -> PcResult<&'static TypeVTable> {
    // The type's own hooks run before the lock is taken, so a hand-written
    // `type_code` or `type_name` may itself touch the registry.
    let code = T::type_code();
    let name = T::type_name();
    // Nothing below panics between two writes, so the tables and counts are
    // consistent even if a previous holder panicked.
    let mut w = WRITER.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = BY_TYPE.find(id) {
        return Ok(e.vt); // another thread registered `T` first
    }
    let vt = match BY_CODE.find(code) {
        Some(existing) if existing.name != name => {
            return Err(PcError::Catalog(format!(
                "type code collision: {code:?} minted for both {} and {name}",
                existing.name
            )));
        }
        // Distinct Rust types of the same name share one vtable.
        Some(existing) => existing,
        None => {
            let vt: &'static TypeVTable = Box::leak(Box::new(TypeVTable {
                name,
                code,
                var_size: T::VAR_SIZE,
                deep_copy: T::deep_copy_obj,
                drop_obj: T::drop_obj,
            }));
            BY_CODE.insert(&mut w.by_code, vt);
            vt
        }
    };
    // Published after its vtable: whoever finds the entry finds the vtable.
    BY_TYPE.insert(&mut w.by_type, Box::leak(Box::new(TypeEntry { id, vt })));
    Ok(vt)
}

/// An entry of an [`AtomicTable`], found by its key.
trait Keyed: Sync + 'static {
    type Key: Copy + PartialEq;
    fn key(&self) -> Self::Key;
    fn hash(key: Self::Key) -> u64;
}

impl Keyed for TypeEntry {
    type Key = TypeId;
    fn key(&self) -> TypeId {
        self.id
    }
    #[inline]
    fn hash(key: TypeId) -> u64 {
        let mut h = WordHasher(0);
        key.hash(&mut h);
        h.0
    }
}

impl Keyed for TypeVTable {
    type Key = TypeCode;
    fn key(&self) -> TypeCode {
        self.code
    }
    #[inline]
    fn hash(key: TypeCode) -> u64 {
        crate::hash::mix64(key.0 as u64)
    }
}

/// Hashes the word(s) a `TypeId` feeds it; `TypeId`s are already hashes,
/// so one mixing round per word is enough.
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = crate::hash::mix64(self.0 ^ crate::hash::fnv1a(bytes));
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = crate::hash::mix64(self.0 ^ v);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One generation of a table's slots: a power-of-two array of pointers to
/// leaked entries, null when empty.
struct Slots<E: 'static> {
    mask: usize,
    slots: Box<[AtomicPtr<E>]>,
}

impl<E: Keyed> Slots<E> {
    fn with_capacity(cap: usize) -> Slots<E> {
        Slots {
            mask: cap - 1,
            slots: (0..cap).map(|_| AtomicPtr::new(ptr::null_mut())).collect(),
        }
    }

    /// Stores `e` into the first empty slot of its probe sequence. Writer
    /// side only: the `Relaxed` loads here and in `AtomicTable::insert`
    /// read slots stored under the same writer lock, which orders them; the
    /// `Release` store pairs with the readers' `Acquire` loads in `find`.
    fn place(&self, e: &'static E) {
        let mut i = E::hash(e.key()) as usize & self.mask;
        while !self.slots[i].load(Ordering::Relaxed).is_null() {
            i = (i + 1) & self.mask;
        }
        self.slots[i].store(e as *const E as *mut E, Ordering::Release);
    }
}

/// An append-only, linear-probing hash table whose lookups are atomic
/// loads only. Inserts must be serialized by the caller (the registry's
/// writer lock); the table never holds more than half its slots, so every
/// probe sequence ends at an empty slot.
struct AtomicTable<E: 'static> {
    current: AtomicPtr<Slots<E>>,
}

impl<E: Keyed> AtomicTable<E> {
    const MIN_CAPACITY: usize = 64;

    const fn new() -> Self {
        AtomicTable {
            current: AtomicPtr::new(ptr::null_mut()),
        }
    }

    #[inline]
    fn find(&self, key: E::Key) -> Option<&'static E> {
        let cur = self.current.load(Ordering::Acquire);
        if cur.is_null() {
            return None;
        }
        // SAFETY: published slot arrays are leaked, never freed or mutated
        // except through their atomics.
        let t = unsafe { &*cur };
        let mut i = E::hash(key) as usize & t.mask;
        loop {
            let p = t.slots[i].load(Ordering::Acquire);
            if p.is_null() {
                return None;
            }
            // SAFETY: slots only ever hold pointers to leaked entries, each
            // fully built before the `Release` store that published it.
            let e: &'static E = unsafe { &*p };
            if e.key() == key {
                return Some(e);
            }
            i = (i + 1) & t.mask;
        }
    }

    /// Publishes `e`, first growing the table if it would pass half full.
    /// `len` is the table's entry count, owned by the writer lock's holder.
    fn insert(&self, len: &mut usize, e: &'static E) {
        // SAFETY: as in `find`; only the (serialized) writer replaces it.
        let cur: Option<&'static Slots<E>> =
            unsafe { self.current.load(Ordering::Acquire).as_ref() };
        let cap = cur.map_or(0, |t| t.slots.len());
        let t = match cur {
            Some(t) if (*len + 1) * 2 <= cap => t,
            _ => {
                let grown = Slots::with_capacity((cap * 2).max(Self::MIN_CAPACITY));
                for s in cur.iter().flat_map(|t| t.slots.iter()) {
                    let p = s.load(Ordering::Relaxed);
                    if !p.is_null() {
                        // SAFETY: a published slot points to a leaked entry.
                        grown.place(unsafe { &*p });
                    }
                }
                // The old array is left alive: readers may still probe it.
                let grown: &'static Slots<E> = Box::leak(Box::new(grown));
                self.current
                    .store(grown as *const _ as *mut _, Ordering::Release);
                grown
            }
        };
        t.place(e);
        *len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_nonzero() {
        let a = TypeCode::of("DataPoint");
        let b = TypeCode::of("DataPoint");
        assert_eq!(a, b);
        assert_ne!(a.0, 0);
        assert_ne!(TypeCode::of("Emp"), TypeCode::of("Dep"));
    }

    struct Num(u32);

    impl Keyed for Num {
        type Key = u32;
        fn key(&self) -> u32 {
            self.0
        }
        fn hash(key: u32) -> u64 {
            key as u64 % 7 // heavy clustering exercises the probe chains
        }
    }

    #[test]
    fn table_grows_past_many_doublings_and_keeps_every_entry() {
        let table: AtomicTable<Num> = AtomicTable::new();
        assert!(table.find(1).is_none());
        let mut len = 0;
        for k in 0..1000u32 {
            table.insert(&mut len, Box::leak(Box::new(Num(k))));
            assert_eq!(table.find(k).map(|n| n.0), Some(k));
        }
        for k in 0..1000u32 {
            assert_eq!(table.find(k).map(|n| n.0), Some(k));
        }
        assert!(table.find(1000).is_none());
        // SAFETY: the table was published by `insert` above.
        let cap = unsafe { &*table.current.load(Ordering::Acquire) }
            .slots
            .len();
        assert_eq!(cap, 2048);
    }

    #[test]
    fn readers_racing_a_growing_writer_see_whole_entries_only() {
        let table: &'static AtomicTable<Num> = Box::leak(Box::new(AtomicTable::new()));
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..200 {
                        for k in 0..500u32 {
                            if let Some(n) = table.find(k) {
                                assert_eq!(n.0, k);
                            }
                        }
                    }
                });
            }
            let mut len = 0;
            for k in 0..500u32 {
                table.insert(&mut len, Box::leak(Box::new(Num(k))));
            }
        });
        assert!((0..500u32).all(|k| table.find(k).is_some()));
    }
}
