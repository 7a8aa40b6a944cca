//! Core traits of the object model.
//!
//! * [`Flat`] — the paper's "simple types": plain data, copyable with a
//!   `memmove`, no handles, no virtual behaviour.
//! * [`PcValue`] — anything storable in a fixed-width slot on a page:
//!   every `Flat` type plus [`Handle<T>`](crate::Handle)s to complex objects.
//! * [`PcKey`] — `PcValue`s usable as [`PcMap`](crate::PcMap) keys.
//! * [`PcObjType`] — complex object types (the analogue of deriving from
//!   PC's `Object` base class): they carry a type code, registry vtable, and
//!   deep-copy/drop behaviour.

use crate::block::BlockRef;
use crate::error::PcResult;
use crate::handle::Handle;
use crate::registry::TypeCode;

/// Rounds a stored size up to the 8-byte slot grid.
#[inline]
pub const fn align8(v: u32) -> u32 {
    (v + 7) & !7
}

/// Footprint of a `PcValue` slot in a container or object field.
#[inline]
pub const fn stored_footprint<T: PcValue>() -> u32 {
    align8(T::STORED_SIZE)
}

/// Marker for "simple types" (§6.1): fixed-size plain data with no handles
/// and no virtual behaviour. A `memmove` suffices to copy them.
///
/// # Safety
/// Implementors must be plain data: every bit pattern written by
/// `ptr::write_unaligned` and read back by `ptr::read_unaligned` must be a
/// valid value, and the type must not own heap memory or contain references.
pub unsafe trait Flat: Copy + 'static {
    fn flat_name() -> &'static str;
}

/// A value storable in a fixed-width page slot.
pub trait PcValue: 'static + Sized {
    /// Exact number of bytes the value occupies in its slot.
    const STORED_SIZE: u32;
    /// True when the stored form references other page objects and therefore
    /// participates in reference counting, deep copy, and drop.
    const CONTAINS_HANDLES: bool;

    /// Short diagnostic name, also used to mint type codes for generic
    /// containers (e.g. `PcVec<f64>` registers as `"PcVec<f64>"`).
    fn value_tag() -> String;

    /// Writes the value into the slot at `at` on block `b`. For handles this
    /// enforces the cross-block rule of §6.4: if the target lives on another
    /// block it is deep-copied into `b` first.
    fn store(self, b: &BlockRef, at: u32) -> PcResult<()>;

    /// Reads the value out of a slot (for handles: bumps the refcount and
    /// returns a live user handle).
    fn load(b: &BlockRef, at: u32) -> Self;

    /// Releases whatever the slot references. No-op for flat values.
    fn drop_stored(b: &BlockRef, at: u32);

    /// Copies the slot from one block to another, deep-copying referenced
    /// objects (used when whole containers are deep-copied across blocks).
    fn deep_copy_stored(src: &BlockRef, sat: u32, dst: &BlockRef, dat: u32) -> PcResult<()>;
}

/// A `PcValue` usable as a map key: hashable and comparable both as a Rust
/// value (for lookups) and in stored form (for rehash-free probing).
pub trait PcKey: PcValue {
    /// Hash of the Rust-side value.
    fn hash_val(&self) -> u64;
    /// Does the Rust-side value equal the stored key at `at`?
    fn eq_stored(&self, b: &BlockRef, at: u32) -> bool;
    /// Do the stored keys at `(a, aat)` and `(b, bat)` hold the same value?
    /// Lets page-at-a-time map merges compare entries without materializing
    /// native key values (no per-entry rehash, no allocation).
    fn stored_eq(a: &BlockRef, aat: u32, b: &BlockRef, bat: u32) -> bool;
}

/// A complex PC object type: lives on a page behind a [`Handle`], carries a
/// registered type code, and knows how to deep-copy and drop itself.
///
/// User types are declared with the [`pc_object!`](crate::pc_object) macro,
/// which implements this trait. Container types ([`PcVec`](crate::PcVec),
/// [`PcMap`](crate::PcMap), [`PcString`](crate::PcString)) implement it by
/// hand.
pub trait PcObjType: 'static {
    /// Typed view over a handle, giving field accessors. Generated types get
    /// a real view struct; containers use the handle itself.
    type View<'a>: Copy
    where
        Self: 'a;

    /// True for variable-length objects (never recycled; Appendix B).
    const VAR_SIZE: bool = false;

    /// Stable type name; feeds the type code hash.
    fn type_name() -> String;

    /// The type code under which this type registers with the catalog.
    /// Read once, when the type first registers; the hot paths take the
    /// registered code from [`registry::vtable_of`](crate::registry::vtable_of).
    fn type_code() -> TypeCode {
        TypeCode::of(&Self::type_name())
    }

    /// Payload size of a default-constructed instance.
    fn init_size() -> u32;

    /// Default-initializes the payload at `off` (memory may be recycled and
    /// dirty; implementations must fully initialize it).
    fn init_at(b: &BlockRef, off: u32) -> PcResult<()>;

    /// Deep-copies the object at `soff` on `src` into `dst`, returning the
    /// new payload offset (refcount 0; the caller adds the first reference).
    fn deep_copy_obj(src: &BlockRef, soff: u32, dst: &BlockRef) -> PcResult<u32>;

    /// Releases child references held by the object at `off` (called when
    /// its refcount reaches zero, before its space is reclaimed).
    fn drop_obj(b: &BlockRef, off: u32);

    /// Builds the typed view for a handle.
    fn make_view(h: &Handle<Self>) -> Self::View<'_>
    where
        Self: Sized;
}

// ------------------------------------------------------------------ flats

macro_rules! impl_flat {
    ($($t:ty),*) => {$(
        unsafe impl Flat for $t {
            fn flat_name() -> &'static str { stringify!($t) }
        }
    )*};
}

impl_flat!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64, usize, isize);

unsafe impl Flat for bool {
    fn flat_name() -> &'static str {
        "bool"
    }
}

unsafe impl<A: Flat, B: Flat> Flat for (A, B) {
    fn flat_name() -> &'static str {
        "pair"
    }
}

/// Every flat type is storable bit-for-bit.
macro_rules! impl_pcvalue_flat {
    ($($t:ty),*) => {$(
        impl PcValue for $t {
            const STORED_SIZE: u32 = std::mem::size_of::<$t>() as u32;
            const CONTAINS_HANDLES: bool = false;
            fn value_tag() -> String { stringify!($t).to_string() }
            #[inline]
            fn store(self, b: &BlockRef, at: u32) -> PcResult<()> {
                b.write(at, self);
                Ok(())
            }
            #[inline]
            fn load(b: &BlockRef, at: u32) -> Self { b.read(at) }
            #[inline]
            fn drop_stored(_b: &BlockRef, _at: u32) {}
            #[inline]
            fn deep_copy_stored(src: &BlockRef, sat: u32, dst: &BlockRef, dat: u32) -> PcResult<()> {
                dst.write(dat, src.read::<$t>(sat));
                Ok(())
            }
        }
    )*};
}

impl_pcvalue_flat!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64, bool);

impl<A: PcValue + Flat, B: PcValue + Flat> PcValue for (A, B) {
    const STORED_SIZE: u32 = std::mem::size_of::<(A, B)>() as u32;
    const CONTAINS_HANDLES: bool = false;
    fn value_tag() -> String {
        format!("({},{})", A::value_tag(), B::value_tag())
    }
    #[inline]
    fn store(self, b: &BlockRef, at: u32) -> PcResult<()> {
        b.write(at, self);
        Ok(())
    }
    #[inline]
    fn load(b: &BlockRef, at: u32) -> Self {
        b.read(at)
    }
    #[inline]
    fn drop_stored(_b: &BlockRef, _at: u32) {}
    #[inline]
    fn deep_copy_stored(src: &BlockRef, sat: u32, dst: &BlockRef, dat: u32) -> PcResult<()> {
        dst.write(dat, src.read::<(A, B)>(sat));
        Ok(())
    }
}

macro_rules! impl_pckey_int {
    ($($t:ty),*) => {$(
        impl PcKey for $t {
            #[inline]
            fn hash_val(&self) -> u64 { crate::hash::mix64(*self as i64 as u64) }
            #[inline]
            fn eq_stored(&self, b: &BlockRef, at: u32) -> bool { b.read::<$t>(at) == *self }
            #[inline]
            fn stored_eq(a: &BlockRef, aat: u32, b: &BlockRef, bat: u32) -> bool {
                a.read::<$t>(aat) == b.read::<$t>(bat)
            }
        }
    )*};
}

impl_pckey_int!(u8, i8, u16, i16, u32, i32, u64, i64);

impl<A, B> PcKey for (A, B)
where
    A: PcKey + Flat,
    B: PcKey + Flat,
    (A, B): PartialEq,
{
    #[inline]
    fn hash_val(&self) -> u64 {
        crate::hash::combine(self.0.hash_val(), self.1.hash_val())
    }
    #[inline]
    fn eq_stored(&self, b: &BlockRef, at: u32) -> bool {
        b.read::<(A, B)>(at) == *self
    }
    #[inline]
    fn stored_eq(a: &BlockRef, aat: u32, b: &BlockRef, bat: u32) -> bool {
        a.read::<(A, B)>(aat) == b.read::<(A, B)>(bat)
    }
}

// ------------------------------------------------------------- handles

impl<T: PcObjType> PcValue for Handle<T> {
    /// Stored handles are `{offset: u32, type_code: u32}` (§6.2).
    const STORED_SIZE: u32 = 8;
    const CONTAINS_HANDLES: bool = true;

    fn value_tag() -> String {
        format!("Handle<{}>", T::type_name())
    }

    fn store(self, b: &BlockRef, at: u32) -> PcResult<()> {
        if self.is_null() {
            b.write::<(u32, u32)>(at, (0, 0));
            return Ok(());
        }
        let code = crate::registry::vtable_of::<T>()?.code.0;
        if b.same_block(self.block()) {
            // Same-block store: record the offset and take a reference.
            b.inc_ref(self.offset());
            b.write::<(u32, u32)>(at, (self.offset(), code));
        } else {
            // Cross-block assignment triggers an automatic deep copy of the
            // target into this block (§6.4).
            b.note_deep_copy();
            let new_off = T::deep_copy_obj(self.block(), self.offset(), b)?;
            b.inc_ref(new_off);
            b.write::<(u32, u32)>(at, (new_off, code));
        }
        Ok(())
    }

    fn load(b: &BlockRef, at: u32) -> Self {
        let (off, _code) = b.read::<(u32, u32)>(at);
        if off == 0 {
            Handle::null(b.clone())
        } else {
            Handle::from_stored(b.clone(), off)
        }
    }

    fn drop_stored(b: &BlockRef, at: u32) {
        let (off, _code) = b.read::<(u32, u32)>(at);
        if off != 0 {
            b.dec_ref(off);
        }
    }

    fn deep_copy_stored(src: &BlockRef, sat: u32, dst: &BlockRef, dat: u32) -> PcResult<()> {
        let (off, code) = src.read::<(u32, u32)>(sat);
        if off == 0 {
            dst.write::<(u32, u32)>(dat, (0, 0));
            return Ok(());
        }
        let new_off = T::deep_copy_obj(src, off, dst)?;
        dst.inc_ref(new_off);
        dst.write::<(u32, u32)>(dat, (new_off, code));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprints_are_slot_aligned() {
        assert_eq!(stored_footprint::<u8>(), 8);
        assert_eq!(stored_footprint::<f64>(), 8);
        assert_eq!(stored_footprint::<(i32, i32)>(), 8);
        assert_eq!(stored_footprint::<(i64, i64)>(), 16);
    }

    #[test]
    fn pair_key_hash_differs_by_order() {
        let a = (1i32, 2i32);
        let b = (2i32, 1i32);
        assert_ne!(a.hash_val(), b.hash_val());
    }
}
