//! Declarative macros for defining user object types — the analogue of
//! subclassing PC's `Object` (complex types) or using a "simple type".

/// Declares a complex PC object type with handle-aware fields.
///
/// The analogue of the paper's
/// `class DataPoint : public Object { Handle<Vector<double>> data; }`.
/// Because Rust inherent methods on `Handle<T>` can only be written in the
/// crate that owns `Handle`, field accessors are generated on a *view*
/// struct reached through [`Handle::v()`](crate::Handle::v). Getter and
/// setter names are written explicitly:
///
/// ```
/// use pc_object::{pc_object, AllocScope, Handle, PcVec, make_object};
///
/// pc_object! {
///     /// A labelled feature vector.
///     pub struct DataPoint / DataPointView {
///         (label, set_label): f64,
///         (data, set_data): Handle<PcVec<f64>>,
///     }
/// }
///
/// let _s = AllocScope::new(1 << 16);
/// let p = make_object::<DataPoint>().unwrap();
/// p.v().set_label(1.0).unwrap();
/// let vec = make_object::<PcVec<f64>>().unwrap();
/// vec.push(3.25).unwrap();
/// p.v().set_data(vec).unwrap();
/// assert_eq!(p.v().label(), 1.0);
/// assert_eq!(p.v().data().get(0), 3.25);
/// ```
///
/// Fields are laid out in declaration order on an 8-byte slot grid. Storing
/// a handle whose target lives on a different block deep-copies the target
/// into this object's block (§6.4's cross-block assignment rule).
#[macro_export]
macro_rules! pc_object {
    (
        $(#[$meta:meta])*
        pub struct $name:ident / $view:ident {
            $( ($get:ident, $set:ident): $t:ty ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name(());

        #[doc = concat!("Field-accessor view over `Handle<", stringify!($name), ">`.")]
        #[derive(Clone, Copy)]
        pub struct $view<'a> {
            h: &'a $crate::Handle<$name>,
        }

        impl $crate::PcObjType for $name {
            type View<'a> = $view<'a>;

            fn type_name() -> String {
                stringify!($name).to_string()
            }

            fn init_size() -> u32 {
                0 $( + $crate::traits::stored_footprint::<$t>() )+
            }

            fn init_at(b: &$crate::BlockRef, off: u32) -> $crate::PcResult<()> {
                b.zero_range(off, Self::init_size() as usize);
                Ok(())
            }

            fn deep_copy_obj(
                src: &$crate::BlockRef,
                soff: u32,
                dst: &$crate::BlockRef,
            ) -> $crate::PcResult<u32> {
                let doff = dst.alloc(
                    Self::init_size(),
                    $crate::registry::vtable_of::<Self>()?.code,
                    0,
                )?;
                <Self as $crate::PcObjType>::init_at(dst, doff)?;
                let mut __o: u32 = 0;
                $(
                    <$t as $crate::PcValue>::deep_copy_stored(src, soff + __o, dst, doff + __o)?;
                    __o += $crate::traits::stored_footprint::<$t>();
                )+
                let _ = __o;
                Ok(doff)
            }

            fn drop_obj(b: &$crate::BlockRef, off: u32) {
                let mut __o: u32 = 0;
                $(
                    <$t as $crate::PcValue>::drop_stored(b, off + __o);
                    __o += $crate::traits::stored_footprint::<$t>();
                )+
                let _ = __o;
            }

            fn make_view(h: &$crate::Handle<Self>) -> $view<'_> {
                $view { h }
            }
        }

        $crate::pc_object!(@methods $view ; 0u32 ; $( ($get, $set): $t ),+ );
    };

    (@methods $view:ident ; $off:expr ; ($get:ident, $set:ident): $t:ty $(, $($rest:tt)*)? ) => {
        impl<'a> $view<'a> {
            /// Reads the field (for handle fields: bumps the refcount and
            /// returns a live handle).
            #[inline]
            pub fn $get(&self) -> $t {
                <$t as $crate::PcValue>::load(self.h.block(), self.h.offset() + ($off))
            }

            /// Overwrites the field, releasing whatever it referenced.
            /// Handle stores obey the cross-block deep-copy rule.
            #[inline]
            pub fn $set(&self, v: $t) -> $crate::PcResult<()> {
                <$t as $crate::PcValue>::drop_stored(self.h.block(), self.h.offset() + ($off));
                <$t as $crate::PcValue>::store(v, self.h.block(), self.h.offset() + ($off))
            }
        }
        $(
            $crate::pc_object!(@methods $view ;
                ($off) + $crate::traits::stored_footprint::<$t>() ; $($rest)* );
        )?
    };

    (@methods $view:ident ; $off:expr ; ) => {};
}

/// Declares a flat ("simple") PC type: fixed-size plain data copied with a
/// `memmove`, storable directly as container elements and object fields.
///
/// ```
/// use pc_object::{pc_flat, AllocScope, PcVec, make_object};
///
/// pc_flat! {
///     /// A (row, col) coordinate.
///     #[derive(Debug, PartialEq)]
///     pub struct Coord { pub row: i32, pub col: i32 }
/// }
///
/// let _s = AllocScope::new(4096);
/// let v = make_object::<PcVec<Coord>>().unwrap();
/// v.push(Coord { row: 1, col: 2 }).unwrap();
/// assert_eq!(v.get(0), Coord { row: 1, col: 2 });
/// ```
#[macro_export]
macro_rules! pc_flat {
    (
        $(#[$meta:meta])*
        pub struct $name:ident { $( pub $f:ident : $t:ty ),+ $(,)? }
    ) => {
        $(#[$meta])*
        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct $name {
            $( pub $f : $t ),+
        }

        unsafe impl $crate::Flat for $name {
            fn flat_name() -> &'static str {
                stringify!($name)
            }
        }

        impl $crate::PcValue for $name {
            const STORED_SIZE: u32 = std::mem::size_of::<$name>() as u32;
            const CONTAINS_HANDLES: bool = false;

            fn value_tag() -> String {
                stringify!($name).to_string()
            }

            #[inline]
            fn store(self, b: &$crate::BlockRef, at: u32) -> $crate::PcResult<()> {
                b.write(at, self);
                Ok(())
            }

            #[inline]
            fn load(b: &$crate::BlockRef, at: u32) -> Self {
                b.read(at)
            }

            #[inline]
            fn drop_stored(_b: &$crate::BlockRef, _at: u32) {}

            #[inline]
            fn deep_copy_stored(
                src: &$crate::BlockRef,
                sat: u32,
                dst: &$crate::BlockRef,
                dat: u32,
            ) -> $crate::PcResult<()> {
                dst.write(dat, src.read::<$name>(sat));
                Ok(())
            }
        }
    };
}
