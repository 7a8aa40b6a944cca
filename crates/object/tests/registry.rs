//! The type registry: concurrent first-touch registration, unknown codes,
//! the name/code collision check, and the interned names carried by
//! `TypeMismatch` errors.

use pc_object::registry::{lookup_vtable, require_vtable, vtable_of};
use pc_object::{
    make_object, pc_object, AllocScope, BlockRef, Handle, PcError, PcMap, PcObjType, PcResult,
    PcString, PcVec, TypeCode,
};
use std::sync::Barrier;

pc_object! {
    /// Touched first by the concurrent registration test only.
    pub struct RaceRec / RaceRecView {
        (id, set_id): i64,
        (tags, set_tags): Handle<PcVec<i64>>,
    }
}

pc_object! {
    /// Touched first by the concurrent registration test only.
    pub struct RaceOther / RaceOtherView {
        (weight, set_weight): f64,
    }
}

pc_object! {
    /// The target of the failed downcasts.
    pub struct Wanted / WantedView {
        (x, set_x): i64,
    }
}

type NestedMap = PcMap<Handle<PcString>, Handle<PcVec<i64>>>;

/// `(vtable address, code)` of `T`, after making one `T` on the active block.
fn touch<T: PcObjType>() -> (usize, TypeCode) {
    let vt = vtable_of::<T>().unwrap();
    let h = make_object::<T>().unwrap();
    assert_eq!(h.block().obj_code(h.offset()), vt.code, "header code");
    (vt as *const _ as usize, vt.code)
}

fn touch_all(order: usize) -> Vec<(usize, TypeCode)> {
    let _s = AllocScope::new(1 << 16);
    let touches: [fn() -> (usize, TypeCode); 5] = [
        touch::<RaceRec>,
        touch::<RaceOther>,
        touch::<PcVec<i64>>,
        touch::<PcVec<Handle<RaceRec>>>,
        touch::<NestedMap>,
    ];
    let mut seen = vec![(0, TypeCode(0)); touches.len()];
    // Each thread walks the types from a different starting point, so the
    // first touches of different types overlap too.
    for k in 0..touches.len() {
        let i = (order + k) % touches.len();
        seen[i] = touches[i]();
    }
    seen
}

#[test]
fn concurrent_first_touch_agrees_on_one_code_and_one_vtable_per_type() {
    const THREADS: usize = 6;
    let barrier = Barrier::new(THREADS);
    let seen: Vec<Vec<(usize, TypeCode)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    touch_all(t)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let expected = [
        TypeCode::of(&RaceRec::type_name()),
        TypeCode::of(&RaceOther::type_name()),
        TypeCode::of(&PcVec::<i64>::type_name()),
        TypeCode::of(&PcVec::<Handle<RaceRec>>::type_name()),
        TypeCode::of(&NestedMap::type_name()),
    ];
    assert_eq!(
        NestedMap::type_name(),
        "PcMap<Handle<PcString>,Handle<PcVec<i64>>>"
    );
    for per_thread in &seen {
        assert_eq!(per_thread, &seen[0], "threads disagree");
    }
    for (&(vt, code), want) in seen[0].iter().zip(expected) {
        assert_eq!(code, want);
        let by_code = lookup_vtable(code).expect("registered code resolves");
        assert_eq!(by_code as *const _ as usize, vt, "two vtables for {code:?}");
    }
}

#[test]
fn unknown_codes_are_absent_and_a_catalog_error() {
    let code = TypeCode(0xdead_beef);
    assert!(lookup_vtable(code).is_none());
    assert_eq!(
        require_vtable(code).err(),
        Some(PcError::TypeNotRegistered(0xdead_beef))
    );
}

/// A hand-written type that claims `PcString`'s code under another name.
pub struct Impostor(());

impl PcObjType for Impostor {
    type View<'a> = &'a Handle<Impostor>;

    fn type_name() -> String {
        "Impostor".to_string()
    }

    fn type_code() -> TypeCode {
        PcString::type_code()
    }

    fn init_size() -> u32 {
        8
    }

    fn init_at(b: &BlockRef, off: u32) -> PcResult<()> {
        b.zero_range(off, 8);
        Ok(())
    }

    fn deep_copy_obj(_src: &BlockRef, _soff: u32, _dst: &BlockRef) -> PcResult<u32> {
        unreachable!("an impostor is never allocated")
    }

    fn drop_obj(_b: &BlockRef, _off: u32) {}

    fn make_view(h: &Handle<Self>) -> Self::View<'_> {
        h
    }
}

#[test]
fn a_second_name_under_a_taken_code_trips_the_collision_check() {
    pc_object::ensure_builtins_registered();
    let err = vtable_of::<Impostor>().err().expect("collision detected");
    match &err {
        PcError::Catalog(msg) => {
            assert!(msg.contains("collision"), "{msg}");
            assert!(
                msg.contains("PcString") && msg.contains("Impostor"),
                "{msg}"
            );
        }
        other => panic!("want a Catalog collision, got {other:?}"),
    }
    // The failed registration publishes nothing and stays an error.
    let _s = AllocScope::new(4096);
    assert_eq!(make_object::<Impostor>().err(), Some(err));
    let vt = lookup_vtable(PcString::type_code()).unwrap();
    assert_eq!(vt.name, "PcString");
    assert_eq!(
        PcString::make("still a string").unwrap().as_str(),
        "still a string"
    );
}

#[test]
fn failed_downcasts_report_one_interned_type_name() {
    let _s = AllocScope::new(1 << 16);
    let v = make_object::<PcVec<f64>>().unwrap();
    let any = v.erase();
    let expected = |r: PcResult<Handle<Wanted>>| match r {
        Err(PcError::TypeMismatch { expected, found }) => {
            assert_eq!(expected, "Wanted");
            assert_eq!(found, vtable_of::<PcVec<f64>>().unwrap().code.0);
            expected
        }
        other => panic!("want TypeMismatch, got {other:?}"),
    };
    let first = expected(any.downcast::<Wanted>());
    let second = expected(any.downcast::<Wanted>());
    assert!(
        std::ptr::eq(first, second),
        "each failed downcast allocated a fresh name"
    );

    // `root_handle` reports the same interned name.
    let block = BlockRef::new(1 << 12, pc_object::AllocPolicy::LightweightReuse);
    let root = block.make_object::<PcVec<f64>>().unwrap();
    block.set_root(&root);
    assert!(std::ptr::eq(expected(block.root_handle::<Wanted>()), first));
}
