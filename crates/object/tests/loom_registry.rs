//! Model-checking the type registry's publish protocol
//! (`pc_object::registry`): under every interleaving of concurrent
//! first-touch registrations and lock-free lookups, a reader sees either no
//! entry or a fully built one, and no code is ever published twice — also
//! while a registration grows the table into a new slot array.
//!
//! The model replicates the protocol over the loom shim. Entries live in an
//! arena whose fields are separate atomics, so a half-built entry is
//! observable; slots are `AtomicUsize` indices into the arena (0 = empty),
//! filled by a writer under the `Mutex`. A registration first probes
//! without the lock, and on a miss takes the lock, probes again, fills the
//! arena entry and only then publishes its slot. Two known-bad variants
//! prove the checker catches the races the real order and re-check exist to
//! prevent: publishing the slot before filling the entry, and probing
//! outside the lock then inserting without the re-check.

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};

/// Arena capacity: room for the duplicates a broken protocol creates.
const ARENA: usize = 4;
/// Slot counts of the table's generations: a grow doubles the array.
const GENERATIONS: [usize; 2] = [2, 4];
const A: usize = 1;
const B: usize = 2;

#[derive(Clone, Copy, PartialEq)]
enum Protocol {
    /// The registry's: fill, then publish; re-probe under the lock.
    Real,
    /// Known bad: the slot is published before the entry is filled.
    PublishBeforeFill,
    /// Known bad: the miss is decided outside the lock, never re-checked.
    CheckOutsideLock,
}

/// The vtable a code registers with (any value a torn read cannot fake).
fn vtable_for(code: usize) -> usize {
    code * 100
}

struct Table {
    protocol: Protocol,
    code: Vec<AtomicUsize>,
    vtable: Vec<AtomicUsize>,
    /// Slot arrays; a slot holds 1 + an arena index, 0 when empty.
    generations: Vec<Vec<AtomicUsize>>,
    /// Index of the published slot array.
    current: AtomicUsize,
    /// Writer state: arena entries used, entries in the current array.
    writer: Mutex<(usize, usize)>,
}

impl Table {
    fn new(protocol: Protocol) -> Table {
        let atomics = |n: usize| (0..n).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        Table {
            protocol,
            code: atomics(ARENA),
            vtable: atomics(ARENA),
            generations: GENERATIONS.iter().map(|&n| atomics(n)).collect(),
            current: AtomicUsize::new(0),
            writer: Mutex::new((0, 0)),
        }
    }

    /// The lock-free lookup: atomic loads only.
    fn find(&self, code: usize) -> Option<usize> {
        let slots = &self.generations[self.current.load(Ordering::Acquire)];
        let mut i = code % slots.len();
        loop {
            let s = slots[i].load(Ordering::Acquire);
            if s == 0 {
                return None;
            }
            let c = self.code[s - 1].load(Ordering::Acquire);
            let vt = self.vtable[s - 1].load(Ordering::Acquire);
            assert!(
                c != 0 && vt == vtable_for(c),
                "torn entry: reader saw code {c} with vtable {vt}"
            );
            if c == code {
                return Some(s - 1);
            }
            i = (i + 1) % slots.len();
        }
    }

    /// First-touch registration: the lock-free probe, then the locked path.
    fn register(&self, code: usize) -> usize {
        if let Some(e) = self.find(code) {
            return e;
        }
        let mut w = self.writer.lock().unwrap();
        if self.protocol != Protocol::CheckOutsideLock {
            if let Some(e) = self.find(code) {
                return e; // another thread registered it first
            }
        }
        self.publish(&mut w, code)
    }

    fn publish(&self, w: &mut (usize, usize), code: usize) -> usize {
        let e = w.0;
        w.0 += 1;
        let mut g = self.current.load(Ordering::Relaxed);
        if (w.1 + 1) * 2 > self.generations[g].len() {
            // Grow: copy the published slots, then switch with one store.
            for s in &self.generations[g] {
                let v = s.load(Ordering::Relaxed);
                if v != 0 {
                    let c = self.code[v - 1].load(Ordering::Relaxed);
                    place(&self.generations[g + 1], c, v);
                }
            }
            g += 1;
            self.current.store(g, Ordering::Release);
        }
        let fill = || {
            self.code[e].store(code, Ordering::Relaxed);
            self.vtable[e].store(vtable_for(code), Ordering::Relaxed);
        };
        if self.protocol == Protocol::PublishBeforeFill {
            place(&self.generations[g], code, e + 1);
            fill();
        } else {
            fill();
            place(&self.generations[g], code, e + 1);
        }
        w.1 += 1;
        e
    }

    /// After every thread is joined: each code is in the current array
    /// exactly once and owns exactly one arena entry.
    fn assert_published_once(&self, codes: &[usize]) {
        let slots = &self.generations[self.current.load(Ordering::Acquire)];
        for &code in codes {
            let copies = slots
                .iter()
                .filter(|s| {
                    let v = s.load(Ordering::Acquire);
                    v != 0 && self.code[v - 1].load(Ordering::Acquire) == code
                })
                .count();
            assert_eq!(copies, 1, "code {code} published {copies} times");
        }
        let used = self.writer.lock().unwrap().0;
        assert_eq!(used, codes.len(), "code published twice: {used} entries");
    }
}

/// Stores slot value `v` into the first empty slot of `code`'s probe chain.
fn place(slots: &[AtomicUsize], code: usize, v: usize) {
    let mut i = code % slots.len();
    while slots[i].load(Ordering::Relaxed) != 0 {
        i = (i + 1) % slots.len();
    }
    slots[i].store(v, Ordering::Release);
}

/// Two threads first-touch the same two codes in opposite orders (the
/// second registration grows the table) while a third only looks up.
fn race(protocol: Protocol, codes: &'static [usize]) {
    let t = Arc::new(Table::new(protocol));
    let writers: Vec<_> = [false, true]
        .into_iter()
        .map(|reversed| {
            let t = t.clone();
            loom::thread::spawn(move || {
                let mut got = Vec::new();
                for k in 0..codes.len() {
                    let code = codes[if reversed { codes.len() - 1 - k } else { k }];
                    got.push((code, t.register(code)));
                }
                got.sort_unstable();
                got
            })
        })
        .collect();
    let reader = {
        let t = t.clone();
        loom::thread::spawn(move || {
            for &code in codes {
                if let Some(e) = t.find(code) {
                    assert_eq!(t.code[e].load(Ordering::Acquire), code, "wrong entry");
                }
            }
        })
    };
    let got: Vec<_> = writers.into_iter().map(|w| w.join().unwrap()).collect();
    reader.join().unwrap();
    t.assert_published_once(codes);
    assert_eq!(got[0], got[1], "threads registered different entries");
}

#[test]
fn readers_see_whole_entries_and_each_code_publishes_once() {
    let n = loom::model(|| race(Protocol::Real, &[A, B]));
    assert!(
        n > 1000,
        "expected >1000 distinct interleavings, explored {n}"
    );
}

#[test]
fn known_bad_publish_before_fill_is_caught() {
    let v = loom::try_model(|| race(Protocol::PublishBeforeFill, &[A, B]))
        .expect_err("publishing before filling must expose a torn entry");
    assert!(
        v.message.contains("torn entry"),
        "unexpected: {}",
        v.message
    );
}

#[test]
fn known_bad_check_outside_lock_is_caught() {
    let v = loom::try_model(|| race(Protocol::CheckOutsideLock, &[A]))
        .expect_err("an unlocked check-then-insert must publish a code twice");
    assert!(v.message.contains("published"), "unexpected: {}", v.message);
}
