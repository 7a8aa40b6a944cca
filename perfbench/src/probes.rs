//! Object-layer probes for the traced run: `make_object` on one and on two
//! threads at once, and the checked `AnyHandle::downcast`.

use crate::measure::median;
use plinycompute::prelude::*;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Calls per timed batch, and batches per thread.
const BATCH: usize = 1024;
const BATCHES: usize = 200;
/// Allocation block the probe allocates in (a fresh one when it fills).
const BLOCK_BYTES: usize = 8 << 20;

/// Median nanoseconds per `make_object::<T>()` call inside an allocation
/// block, with `threads` threads allocating at once (averaged over them).
pub fn make_object_ns<T: PcObjType>(threads: usize) -> f64 {
    let start = Barrier::new(threads);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    make_loop::<T>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("make_object probe thread panicked"))
            .collect()
    });
    per_thread.iter().sum::<f64>() / threads as f64
}

fn make_loop<T: PcObjType>() -> f64 {
    let mut scope = Some(AllocScope::new(BLOCK_BYTES));
    let mut held: Vec<Handle<T>> = Vec::with_capacity(BATCH);
    let mut samples = Vec::with_capacity(BATCHES);
    while samples.len() < BATCHES {
        let t = Instant::now();
        let mut full = false;
        for _ in 0..BATCH {
            match make_object::<T>() {
                Ok(h) => held.push(h),
                Err(_) => {
                    full = true;
                    break;
                }
            }
        }
        let ns = t.elapsed().as_nanos() as f64;
        let made = held.len();
        held.clear();
        if full {
            // A full block: time the batch again in a fresh one.
            assert!(made > 0, "the probe block cannot hold one object");
            drop(scope.take());
            scope = Some(AllocScope::new(BLOCK_BYTES));
        } else {
            samples.push(ns / BATCH as f64);
        }
    }
    drop(scope);
    median(&samples)
}

/// Nanoseconds per checked `downcast::<T>()` over `objs`, repeated to at
/// least 20k calls; `None` when there is nothing to downcast.
pub fn downcast_ns<T: PcObjType>(objs: &[AnyHandle]) -> Option<f64> {
    if objs.is_empty() {
        return None;
    }
    let reps = (20_000 / objs.len()).max(1);
    let t = Instant::now();
    for _ in 0..reps {
        for h in objs {
            black_box(h.downcast::<T>().ok()?);
        }
    }
    Some(t.elapsed().as_nanos() as f64 / (reps * objs.len()) as f64)
}
