//! `join_agg_spill` — a benchmark-owned `Dataset` join → aggregate (the
//! `repro outofcore` query) on a buffer pool about a tenth the size of the
//! loaded data, with 16 KiB pages.
//!
//! Why: the only workload whose working set exceeds the buffer pool, so
//! the only one where storage spill, reload, `MemoryBudget` and second-pass
//! waves do the work; it must spill. Because the benchmark builds this
//! `Job` itself, it is also the one workload whose query phases (compile,
//! optimize, verify, plan, run) the traced run splits from outside.

use crate::harness::{baseline_engine, cluster_config, Workload, WORKERS};
use crate::measure::splitmix64;
use crate::trace::Tracer;
use plinycompute::baseline::Rdd;
use plinycompute::prelude::*;
use std::collections::HashMap;

pc_object! {
    /// One build, dimension or output record.
    pub struct BenchRec / BenchRecView {
        (key, set_key): i64,
        (val, set_val): i64,
    }
}

const ROWS: usize = 6_000;
const KEYS: usize = ROWS / 2;
const PAGE_SIZE: usize = 16 << 10;
/// Each worker's pool holds a tenth of the data that worker stores, but at
/// least this many pages.
const POOL_SHARE: usize = 10;
const MIN_POOL_PAGES: usize = 8;
const BUILD: &str = "jas_build";
const DIM: &str = "jas_dim";
const OUT: &str = "jas_out";

pub struct Input {
    /// `(key, val)` rows of the build side; several share a key.
    build: Vec<(i64, i64)>,
    /// One `(key, val)` row per key.
    dim: Vec<(i64, i64)>,
    /// Per key: the sum over its build rows of `build.val + dim.val`.
    expected: HashMap<i64, i64>,
}

pub struct JoinAggSpill {
    client: PcClient,
    db: String,
}

/// The input generator's random stream (SplitMix64).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out % n
    }
}

/// Group by `key`, summing `val`.
struct SumAgg;

impl AggregateSpec for SumAgg {
    type In = BenchRec;
    type Key = i64;
    type Val = i64;
    type Out = BenchRec;

    fn key_of(&self, rec: &Handle<BenchRec>) -> PcResult<i64> {
        Ok(rec.v().key())
    }

    fn init(&self, _b: &BlockRef, rec: &Handle<BenchRec>) -> PcResult<i64> {
        Ok(rec.v().val())
    }

    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<BenchRec>) -> PcResult<()> {
        let sum: i64 = b.read(slot);
        b.write(slot, sum + rec.v().val());
        Ok(())
    }

    fn merge(&self, dst: &BlockRef, dst_slot: u32, src: &BlockRef, src_slot: u32) -> PcResult<()> {
        let (a, b): (i64, i64) = (dst.read(dst_slot), src.read(src_slot));
        dst.write(dst_slot, a + b);
        Ok(())
    }

    fn finalize(&self, key: &i64, b: &BlockRef, slot: u32) -> PcResult<Handle<BenchRec>> {
        let out = make_object::<BenchRec>()?;
        out.v().set_key(*key)?;
        out.v().set_val(b.read(slot))?;
        Ok(out)
    }
}

fn store(client: &PcClient, db: &str, set: &str, rows: &[(i64, i64)]) -> PcResult<()> {
    client.create_or_clear_set(db, set)?;
    client.store(db, set, rows.len(), |i| {
        let r = make_object::<BenchRec>()?;
        r.v().set_key(rows[i].0)?;
        r.v().set_val(rows[i].1)?;
        Ok(r.erase())
    })
}

fn key_of(r: Var<BenchRec>) -> Lambda<i64> {
    r.member("key", |r| r.v().key())
}

impl JoinAggSpill {
    fn sink(&self) -> Sink {
        let build = self.client.set::<BenchRec>(&self.db, BUILD);
        let dim = self.client.set::<BenchRec>(&self.db, DIM);
        build
            .join(
                &dim,
                |a, b| key_of(a).eq(key_of(b)),
                "jasPair",
                |a, b| {
                    let p = make_object::<BenchRec>()?;
                    p.v().set_key(a.v().key())?;
                    p.v().set_val(a.v().val() + b.v().val())?;
                    Ok(p)
                },
            )
            .aggregate(SumAgg)
            .write_to(&self.db, OUT)
    }
}

impl Workload for JoinAggSpill {
    const NAME: &'static str = "join_agg_spill";
    const SPILLS: bool = true;
    type Hot = BenchRec;
    type Out = BenchRec;
    type Input = Input;
    type Answer = ();
    type Baseline = (Rdd<(i64, i64)>, Rdd<(i64, i64)>);

    fn generate(seed: u64) -> Input {
        let mut rng = Rng(seed);
        let build: Vec<(i64, i64)> = (0..ROWS)
            .map(|_| (rng.below(KEYS as u64) as i64, rng.below(1000) as i64))
            .collect();
        let dim: Vec<(i64, i64)> = (0..KEYS as i64)
            .map(|k| (k, rng.below(1000) as i64))
            .collect();
        let mut expected: HashMap<i64, i64> = HashMap::new();
        for &(k, v) in &build {
            *expected.entry(k).or_default() += v + dim[k as usize].1;
        }
        Input {
            build,
            dim,
            expected,
        }
    }

    fn shape(input: &Input) -> Vec<(&'static str, u64)> {
        vec![
            ("build_rows", input.build.len() as u64),
            ("dim_rows", input.dim.len() as u64),
            ("output_keys", input.expected.len() as u64),
        ]
    }

    /// Sizes the pool from a load on a roomy cluster: the bytes each worker
    /// stores, divided by `POOL_SHARE`.
    fn config(input: &Input) -> ClusterConfig {
        let client =
            PcClient::connect(cluster_config(PAGE_SIZE, 256, 1 << 30)).expect("cluster boot");
        let sized = JoinAggSpill::open(&client, "sizing", input).expect("sizing load");
        let bytes: u64 = [BUILD, DIM]
            .iter()
            .filter_map(|set| client.cluster().catalog.set_meta(&sized.db, set))
            .map(|m| m.bytes)
            .sum();
        let pool = (bytes as usize / WORKERS / POOL_SHARE).max(MIN_POOL_PAGES * PAGE_SIZE);
        cluster_config(PAGE_SIZE, 256, pool)
    }

    fn records(input: &Input) -> u64 {
        (input.build.len() + input.dim.len()) as u64
    }

    fn open(client: &PcClient, db: &str, input: &Input) -> PcResult<Self> {
        store(client, db, BUILD, &input.build)?;
        store(client, db, DIM, &input.dim)?;
        Ok(JoinAggSpill {
            client: client.clone(),
            db: db.to_string(),
        })
    }

    fn client(&self) -> &PcClient {
        &self.client
    }

    fn loaded_set(&self) -> (&str, &str) {
        (&self.db, BUILD)
    }

    fn output_set(&self) -> Option<(&str, &str)> {
        Some((&self.db, OUT))
    }

    /// Untraced, the query is `Sink::run`. Traced, the same job runs phase
    /// by phase through the public entry points `Sink::run` chains, so each
    /// phase gets its own span.
    fn query(&mut self, tr: &mut Tracer) -> PcResult<((), Option<ClusterStats>)> {
        let sink = self.sink();
        if !tr.is_on() {
            return Ok(((), Some(sink.run(&self.client)?)));
        }
        let q = tr.span("lambda.compile", |_| Job::new().add(sink).compile())?;
        self.client.create_or_clear_set(&self.db, OUT)?;
        let mut tcap = q.tcap.clone();
        tr.span("tcap.optimize", |_| plinycompute::tcap::optimize(&mut tcap));
        tr.span("tcap.verify", |_| {
            plinycompute::tcap::verify::require_clean(&tcap)
        })
        .map_err(PcError::PlanRejected)?;
        let physical = tr.span("exec.plan", |_| plinycompute::exec::plan(&tcap))?;
        let cluster = self.client.cluster();
        let stats = tr.span("cluster.run_physical", |_| {
            cluster.run_physical(&physical, &q.stages, &q.aggs)
        })?;
        Ok(((), Some(stats)))
    }

    fn check(&mut self, input: &Input, _answer: ()) -> Result<(), String> {
        let out = self
            .client
            .iterate_set::<BenchRec>(&self.db, OUT)
            .map_err(|e| e.to_string())?;
        if out.len() != input.expected.len() {
            return Err(format!(
                "{} output keys, expected {}",
                out.len(),
                input.expected.len()
            ));
        }
        for r in &out {
            let (k, v) = (r.v().key(), r.v().val());
            if input.expected.get(&k) != Some(&v) {
                return Err(format!(
                    "key {k}: sum {v}, expected {:?}",
                    input.expected.get(&k)
                ));
            }
        }
        Ok(())
    }

    fn baseline_open(input: &Input) -> Self::Baseline {
        let eng = baseline_engine();
        (
            eng.parallelize(input.build.clone()),
            eng.parallelize(input.dim.clone()),
        )
    }

    fn baseline_query((build, dim): &mut Self::Baseline) {
        let sums = build
            .join(dim)
            .map(|(k, (a, b))| (k, a + b))
            .reduce_by_key(|x, y| x + y)
            .collect();
        std::hint::black_box(sums);
    }
}
