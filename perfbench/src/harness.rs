//! The closed-loop harness every workload runs under.
//!
//! One client in one process sends each query after the previous one
//! returns. A run has three phases:
//!
//! 1. input generation from the seed (not timed);
//! 2. set-up, repeated: cluster boot, load and one warm-up query;
//! 3. the timed loop, for `--seconds`, after two seconds of the same loop
//!    untimed: PC queries, each followed by its answer check and teardown
//!    check. Load calls (into a set of their own) and `pc-baseline` queries
//!    on the same inputs are interleaved with them, so that all three see
//!    the same host conditions.
//!
//! With `--trace 1` the timed loop alternates untraced and traced PC
//! queries, so the tracing overhead is measured under the same conditions;
//! then the object-layer probes, the out-of-core probe and the in-memory
//! join probe run.

use crate::measure::{median, peak_rss_mb, splitmix64, tail, Metrics};
use crate::probes;
use crate::trace::Tracer;
use crate::workloads::join_agg_spill::{BenchRec, JoinAggSpill};
use crate::workloads::lda::Lda;
use plinycompute::prelude::*;
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

/// Workers in every PC cluster the benchmark boots.
pub const WORKERS: usize = 2;
/// Executor threads per worker (set in `ExecConfig`, not through the
/// environment), so a 2-core host runs two busy threads.
pub const THREADS: usize = 1;
/// `pc-baseline` partitions: the same parallelism as the PC cluster.
pub const BASELINE_PARTITIONS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Fresh processes per run whose memory peaks `peak_rss_mb` is the median
/// of, and the flag that makes the benchmark one of them.
const PEAK_PROCS: usize = 9;
pub const PEAK_CHILD_FLAG: &str = "--peak-rss-child";
/// PC queries per run, at least.
const MIN_QUERIES: usize = 30;
/// After each PC query, one baseline query runs while the baseline
/// queries' time is under this ratio to the PC queries' time; likewise one
/// load call. The first PC query is followed by both, so each runs at least
/// once; spread over the loop, they stay out of its first queries.
const BASELINE_RATIO: f64 = 0.45;
const LOAD_RATIO: f64 = 0.3;
/// Seconds of untimed loop before the timed one, so that caches, the heap
/// and the baseline's partitions settle first.
const WARMUP_S: f64 = 2.0;
/// Queries the out-of-core probe of a traced run times.
const OOC_QUERIES: usize = 8;
/// Iterations the in-memory join probe of a traced run times.
const LDA_QUERIES: usize = 8;
/// Failure messages kept for the report.
const MAX_FAILURES_KEPT: usize = 5;

/// What one workload supplies to the harness.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Whether the workload must spill (its working set exceeds the pool);
    /// every other workload must show zero spills.
    const SPILLS: bool = false;
    /// The workload's hottest record type (the `make_object` probe).
    type Hot: PcObjType;
    /// The element type of the output set the traced run gathers.
    type Out: PcObjType;
    type Input;
    type Answer;
    type Baseline;

    /// Inputs and reference answers, a pure function of the seed.
    fn generate(seed: u64) -> Self::Input;
    /// Input sizes, for the report.
    fn shape(input: &Self::Input) -> Vec<(&'static str, u64)>;
    /// The cluster every phase boots.
    fn config(input: &Self::Input) -> ClusterConfig;
    /// Records one load call ingests.
    fn records(input: &Self::Input) -> u64;
    /// The workload's PC load call into database `db`, and the state the
    /// queries run from.
    fn open(client: &PcClient, db: &str, input: &Self::Input) -> PcResult<Self>;
    fn client(&self) -> &PcClient;
    /// The loaded set whose bytes per record the traced run reports.
    fn loaded_set(&self) -> (&str, &str);
    /// The set the traced run gathers after each query, if the workload
    /// leaves one behind.
    fn output_set(&self) -> Option<(&str, &str)>;
    /// One timed query, with the engine's stats when the workload gets them.
    fn query(&mut self, tr: &mut Tracer) -> PcResult<(Self::Answer, Option<ClusterStats>)>;
    /// The answer check every timed query must pass.
    fn check(&mut self, input: &Self::Input, answer: Self::Answer) -> Result<(), String>;
    /// A deeper check, once per run.
    fn full_check(&mut self, _input: &Self::Input) -> Result<(), String> {
        Ok(())
    }
    fn baseline_open(input: &Self::Input) -> Self::Baseline;
    fn baseline_query(b: &mut Self::Baseline);
}

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Run facts for the report: shape, sample counts, failures.
    pub facts: Vec<(String, String)>,
    pub spans: Option<String>,
}

fn err(e: PcError) -> String {
    e.to_string()
}

/// Cluster-wide counters read between queries.
#[derive(Clone, Copy, Default)]
struct Snapshot {
    pool_hits: u64,
    pool_misses: u64,
    pool_evictions: u64,
    spills: u64,
    bytes_spilled: u64,
    type_fetches: u64,
    bytes_shuffled: u64,
    pages_shuffled: u64,
    tables_broadcast: u64,
    bytes_retransmitted: u64,
    stages_replayed: u64,
    leaked_spill_files: u64,
    reserved_bytes: u64,
}

impl Snapshot {
    fn take(client: &PcClient) -> Snapshot {
        let cluster = client.cluster();
        let c = cluster.stats_snapshot();
        let mut s = Snapshot {
            bytes_shuffled: c.bytes_shuffled,
            pages_shuffled: c.pages_shuffled,
            tables_broadcast: c.tables_broadcast,
            bytes_retransmitted: c.bytes_retransmitted,
            stages_replayed: c.stages_replayed,
            ..Snapshot::default()
        };
        for w in &cluster.workers {
            let pool = w.storage.pool();
            let p = pool.stats();
            s.pool_hits += p.hits;
            s.pool_misses += p.misses;
            s.pool_evictions += p.evictions;
            s.spills += p.spills;
            s.bytes_spilled += p.bytes_spilled;
            s.type_fetches += w.types.fetches();
            s.leaked_spill_files += pool.leaked_spill_files() as u64;
            s.reserved_bytes += pool.budget().reserved() as u64;
        }
        s
    }

    /// Per-query counters: deltas of the monotone ones, levels of the rest.
    fn since(&self, before: &Snapshot) -> Vec<(&'static str, u64)> {
        vec![
            ("storage.spills", self.spills - before.spills),
            (
                "storage.bytes_spilled",
                self.bytes_spilled - before.bytes_spilled,
            ),
            (
                "storage.pool_evictions",
                self.pool_evictions - before.pool_evictions,
            ),
            ("storage.pool_hits", self.pool_hits - before.pool_hits),
            ("storage.pool_misses", self.pool_misses - before.pool_misses),
            (
                "storage.type_fetches",
                self.type_fetches - before.type_fetches,
            ),
            ("storage.leaked_spill_files", self.leaked_spill_files),
            ("storage.reserved_bytes_after", self.reserved_bytes),
            (
                "cluster.bytes_shuffled",
                self.bytes_shuffled - before.bytes_shuffled,
            ),
            (
                "cluster.pages_shuffled",
                self.pages_shuffled - before.pages_shuffled,
            ),
            (
                "cluster.tables_broadcast",
                self.tables_broadcast - before.tables_broadcast,
            ),
            (
                "cluster.bytes_retransmitted",
                self.bytes_retransmitted - before.bytes_retransmitted,
            ),
            (
                "cluster.stages_replayed",
                self.stages_replayed - before.stages_replayed,
            ),
        ]
    }
}

/// The engine counters `Sink::run` returns, by per-layer metric name.
fn exec_counters(stats: &Option<ClusterStats>) -> Vec<(&'static str, u64)> {
    let e = stats.map(|s| s.exec).unwrap_or_default();
    vec![
        ("exec.rows_in", e.rows_in),
        ("exec.rows_out", e.rows_out),
        ("exec.rows_probed", e.rows_probed),
        ("exec.join_matches", e.join_matches),
        ("exec.rows_aggregated", e.rows_aggregated),
        ("exec.morsels_dispatched", e.morsels_dispatched),
        ("exec.morsels_stolen", e.morsels_stolen),
        ("exec.join_partitions_spilled", e.join_partitions_spilled),
        ("exec.agg_pages_spilled", e.agg_pages_spilled),
        ("exec.spill_waves", e.spill_waves),
    ]
}

fn unit_of(counter: &str) -> &'static str {
    if counter.contains("bytes") {
        "bytes"
    } else {
        "count"
    }
}

/// The teardown check: nothing left behind, nothing resent or replayed,
/// and spilling exactly where the workload is meant to spill.
fn teardown_check(counters: &[(&'static str, u64)], must_spill: bool) -> Result<(), String> {
    let get = |name: &str| counters.iter().find(|(n, _)| *n == name).map_or(0, |c| c.1);
    for name in [
        "storage.leaked_spill_files",
        "storage.reserved_bytes_after",
        "cluster.bytes_retransmitted",
        "cluster.stages_replayed",
    ] {
        if get(name) != 0 {
            return Err(format!("teardown: {name} = {}", get(name)));
        }
    }
    let spilled =
        get("storage.spills") + get("exec.join_partitions_spilled") + get("exec.agg_pages_spilled");
    match (must_spill, spilled) {
        (true, 0) => Err("teardown: the out-of-core query did not spill".into()),
        (false, n) if n > 0 => Err(format!("teardown: an in-memory query spilled {n} time(s)")),
        _ => Ok(()),
    }
}

/// Which timed queries the tracer records.
#[derive(Clone, Copy, PartialEq)]
enum Tracing {
    Off,
    /// About every second query, picked by a hash of the query number so
    /// that the choice does not follow the baseline and load interleaving.
    Alternate,
    All,
}

/// What the timed loop measured.
#[derive(Default)]
struct LoopOut {
    /// Wall times of the untraced and the traced PC queries that passed.
    q_ms: Vec<f64>,
    q_traced_ms: Vec<f64>,
    base_ms: Vec<f64>,
    load_s: Vec<f64>,
    /// Per traced query, its counters.
    counters: BTreeMap<&'static str, Vec<f64>>,
    downcast_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl LoopOut {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURES_KEPT {
            self.failures.push(e);
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).map_or(0.0, |v| median(v))
    }

    /// Counts the operations and failures of a probe or of the warm-up,
    /// `what`, as this run's own.
    fn absorb(&mut self, what: &str, other: LoopOut) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_FAILURES_KEPT.saturating_sub(self.failures.len());
        let failures = other.failures.into_iter().take(room);
        self.failures
            .extend(failures.map(|f| format!("{what}: {f}")));
    }
}

/// Cluster boot, the load call and one checked warm-up query, `reps`
/// times. Returns the last set-up's state and each set-up's seconds.
fn set_up<W: Workload>(
    config: &ClusterConfig,
    input: &W::Input,
    reps: usize,
) -> Result<(W, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    let mut state: Option<W> = None;
    for _ in 0..reps {
        drop(state.take());
        let t = Instant::now();
        let client = PcClient::connect(config.clone()).map_err(err)?;
        let mut s = W::open(&client, "bench", input).map_err(err)?;
        let (answer, _) = s.query(&mut Tracer::new()).map_err(err)?;
        s.check(input, answer)
            .map_err(|e| format!("warm-up query: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some(s);
    }
    Ok((state.expect("at least one set-up"), setup_s))
}

/// What a peak-memory child does: generate the inputs, set up once, and
/// report the process's peak resident MiB (`VmHWM`).
pub fn peak_child<W: Workload>(seed: u64) -> Result<f64, String> {
    let input = W::generate(seed);
    let config = W::config(&input);
    drop(set_up::<W>(&config, &input, 1)?);
    Ok(peak_rss_mb())
}

/// The median of `PEAK_PROCS` peak-memory children (see `peak_child`), run
/// one after another. One process's peak moved by up to 15 MiB from run to
/// run with where the allocator placed its arenas; in a process that had
/// set up before, it also counts what the allocator kept from then.
fn peak_rss_children(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("peak-memory child: {e}"))?;
    let seed = seed.to_string();
    let mut peaks = Vec::new();
    for _ in 0..PEAK_PROCS {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed])
            .args(["--seconds", "1", "--trace", "0", PEAK_CHILD_FLAG])
            .output()
            .map_err(|e| format!("peak-memory child: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        match stdout.trim().parse::<f64>() {
            Ok(peak) if out.status.success() => peaks.push(peak),
            _ => {
                return Err(format!(
                    "peak-memory child ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                ))
            }
        }
    }
    Ok(median(&peaks))
}

/// The closed loop: at least `min_attempts` PC queries and at least
/// `seconds` of wall time. With a baseline, baseline queries and load calls
/// are interleaved with the PC queries (see `BASELINE_RATIO`). PC queries
/// and load calls count as attempted operations.
fn timed_loop<W: Workload>(
    s: &mut W,
    input: &W::Input,
    tr: &mut Tracer,
    mut base: Option<&mut W::Baseline>,
    seconds: f64,
    min_attempts: usize,
    tracing: Tracing,
) -> LoopOut {
    let client = s.client().clone();
    let mut out = LoopOut::default();
    let (mut pc_total, mut base_total, mut load_total) = (0.0, 0.0, 0.0);
    let mut before = Snapshot::take(&client);
    let t_loop = Instant::now();
    let mut queries = 0u64;
    while t_loop.elapsed().as_secs_f64() < seconds || (queries as usize) < min_attempts {
        let traced = match tracing {
            Tracing::Off => false,
            Tracing::Alternate => splitmix64(queries) % 2 == 1,
            Tracing::All => true,
        };
        queries += 1;
        out.attempted += 1;
        tr.set_on(traced);
        tr.next_query();
        let result: Result<f64, String> = tr.span("bench.query", |tr| {
            let t = Instant::now();
            let result = tr.span("core.query", |tr| s.query(tr));
            let elapsed = t.elapsed().as_secs_f64() * 1e3;
            let (answer, stats) = result.map_err(err)?;
            let mut counters = Snapshot::take(&client).since(&before);
            counters.extend(exec_counters(&stats));
            tr.span("bench.check", |_| {
                s.check(input, answer)?;
                teardown_check(&counters, W::SPILLS)
            })?;
            if traced {
                for (name, v) in &counters {
                    out.counters.entry(name).or_default().push(*v as f64);
                }
                if let Some((db, set)) = s.output_set() {
                    let gathered =
                        tr.span("core.gather", |_| client.iterate_set::<W::Out>(db, set));
                    drop(gathered.map_err(err)?);
                    let objs = client.cluster().scan_objects(db, set).map_err(err)?;
                    let ns = tr.span("object.downcast", |_| probes::downcast_ns::<W::Out>(&objs));
                    out.downcast_ns.extend(ns);
                }
            }
            Ok(elapsed)
        });
        match result {
            Ok(ms) => {
                pc_total += ms;
                if traced {
                    out.q_traced_ms.push(ms);
                } else {
                    out.q_ms.push(ms);
                }
            }
            Err(e) => out.fail(e),
        }
        if let Some(b) = base.as_deref_mut() {
            // A load call right after a baseline query ran about 40% slower
            // than one right after a PC query: the load goes first, so that
            // it always follows a PC query.
            if load_total <= pc_total * LOAD_RATIO {
                out.attempted += 1;
                let t = Instant::now();
                let loaded = tr.span("core.load", |_| W::open(&client, "loadprobe", input));
                let secs = t.elapsed().as_secs_f64();
                load_total += secs * 1e3;
                match loaded {
                    Ok(_) => out.load_s.push(secs),
                    Err(e) => out.fail(format!("load: {e}")),
                }
            }
            if base_total <= pc_total * BASELINE_RATIO {
                let t = Instant::now();
                tr.span("baseline.query", |_| W::baseline_query(b));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                base_total += ms;
                out.base_ms.push(ms);
            }
        }
        tr.set_on(false);
        before = Snapshot::take(&client);
    }
    out
}

pub fn run<W: Workload>(ctx: &Ctx) -> Result<Outcome, String> {
    // The memory peak comes from fresh processes of its own, run first, on
    // an otherwise idle benchmark.
    let peak_rss = if ctx.trace {
        0.0
    } else {
        peak_rss_children(W::NAME, ctx.seed)?
    };
    let input = W::generate(ctx.seed);
    let config = W::config(&input);
    let mut tr = Tracer::new();
    let mut facts: Vec<(String, String)> = W::shape(&input)
        .into_iter()
        .map(|(k, v)| (format!("input.{k}"), v.to_string()))
        .collect();
    facts.push((
        "cluster.pool_capacity".into(),
        config.pool_capacity.to_string(),
    ));
    facts.push((
        "cluster.page_size".into(),
        config.exec.page_size.to_string(),
    ));

    // Phase 2: set-up.
    let (mut s, setup_s) = set_up::<W>(&config, &input, SETUP_REPS)?;

    // Phase 3: the timed loop.
    let mut base = W::baseline_open(&input);
    let warm_up = timed_loop(
        &mut s,
        &input,
        &mut Tracer::new(),
        Some(&mut base),
        WARMUP_S,
        1,
        Tracing::Off,
    );
    let tracing = if ctx.trace {
        Tracing::Alternate
    } else {
        Tracing::Off
    };
    let mut lp = timed_loop(
        &mut s,
        &input,
        &mut tr,
        Some(&mut base),
        ctx.seconds,
        MIN_QUERIES,
        tracing,
    );
    drop(base);
    lp.absorb("warm-up", warm_up);
    if let Err(e) = s.full_check(&input) {
        lp.attempted += 1;
        lp.fail(format!("full check: {e}"));
    }
    let loaded = s.loaded_set();
    let meta = s.client().cluster().catalog.set_meta(loaded.0, loaded.1);
    let bytes_per_rec = meta.map_or(0.0, |m| m.bytes as f64 / m.objects.max(1) as f64);
    drop(s);

    let (tail_pct, tail_ms) = tail(&lp.q_ms);
    let q_p50 = median(&lp.q_ms);
    let base_p50 = median(&lp.base_ms);
    facts.push(("samples.timed_queries".into(), lp.q_ms.len().to_string()));
    facts.push((
        "samples.traced_queries".into(),
        lp.q_traced_ms.len().to_string(),
    ));
    facts.push(("samples.tail_percentile".into(), tail_pct.to_string()));
    facts.push((
        "samples.baseline_queries".into(),
        lp.base_ms.len().to_string(),
    ));
    facts.push(("samples.setups".into(), setup_s.len().to_string()));
    facts.push(("samples.loads".into(), lp.load_s.len().to_string()));
    facts.push(("baseline.query_ms_p50".into(), base_p50.to_string()));
    facts.push(("samples.peak_rss_procs".into(), PEAK_PROCS.to_string()));

    let mut m = Metrics::default();
    let mut spans = None;
    if ctx.trace {
        per_layer::<W>(&mut m, &tr, &lp, bytes_per_rec);
        let (ooc_tr, ooc) = out_of_core_probe(ctx.seed, &mut m)?;
        lp.absorb("out-of-core probe", ooc);
        let (lda_tr, lda) = join_probe(ctx.seed, &mut m)?;
        lp.absorb("lda probe", lda);
        spans = Some(format!(
            "{}{}{}",
            tr.to_json_lines("workload"),
            ooc_tr.to_json_lines("out_of_core"),
            lda_tr.to_json_lines("lda")
        ));
    } else {
        m.put("setup_s", median(&setup_s), "s");
        m.put(
            "load_rec_s",
            W::records(&input) as f64 / median(&lp.load_s),
            "rec/s",
        );
        m.put("query_ms_p50", q_p50, "ms");
        m.put("query_ms_tail", tail_ms, "ms");
        m.put("speedup_vs_baseline", base_p50 / q_p50, "x");
        m.put("peak_rss_mb", peak_rss, "MiB");
    }
    facts.push((
        "failed_frac".into(),
        (lp.failed as f64 / lp.attempted as f64).to_string(),
    ));
    for (i, f) in lp.failures.iter().enumerate() {
        facts.push((format!("failure.{i}"), f.clone()));
    }
    Ok(Outcome {
        metrics: m,
        attempted: lp.attempted,
        failed: lp.failed,
        facts,
        spans,
    })
}

/// Spans of the workload's own queries whose self time the traced run
/// reports.
const SELF_TIMED: [&str; 6] = [
    "bench.query",
    "core.query",
    "core.gather",
    "object.downcast",
    "core.load",
    "baseline.query",
];

/// The workload's per-layer metrics from its traced queries.
fn per_layer<W: Workload>(m: &mut Metrics, tr: &Tracer, lp: &LoopOut, bytes_per_rec: f64) {
    let total = tr.per_query_ms(false);
    let own = tr.per_query_ms(true);
    let span_ms = |name: &str| total.get(name).copied().unwrap_or(0.0);
    m.put(
        "object.make_object_ns_1t",
        probes::make_object_ns::<W::Hot>(1),
        "ns",
    );
    m.put(
        "object.make_object_ns_2t",
        probes::make_object_ns::<W::Hot>(2),
        "ns",
    );
    m.put("object.downcast_ns", median(&lp.downcast_ns), "ns");
    m.put("object.bytes_per_rec", bytes_per_rec, "B/rec");
    m.put("core.gather_ms", span_ms("core.gather"), "ms");
    m.put("core.load_ms", span_ms("core.load"), "ms");
    m.put("core.query_ms", span_ms("core.query"), "ms");
    for (name, _) in Snapshot::default().since(&Snapshot::default()) {
        m.put(name, lp.counter(name), unit_of(name));
    }
    m.put("baseline.query_ms", span_ms("baseline.query"), "ms");
    for name in SELF_TIMED {
        m.put(
            &format!("self.{name}_ms"),
            own.get(name).copied().unwrap_or(0.0),
            "ms",
        );
    }
    let (untraced, traced) = (median(&lp.q_ms), median(&lp.q_traced_ms));
    m.put("trace.query_ms_p50_untraced", untraced, "ms");
    m.put("trace.query_ms_p50_traced", traced, "ms");
    m.put("trace.overhead_pct", (traced / untraced - 1.0) * 100.0, "%");
}

/// Phase spans of the out-of-core query, in the order `Sink::run` runs
/// them, with the metric each reports.
const PHASES: [(&str, &str); 5] = [
    ("lambda.compile", "lambda.compile_us"),
    ("tcap.optimize", "tcap.optimize_us"),
    ("tcap.verify", "tcap.verify_us"),
    ("exec.plan", "exec.plan_us"),
    ("cluster.run_physical", "cluster.run_physical_ms"),
];

/// The out-of-core probe of every traced run: the `join_agg_spill` query,
/// fully traced, on its own cluster and tracer. Only a query the benchmark
/// builds itself can be split into phases and return the engine's
/// counters, and only this one spills, so the query-phase, `exec.*` and
/// `ooc.*` metrics come from here.
fn out_of_core_probe(seed: u64, m: &mut Metrics) -> Result<(Tracer, LoopOut), String> {
    let (tr, lp) = probe::<JoinAggSpill>(seed, OOC_QUERIES)?;
    let total = tr.per_query_ms(false);
    let own = tr.per_query_ms(true);
    for (span, metric) in PHASES {
        let ms = total.get(span).copied().unwrap_or(0.0);
        let (value, unit) = if metric.ends_with("_us") {
            (ms * 1e3, "us")
        } else {
            (ms, "ms")
        };
        m.put(metric, value, unit);
        m.put(
            &format!("self.{span}_ms"),
            own.get(span).copied().unwrap_or(0.0),
            "ms",
        );
    }
    for (name, _) in exec_counters(&None) {
        m.put(name, lp.counter(name), unit_of(name));
    }
    m.put("ooc.query_ms", median(&lp.q_traced_ms), "ms");
    for name in [
        "storage.spills",
        "storage.bytes_spilled",
        "storage.pool_evictions",
        "storage.pool_hits",
        "storage.pool_misses",
        "storage.leaked_spill_files",
        "storage.reserved_bytes_after",
    ] {
        m.put(&format!("ooc.{name}"), lp.counter(name), unit_of(name));
    }
    m.put(
        "ooc.object.make_object_ns_1t",
        probes::make_object_ns::<BenchRec>(1),
        "ns",
    );
    m.put(
        "ooc.object.make_object_ns_2t",
        probes::make_object_ns::<BenchRec>(2),
        "ns",
    );
    Ok((tr, lp))
}

/// The in-memory join probe of every traced run: the `lda` iteration,
/// fully traced, on its own cluster and tracer. It is the only in-memory
/// query with joins (it broadcasts two tables per iteration) and with
/// `store`/`drop_set` churn inside the query, and its records are the LDA
/// ones, so the `lda.*` metrics keep those layers measured although `lda`
/// is not one of the timed workloads.
fn join_probe(seed: u64, m: &mut Metrics) -> Result<(Tracer, LoopOut), String> {
    let (tr, lp) = probe::<Lda>(seed, LDA_QUERIES)?;
    let total = tr.per_query_ms(false);
    m.put("lda.query_ms", median(&lp.q_traced_ms), "ms");
    m.put(
        "lda.core.gather_ms",
        total.get("core.gather").copied().unwrap_or(0.0),
        "ms",
    );
    m.put("lda.object.downcast_ns", median(&lp.downcast_ns), "ns");
    for name in [
        "cluster.bytes_shuffled",
        "cluster.pages_shuffled",
        "cluster.tables_broadcast",
    ] {
        m.put(&format!("lda.{name}"), lp.counter(name), unit_of(name));
    }
    type Hot = <Lda as Workload>::Hot;
    m.put(
        "lda.object.make_object_ns_1t",
        probes::make_object_ns::<Hot>(1),
        "ns",
    );
    m.put(
        "lda.object.make_object_ns_2t",
        probes::make_object_ns::<Hot>(2),
        "ns",
    );
    Ok((tr, lp))
}

/// Workload `P`'s query, every one traced, `queries` times on a cluster
/// and tracer of its own, after one set-up.
fn probe<P: Workload>(seed: u64, queries: usize) -> Result<(Tracer, LoopOut), String> {
    let input = P::generate(seed);
    let config = P::config(&input);
    let (mut s, _) = set_up::<P>(&config, &input, 1)?;
    let mut tr = Tracer::new();
    let lp = timed_loop(&mut s, &input, &mut tr, None, 0.0, queries, Tracing::All);
    Ok((tr, lp))
}

/// The cluster shape every workload runs on; page size, batch size and
/// pool capacity are the workload's own.
pub fn cluster_config(page_size: usize, batch_size: usize, pool_capacity: usize) -> ClusterConfig {
    ClusterConfig {
        workers: WORKERS,
        exec: ExecConfig {
            batch_size,
            page_size,
            agg_partitions: 4,
            join_partitions: 8,
            threads: THREADS,
            ..ExecConfig::default()
        },
        broadcast_threshold: 64 << 20,
        pool_capacity,
        ..ClusterConfig::default()
    }
}

/// The `pc-baseline` engine every workload compares against.
pub fn baseline_engine() -> plinycompute::baseline::SparkLike {
    use plinycompute::baseline::{SparkConfig, SparkLike, StorageLevel};
    SparkLike::new(SparkConfig {
        partitions: BASELINE_PARTITIONS,
        storage: StorageLevel::Serialized,
        ..Default::default()
    })
}
