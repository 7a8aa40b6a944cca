//! `lda` — Gibbs LDA, one `PcLda::iterate` per query (the paper's Table 4
//! loop): a `join3` written to a set, two aggregations, two collects and a
//! re-store of φ.
//!
//! Why: the only in-memory workload with joins (build, probe and
//! broadcast), and the only one that mixes writes and set churn with reads
//! inside every timed unit, so a change that speeds reads but slows
//! `store`/`drop_set` shows here. It should not spill.
//!
//! It is also the noisiest workload: its time swings with the host's by 20
//! to 30% within seconds, more than the 25% bound a timed workload's
//! run-to-run spread must stay within, so `BENCHMARK.json` does not time
//! it. It still runs as `--workload lda`, and every traced run ends with
//! an in-memory join probe of it (the `lda.*` per-layer metrics).

use crate::harness::{baseline_engine, cluster_config, Workload};
use crate::trace::Tracer;
use plinycompute::ml::lda::{
    synthetic_corpus, Assignment, BaselineLda, DocProbs, LdaTuning, PcLda,
};
use plinycompute::prelude::*;

const DOCS: usize = 400;
const VOCAB: usize = 2000;
const TOPICS: usize = 20;
const TRUE_TOPICS: usize = 4;
const WORDS_PER_DOC: usize = 120;
const ALPHA: f64 = 0.1;
const BETA: f64 = 0.1;
/// How far a θ row's sum may be from 1.
const SUM_TOL: f64 = 1e-9;

pub struct Input {
    triples: Vec<(i64, i64, i64)>,
    seed: u64,
}

pub struct Lda {
    lda: PcLda,
}

impl Workload for Lda {
    const NAME: &'static str = "lda";
    type Hot = Assignment;
    type Out = Assignment;
    type Input = Input;
    type Answer = ();
    type Baseline = BaselineLda;

    fn generate(seed: u64) -> Input {
        Input {
            triples: synthetic_corpus(DOCS, VOCAB, TRUE_TOPICS, WORDS_PER_DOC, seed),
            seed,
        }
    }

    fn shape(input: &Input) -> Vec<(&'static str, u64)> {
        vec![
            ("docs", DOCS as u64),
            ("vocab", VOCAB as u64),
            ("topics", TOPICS as u64),
            ("words_per_doc", WORDS_PER_DOC as u64),
            ("triples", input.triples.len() as u64),
        ]
    }

    fn config(_input: &Input) -> ClusterConfig {
        cluster_config(1 << 20, 1024, 1 << 30)
    }

    /// `PcLda::init` stores the triples, θ (one row per document) and φ
    /// (one row per word).
    fn records(input: &Input) -> u64 {
        (input.triples.len() + DOCS + VOCAB) as u64
    }

    fn open(client: &PcClient, db: &str, input: &Input) -> PcResult<Self> {
        let lda = PcLda::init(
            client,
            db,
            &input.triples,
            DOCS,
            VOCAB,
            TOPICS,
            ALPHA,
            BETA,
            input.seed,
        )?;
        Ok(Lda { lda })
    }

    fn client(&self) -> &PcClient {
        &self.lda.client
    }

    fn loaded_set(&self) -> (&str, &str) {
        (&self.lda.db, "triples")
    }

    fn output_set(&self) -> Option<(&str, &str)> {
        Some((&self.lda.db, "assignments"))
    }

    fn query(&mut self, _tr: &mut Tracer) -> PcResult<((), Option<ClusterStats>)> {
        self.lda.iterate()?;
        Ok(((), None))
    }

    /// Sampling is random, so the check is on invariants: every θ row is a
    /// distribution over `TOPICS` topics, and the assignments set holds one
    /// object per corpus triple.
    fn check(&mut self, input: &Input, _answer: ()) -> Result<(), String> {
        let lda = &self.lda;
        let theta = lda
            .client
            .iterate_set::<DocProbs>(&lda.db, "theta")
            .map_err(|e| e.to_string())?;
        if theta.len() != DOCS {
            return Err(format!("{} θ rows, expected {DOCS}", theta.len()));
        }
        for row in &theta {
            let probs = row.v().probs();
            let sum: f64 = probs.iter().sum();
            if probs.len() != TOPICS || (sum - 1.0).abs() > SUM_TOL {
                return Err(format!(
                    "θ row of doc {}: {} entries summing to {sum}",
                    row.v().doc(),
                    probs.len()
                ));
            }
        }
        let assigned = lda.client.set_size(&lda.db, "assignments");
        if assigned != input.triples.len() as u64 {
            return Err(format!(
                "{assigned} assignments for {} triples",
                input.triples.len()
            ));
        }
        Ok(())
    }

    fn baseline_open(input: &Input) -> BaselineLda {
        BaselineLda::init(
            &baseline_engine(),
            LdaTuning::HandCodedSampler,
            input.triples.clone(),
            DOCS,
            VOCAB,
            TOPICS,
            ALPHA,
            BETA,
            input.seed,
        )
    }

    fn baseline_query(b: &mut BaselineLda) {
        b.iterate();
    }
}
