//! `kmeans` — one Lloyd step per query (`PcKMeans::iterate`) at dim 10,
//! k = 10 (the paper's Table 6 loop).
//!
//! Why: column-kernel and morsel scan work dominates, while object
//! allocation and the shuffle are near zero (k objects and k groups per
//! iteration). This is the bypass workload: a change to the object layer
//! or the shuffle should not move it, and PC already leads the baseline
//! here, so a regression on the scan path shows. It should not spill.

use crate::harness::{baseline_engine, cluster_config, Workload};
use crate::trace::Tracer;
use plinycompute::ml::kmeans::{synthetic_points, BaselineKMeans, DataPoint, PcKMeans};
use plinycompute::prelude::*;

const POINTS: usize = 200_000;
const DIM: usize = 10;
const K: usize = 10;
const SET: &str = "points";
/// Largest relative difference allowed between PC's centroids and the
/// benchmark's own Lloyd step (the two sum in different orders).
const REL_TOL: f64 = 1e-9;

pub struct KMeans {
    km: PcKMeans,
}

type Centroids = Vec<Vec<f64>>;

/// One Lloyd step computed here, by brute force, from the points and the
/// previous centroids. A centroid that wins no point keeps its place.
fn lloyd_step(points: &[Vec<f64>], prev: &Centroids) -> Centroids {
    let mut sums = vec![vec![0.0; DIM]; prev.len()];
    let mut counts = vec![0usize; prev.len()];
    for p in points {
        let (mut best, mut best_d) = (0, f64::INFINITY);
        for (k, c) in prev.iter().enumerate() {
            let d: f64 = p.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum();
            if d < best_d {
                (best, best_d) = (k, d);
            }
        }
        counts[best] += 1;
        for (s, x) in sums[best].iter_mut().zip(p) {
            *s += x;
        }
    }
    sums.into_iter()
        .zip(counts)
        .zip(prev)
        .map(|((s, n), old)| {
            if n == 0 {
                old.clone()
            } else {
                s.iter().map(|x| x / n as f64).collect()
            }
        })
        .collect()
}

impl Workload for KMeans {
    const NAME: &'static str = "kmeans";
    type Hot = DataPoint;
    type Out = DataPoint;
    type Input = Vec<Vec<f64>>;
    type Answer = (Centroids, Centroids);
    type Baseline = BaselineKMeans;

    fn generate(seed: u64) -> Vec<Vec<f64>> {
        synthetic_points(POINTS, DIM, K, seed)
    }

    fn shape(points: &Vec<Vec<f64>>) -> Vec<(&'static str, u64)> {
        vec![
            ("points", points.len() as u64),
            ("dim", DIM as u64),
            ("k", K as u64),
        ]
    }

    fn config(_points: &Vec<Vec<f64>>) -> ClusterConfig {
        cluster_config(1 << 20, 1024, 1 << 30)
    }

    fn records(points: &Vec<Vec<f64>>) -> u64 {
        points.len() as u64
    }

    fn open(client: &PcClient, db: &str, points: &Vec<Vec<f64>>) -> PcResult<Self> {
        Ok(KMeans {
            km: PcKMeans::init(client, db, SET, points, K)?,
        })
    }

    fn client(&self) -> &PcClient {
        &self.km.client
    }

    fn loaded_set(&self) -> (&str, &str) {
        (&self.km.db, SET)
    }

    fn output_set(&self) -> Option<(&str, &str)> {
        // `iterate` collects the k centroids through a temporary set it
        // drops again: nothing is left to gather.
        None
    }

    fn query(&mut self, _tr: &mut Tracer) -> PcResult<(Self::Answer, Option<ClusterStats>)> {
        let prev = self.km.centroids.clone();
        self.km.iterate()?;
        Ok(((prev, self.km.centroids.clone()), None))
    }

    fn check(&mut self, points: &Vec<Vec<f64>>, (prev, got): Self::Answer) -> Result<(), String> {
        let want = lloyd_step(points, &prev);
        if got.len() != want.len() {
            return Err(format!("{} centroids, expected {}", got.len(), want.len()));
        }
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            for (a, b) in g.iter().zip(w) {
                if (a - b).abs() > REL_TOL * b.abs().max(1.0) {
                    return Err(format!("centroid {k}: PC {a} vs reference {b}"));
                }
            }
        }
        Ok(())
    }

    fn baseline_open(points: &Vec<Vec<f64>>) -> BaselineKMeans {
        BaselineKMeans::init(&baseline_engine(), points.clone(), K)
    }

    fn baseline_query(b: &mut BaselineKMeans) {
        b.iterate();
    }
}
