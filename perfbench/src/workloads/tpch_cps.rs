//! `tpch_cps` — TPC-H customers-per-supplier over nested
//! Customer → Order → LineItem objects (the paper's Table 3 query).
//!
//! Why: object allocation, cross-block deep copies, String-keyed nested-map
//! aggregation and the aggregation shuffle do most of the work. Changes to
//! the type registry, the allocator or the aggregation sink show here
//! first. It should not spill.

use crate::harness::{baseline_engine, cluster_config, Workload};
use crate::trace::Tracer;
use plinycompute::baseline::Rdd;
use plinycompute::prelude::*;
use plinycompute::tpch::baseline_impl::{self, BCustomer};
use plinycompute::tpch::gen::{generate, CustomerData, TpchConfig};
use plinycompute::tpch::pc_impl::{self, SupplierCustomers, SupplierInfo};

const CUSTOMERS: usize = 4000;
const SET: &str = "customers";

pub struct Input {
    data: Vec<CustomerData>,
    /// `baseline_impl::customers_per_supplier` on the same instance: every
    /// PC answer must equal it.
    expected: Vec<(String, usize)>,
}

pub struct TpchCps {
    client: PcClient,
    db: String,
}

impl Workload for TpchCps {
    const NAME: &'static str = "tpch_cps";
    type Hot = SupplierInfo;
    type Out = SupplierCustomers;
    type Input = Input;
    type Answer = Vec<(String, usize)>;
    type Baseline = Rdd<BCustomer>;

    fn generate(seed: u64) -> Input {
        let data = generate(&TpchConfig {
            customers: CUSTOMERS,
            seed,
            ..TpchConfig::default()
        });
        let rdd = baseline_engine().parallelize(baseline_impl::to_rows(&data));
        let expected = baseline_impl::customers_per_supplier(&rdd);
        Input { data, expected }
    }

    fn shape(input: &Input) -> Vec<(&'static str, u64)> {
        let cfg = TpchConfig::default();
        vec![
            ("customers", input.data.len() as u64),
            ("orders_per_customer", cfg.orders_per_customer as u64),
            ("lines_per_order", cfg.lines_per_order as u64),
            ("parts", cfg.parts as u64),
            ("suppliers", cfg.suppliers as u64),
        ]
    }

    fn config(_input: &Input) -> ClusterConfig {
        cluster_config(1 << 20, 1024, 1 << 30)
    }

    fn records(input: &Input) -> u64 {
        input.data.len() as u64
    }

    fn open(client: &PcClient, db: &str, input: &Input) -> PcResult<Self> {
        pc_impl::load(client, db, SET, &input.data)?;
        Ok(TpchCps {
            client: client.clone(),
            db: db.to_string(),
        })
    }

    fn client(&self) -> &PcClient {
        &self.client
    }

    fn loaded_set(&self) -> (&str, &str) {
        (&self.db, SET)
    }

    fn output_set(&self) -> Option<(&str, &str)> {
        // The library query leaves its result in this set.
        Some((&self.db, "cps_out"))
    }

    fn query(&mut self, _tr: &mut Tracer) -> PcResult<(Self::Answer, Option<ClusterStats>)> {
        Ok((
            pc_impl::customers_per_supplier(&self.client, &self.db, SET)?,
            None,
        ))
    }

    fn check(&mut self, input: &Input, answer: Self::Answer) -> Result<(), String> {
        if answer != input.expected {
            return Err(format!(
                "customers_per_supplier: {} suppliers, baseline has {}; first difference at {:?}",
                answer.len(),
                input.expected.len(),
                answer.iter().zip(&input.expected).position(|(a, b)| a != b)
            ));
        }
        Ok(())
    }

    /// The full nested result (supplier → customer → part ids) must equal
    /// the baseline's.
    fn full_check(&mut self, input: &Input) -> Result<(), String> {
        let pc = pc_impl::customers_per_supplier_full(&self.client, &self.db)
            .map_err(|e| e.to_string())?;
        let rdd = baseline_engine().parallelize(baseline_impl::to_rows(&input.data));
        if pc != baseline_impl::customers_per_supplier_full(&rdd) {
            return Err("customers_per_supplier_full differs from the baseline".into());
        }
        Ok(())
    }

    fn baseline_open(input: &Input) -> Rdd<BCustomer> {
        baseline_engine().parallelize(baseline_impl::to_rows(&input.data))
    }

    fn baseline_query(rdd: &mut Rdd<BCustomer>) {
        std::hint::black_box(baseline_impl::customers_per_supplier(rdd));
    }
}
