//! The paper's Figure 4 flight-booking workload, runnable end to end.
//!
//! Tables: FLIGHT (hot — popular flights are booked concurrently), CUSTOMER,
//! TAX (per-state rate, read-only), SEATS (insert-only). The stored
//! procedure is a faithful transcription of the paper's pseudo-code,
//! including the pk-dep of the seat insert on the flight read and the
//! balance/seats guard.

use chiller::prelude::*;
use chiller_common::ids::OpId;
use chiller_common::rng::Zipf;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

pub const FLIGHT: TableId = TableId(31);
pub const CUSTOMER: TableId = TableId(32);
pub const TAX: TableId = TableId(33);
pub const SEATS: TableId = TableId(34);

// Column indices.
const F_SEATS: usize = 1;
const F_PRICE: usize = 2;
const C_NAME: usize = 1;
const C_STATE: usize = 2;
const C_BALANCE: usize = 3;
const T_RATE: usize = 1;

#[derive(Debug, Clone)]
pub struct FlightConfig {
    pub flights: u64,
    pub customers: u64,
    pub states: u64,
    /// Zipf skew over flights (hot flights sell out first).
    pub theta: f64,
    pub seats_per_flight: i64,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            flights: 50,
            customers: 10_000,
            states: 50,
            theta: 1.1,
            seats_per_flight: 1_000_000, // effectively never sells out
        }
    }
}

impl FlightConfig {
    pub fn schema() -> Schema {
        let mut s = Schema::new();
        s.add(TableDef::new(
            FLIGHT,
            "flight",
            vec!["f_id", "f_seats", "f_price"],
        ));
        s.add(TableDef::new(
            CUSTOMER,
            "customer",
            vec!["c_id", "c_name", "c_state", "c_balance"],
        ));
        s.add(TableDef::new(TAX, "tax", vec!["state", "rate"]));
        s.add(TableDef::new(SEATS, "seats", vec!["cust", "name"]));
        s
    }

    pub fn initial_records(&self) -> Vec<(RecordId, Row)> {
        let mut out = Vec::new();
        for f in 0..self.flights {
            out.push((
                RecordId::new(FLIGHT, f),
                vec![
                    Value::from(f),
                    Value::I64(self.seats_per_flight),
                    Value::F64(100.0 + (f % 17) as f64 * 10.0),
                ],
            ));
        }
        for c in 0..self.customers {
            out.push((
                RecordId::new(CUSTOMER, c),
                vec![
                    Value::from(c),
                    Value::from(format!("cust{c}")),
                    Value::from(c % self.states),
                    Value::F64(1e9),
                ],
            ));
        }
        for s in 0..self.states {
            out.push((
                RecordId::new(TAX, s),
                vec![Value::from(s), Value::F64(0.01 * (s % 10) as f64)],
            ));
        }
        out
    }

    /// Hot set: every flight row (they take all the writes).
    pub fn hot_records(&self) -> Vec<RecordId> {
        (0..self.flights)
            .map(|f| RecordId::new(FLIGHT, f))
            .collect()
    }
}

/// The Figure 4 procedure. Params: `[0]` flight_id, `[1]` cust_id.
///
/// Ops: 0 read flight (for update), 1 read customer (for update),
/// 2 read tax (key from customer.state → pk-dep), 3 decrement seats,
/// 4 deduct balance (v-deps on flight & tax), 5 insert seat (pk-dep on
/// flight: the seat id is the pre-decrement seat count).
pub fn booking_proc() -> chiller_sproc::Procedure {
    ProcedureBuilder::new("BookFlight")
        .read_for_update(FLIGHT, 0, "read flight")
        .read_for_update(CUSTOMER, 1, "read customer")
        .read_with_key_from(TAX, &[OpId(1)], "read tax", |st| {
            st.output_req(OpId(1))[C_STATE].as_i64() as u64
        })
        .update_deps(FLIGHT, 0, &[OpId(0)], "seats -= 1", |row, _| {
            let mut r = row.clone();
            r[F_SEATS] = Value::I64(r[F_SEATS].as_i64() - 1);
            r
        })
        .update_deps(
            CUSTOMER,
            1,
            &[OpId(0), OpId(2)],
            "deduct cost",
            |row, st| {
                let price = st.output_req(OpId(0))[F_PRICE].as_f64();
                let rate = st.output_req(OpId(2))[T_RATE].as_f64();
                let mut r = row.clone();
                r[C_BALANCE] = Value::F64(r[C_BALANCE].as_f64() - price * (1.0 + rate));
                r
            },
        )
        .insert_with_key_from(
            SEATS,
            &[OpId(0)],
            "insert seat",
            |st| {
                let f = st.output_req(OpId(0));
                (f[0].as_i64() as u64) << 32 | f[F_SEATS].as_i64() as u64
            },
            |st| {
                vec![
                    st.params()[1].clone(),
                    st.output_req(OpId(1))[C_NAME].clone(),
                ]
            },
        )
        .value_deps(&[OpId(1)]) // Figure 4: sins has a v-dep on cread
        .hint(|st| st.param_u64(0) << 32)
        .guard(&[OpId(0), OpId(1), OpId(2)], "balance & seats", |st| {
            let f = st.output_req(OpId(0));
            let c = st.output_req(OpId(1));
            let t = st.output_req(OpId(2));
            let cost = f[F_PRICE].as_f64() * (1.0 + t[T_RATE].as_f64());
            if c[C_BALANCE].as_f64() < cost {
                return Err("insufficient balance");
            }
            if f[F_SEATS].as_i64() <= 0 {
                return Err("no seats left");
            }
            Ok(())
        })
        .build()
        .expect("booking procedure is well-formed")
}

pub struct FlightSource {
    proc: usize,
    zipf: Zipf,
    customers: u64,
}

impl FlightSource {
    pub fn new(cfg: &FlightConfig, proc: usize) -> Self {
        FlightSource {
            proc,
            zipf: Zipf::new(cfg.flights as usize, cfg.theta),
            customers: cfg.customers,
        }
    }
}

impl InputSource for FlightSource {
    fn next_input(&mut self, rng: &mut StdRng, _now: SimTime) -> TxnInput {
        let flight = self.zipf.sample(rng) as u64;
        let cust = rng.gen_range(0..self.customers);
        TxnInput {
            proc: self.proc,
            params: vec![Value::from(flight), Value::from(cust)],
        }
    }
}

/// Placement co-locating each flight with its seats (the partitioning
/// Chiller's algorithm produces: a flight's pk-dependent inserts must share
/// its partition for the inner region to be legal).
pub struct FlightPlacement {
    pub partitions: u32,
}

impl Placement for FlightPlacement {
    fn partition_of(&self, record: RecordId) -> PartitionId {
        let group = match record.table {
            FLIGHT => record.key,
            SEATS => record.key >> 32, // flight id prefix
            CUSTOMER | TAX => {
                return chiller_storage::placement::HashPlacement::new(self.partitions)
                    .partition_of(record)
            }
            _ => record.key,
        };
        PartitionId((group % self.partitions as u64) as u32)
    }
}

/// A flight-booking cluster builder: the Figure 4 booking procedure,
/// flights and customers with their placement and hot set, and one
/// [`FlightSource`] per node.
pub fn builder(
    cfg: &FlightConfig,
    nodes: usize,
    protocol: Protocol,
    sim: SimConfig,
) -> ClusterBuilder {
    let mut b = ClusterBuilder::new(FlightConfig::schema(), nodes);
    let proc = b.register_proc(booking_proc());
    let cfg = cfg.clone();
    b.protocol(protocol)
        .config(sim)
        .placement(Arc::new(FlightPlacement {
            partitions: nodes as u32,
        }))
        .hot_records(cfg.hot_records())
        .load(cfg.initial_records())
        .source_per_node(move |_| Box::new(FlightSource::new(&cfg, proc)));
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller::cluster::RunSpec;

    #[test]
    fn booking_graph_matches_figure4() {
        let p = booking_proc();
        // sins pk-dep on fread; tax pk-dep on cread; cupd v-deps only.
        assert_eq!(p.graph.pk_parents[5], vec![OpId(0)]);
        assert_eq!(p.graph.pk_parents[2], vec![OpId(1)]);
        assert!(p.graph.pk_parents[4].is_empty());
        assert_eq!(p.graph.v_parents[4], vec![OpId(0), OpId(2)]);
    }

    #[test]
    fn bookings_run_and_decrement_seats() {
        let cfg = FlightConfig {
            flights: 8,
            customers: 100,
            ..Default::default()
        };
        let mut cluster = builder(&cfg, 4, Protocol::Chiller, SimConfig::default())
            .build()
            .unwrap();
        let report = cluster.run(RunSpec::millis(1, 5));
        assert!(report.total_commits() > 50, "{}", report.summary());
        cluster.quiesce();
        // Seats sold == seats decremented == seat rows inserted.
        let mut sold = 0i64;
        let mut seat_rows = 0usize;
        for engine in cluster.engines() {
            for (_, row) in engine.store().table(FLIGHT).iter() {
                sold += cfg.seats_per_flight - row[F_SEATS].as_i64();
            }
            seat_rows += engine.store().table(SEATS).num_records();
        }
        assert_eq!(sold as usize, seat_rows, "every booking inserts one seat");
        for engine in cluster.engines() {
            assert!(engine.store().all_locks_free());
        }
    }

    #[test]
    fn sells_out_cleanly_with_finite_seats() {
        // A tiny flight inventory: once sold out, the guard aborts further
        // bookings (logic aborts, not contention aborts).
        let cfg = FlightConfig {
            flights: 2,
            customers: 50,
            seats_per_flight: 5,
            theta: 0.0,
            ..Default::default()
        };
        let mut cluster = builder(&cfg, 2, Protocol::Chiller, SimConfig::default())
            .build()
            .unwrap();
        let report = cluster.run(RunSpec::millis(0, 5));
        // At most 10 seats exist.
        assert!(report.total_commits() <= 10);
        cluster.quiesce();
        let mut remaining = 0;
        for engine in cluster.engines() {
            for (_, row) in engine.store().table(FLIGHT).iter() {
                let s = row[F_SEATS].as_i64();
                assert!(s >= 0, "overselling must be impossible");
                remaining += s;
            }
        }
        assert_eq!(remaining as u64 + report.total_commits(), 10);
    }
}
