//! Configuration shared by the simulator, engines and experiment harness.
//!
//! Latency defaults are calibrated to the paper's testbed class (InfiniBand
//! EDR, ConnectX-4): one-sided verb latencies of 1–2 µs, RPC handling of
//! about a microsecond of CPU, and local memory operations around 100 ns.
//! Absolute values only scale the reported throughput; the experiments care
//! about the *ratios* (network round trip vs local access), which these
//! defaults preserve.

use crate::time::Duration;

/// Latency and CPU-cost model of the simulated RDMA network.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// One-way latency of a one-sided RDMA verb (READ/WRITE/CAS) between two
    /// distinct machines. Handled by the remote NIC: costs no remote CPU.
    pub one_sided_ns: u64,
    /// One-way latency of an RPC (two-sided send/recv) between machines.
    pub rpc_ns: u64,
    /// Latency of any verb when source and destination are the same machine
    /// (local memory access through the local storage layer).
    pub local_ns: u64,
    /// CPU time the receiving engine spends handling one RPC message
    /// (unmarshalling + dispatch).
    pub rpc_handler_cpu_ns: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            one_sided_ns: 1_500,
            rpc_ns: 1_800,
            local_ns: 100,
            rpc_handler_cpu_ns: 700,
        }
    }
}

impl NetworkConfig {
    /// A classic TCP-like slow network (tens of microseconds per message):
    /// used by ablations that show why contention-centric partitioning
    /// targets *fast* networks specifically.
    pub fn slow_tcp() -> Self {
        NetworkConfig {
            one_sided_ns: 35_000,
            rpc_ns: 35_000,
            local_ns: 100,
            rpc_handler_cpu_ns: 4_000,
        }
    }
}

/// Per-engine execution-cost model and concurrency settings.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum transactions simultaneously open per engine — the paper's
    /// "number of concurrent transactions per warehouse" knob (Figure 9).
    pub concurrency: usize,
    /// CPU time to execute one stored-procedure operation (read/update logic
    /// against local memory, excluding network).
    pub op_cpu_ns: u64,
    /// CPU time to start/finish a transaction (input parsing, logging).
    pub txn_overhead_cpu_ns: u64,
    /// Backoff before retrying an aborted transaction.
    pub retry_backoff: Duration,
    /// Cap on retries per input before the driver gives up and counts a
    /// permanent failure (practically unreachable in the experiments, but
    /// bounds worst-case livelock in adversarial tests).
    pub max_retries: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            concurrency: 1,
            op_cpu_ns: 300,
            txn_overhead_cpu_ns: 1_000,
            retry_backoff: Duration::from_micros(5),
            max_retries: 10_000,
        }
    }
}

/// Replication settings (§5 of the paper).
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Total copies per record (paper's experiments use 2: one primary plus
    /// one replica on a different machine).
    pub degree: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig { degree: 2 }
    }
}

impl ReplicationConfig {
    /// Disable replication entirely (degree 1 = primary only).
    pub fn none() -> Self {
        ReplicationConfig { degree: 1 }
    }

    pub fn replicas(&self) -> usize {
        self.degree.saturating_sub(1)
    }
}

/// Top-level simulation config bundling the model parameters.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    pub network: NetworkConfig,
    pub engine: EngineConfig,
    pub replication: ReplicationConfig,
    /// Seed for all randomness in the run.
    pub seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_fast_network() {
        let n = NetworkConfig::default();
        // Network RTT must dominate local access by >= 10x: the premise of
        // the paper's contention argument (§2).
        assert!(n.one_sided_ns >= 10 * n.local_ns);
        assert!(n.rpc_ns >= n.one_sided_ns);
    }

    #[test]
    fn slow_tcp_much_slower() {
        let fast = NetworkConfig::default();
        let slow = NetworkConfig::slow_tcp();
        assert!(slow.one_sided_ns > 10 * fast.one_sided_ns);
    }

    #[test]
    fn replication_counts() {
        assert_eq!(ReplicationConfig::default().replicas(), 1);
        assert_eq!(ReplicationConfig::none().replicas(), 0);
        assert_eq!(ReplicationConfig { degree: 3 }.replicas(), 2);
    }
}
