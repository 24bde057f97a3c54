//! A cluster of hosts linked by a metered interconnect — the multi-node
//! generalization of [`Host`](crate::Host).
//!
//! One [`Host`](crate::Host) models a chassis: a shared PCIe bus and a
//! host CPU on one discrete-event engine. A cluster is N such chassis plus
//! an [`Interconnect`]: every inter-node message drains through per-node NIC
//! link pools on a dedicated cluster-level engine, charged
//! `latency + bytes / bandwidth` per message, so reduction traffic has a
//! cost and a queue exactly like PCIe transfers do inside a chassis.
//!
//! The NIC model mirrors the PCIe [`Duplex`] discipline one level up:
//!
//! * [`Duplex::Half`] (the default) gives each node *one* link pool used
//!   by both its sends and its receives — a node relaying a reduction
//!   segment stores-and-forwards, which is what the era's single-port
//!   HCAs with shared DMA engines effectively did.
//! * [`Duplex::Full`] gives each node independent tx and rx pools, so a
//!   relay can receive one segment while forwarding another — the
//!   cut-through pipelining a switched fabric provides.
//!
//! A message from `u` to `v` occupies `u`'s tx pool for its full duration
//! and then `v`'s rx pool for the same duration starting no earlier than
//! the send began; uncontended messages therefore arrive at exactly
//! `ready + latency + bytes/bandwidth`, while a busy receiver pushes the
//! arrival (and the sender's next slot) out — receiver backpressure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::host::Duplex;
use crate::sim::{Engine, ResourceId};

/// Performance model for an inter-node link: era-named presets live in
/// `laue_bench::devices` next to the GPU matrix; the raw constructors are
/// here so non-bench crates can build a fabric without that dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct InterconnectProps {
    /// Name for traces, reports, and CLI selection.
    pub name: String,
    /// Sustained per-link bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
    /// Per-message launch latency in seconds (rendezvous + DMA setup).
    pub latency_s: f64,
    /// NIC discipline (see module docs).
    pub duplex: Duplex,
}

impl InterconnectProps {
    /// InfiniBand QDR 4× (2010-era): ~4 GB/s per link, ~1.3 µs.
    pub fn ib_qdr() -> InterconnectProps {
        InterconnectProps {
            name: "ib-qdr".to_string(),
            bandwidth_bytes_per_s: 4.0e9,
            latency_s: 1.3e-6,
            duplex: Duplex::Full,
        }
    }

    /// InfiniBand FDR 4× (2013-era): ~7 GB/s per link, ~0.7 µs.
    pub fn ib_fdr() -> InterconnectProps {
        InterconnectProps {
            name: "ib-fdr".to_string(),
            bandwidth_bytes_per_s: 7.0e9,
            latency_s: 0.7e-6,
            duplex: Duplex::Full,
        }
    }

    /// NVLink-class fabric (what the what-if studies extrapolate to):
    /// ~20 GB/s per link, ~0.5 µs.
    pub fn nvlink_class() -> InterconnectProps {
        InterconnectProps {
            name: "nvlink".to_string(),
            bandwidth_bytes_per_s: 20.0e9,
            latency_s: 0.5e-6,
            duplex: Duplex::Full,
        }
    }

    /// Gigabit Ethernet (the beamline-cluster floor of the paper's era):
    /// ~117 MB/s effective, ~50 µs, single-pool NIC.
    pub fn gige() -> InterconnectProps {
        InterconnectProps {
            name: "gige".to_string(),
            bandwidth_bytes_per_s: 0.117e9,
            latency_s: 50.0e-6,
            duplex: Duplex::Half,
        }
    }

    /// Resolve a preset by its `name` field. Unknown names return `None`.
    pub fn by_name(name: &str) -> Option<InterconnectProps> {
        [
            InterconnectProps::ib_qdr(),
            InterconnectProps::ib_fdr(),
            InterconnectProps::nvlink_class(),
            InterconnectProps::gige(),
        ]
        .into_iter()
        .find(|p| p.name == name)
    }

    /// Modeled occupancy of one message of `bytes` on one link pool.
    pub fn message_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bytes_per_s
    }
}

/// One delivered inter-node message: where it actually sat on the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// When the sender's NIC actually started transmitting.
    pub start: f64,
    /// When the last byte cleared the receiver's NIC.
    pub arrival: f64,
    /// Seconds queued beyond the uncontended time
    /// (`arrival - ready - message_time`).
    pub wait_s: f64,
}

/// The metered inter-node fabric: one link pool per node (two under
/// [`Duplex::Full`]) on a dedicated cluster-level engine.
#[derive(Debug)]
pub struct Interconnect {
    engine: Arc<Engine>,
    props: InterconnectProps,
    tx: Vec<ResourceId>,
    rx: Vec<ResourceId>,
    sent_bytes: AtomicU64,
    messages: AtomicU64,
}

impl Interconnect {
    /// Build a fabric linking `n_nodes` nodes under `props`.
    pub fn new(name: &str, n_nodes: usize, props: InterconnectProps) -> Arc<Interconnect> {
        assert!(n_nodes > 0, "a fabric needs at least one node");
        let engine = Arc::new(Engine::new());
        let mut tx = Vec::with_capacity(n_nodes);
        let mut rx = Vec::with_capacity(n_nodes);
        for i in 0..n_nodes {
            let t = engine.shared(&format!("{name}/node{i}-tx"));
            tx.push(t);
            rx.push(match props.duplex {
                Duplex::Half => t,
                Duplex::Full => engine.shared(&format!("{name}/node{i}-rx")),
            });
        }
        Arc::new(Interconnect {
            engine,
            props,
            tx,
            rx,
            sent_bytes: AtomicU64::new(0),
            messages: AtomicU64::new(0),
        })
    }

    /// The link performance model.
    pub fn props(&self) -> &InterconnectProps {
        &self.props
    }

    /// Number of nodes on the fabric.
    pub fn n_nodes(&self) -> usize {
        self.tx.len()
    }

    /// Deliver `bytes` from node `from` to node `to`, ready to transmit at
    /// `ready` virtual seconds. The message occupies the sender's tx pool
    /// and then the receiver's rx pool (same pool under half duplex);
    /// uncontended delivery is exactly `ready + message_time(bytes)`.
    ///
    /// Grants commit in call order, so callers that need a deterministic
    /// schedule must issue sends in a deterministic order.
    pub fn send(&self, from: usize, to: usize, bytes: u64, ready: f64) -> Delivery {
        assert!(
            from < self.tx.len() && to < self.tx.len(),
            "node off fabric"
        );
        assert_ne!(from, to, "loopback never touches the fabric");
        let dur = self.props.message_time(bytes);
        let (tx_start, _tx_end) =
            self.engine
                .shared_acquire(self.tx[from], from as u64, "net-tx", ready, dur);
        let (_rx_start, arrival) =
            self.engine
                .shared_acquire(self.rx[to], to as u64, "net-rx", tx_start, dur);
        self.sent_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
        Delivery {
            start: tx_start,
            arrival,
            wait_s: (arrival - ready - dur).max(0.0),
        }
    }

    /// Committed link-busy seconds of one node's NIC (both pools under
    /// full duplex).
    pub fn link_busy_s(&self, node: usize) -> f64 {
        match self.props.duplex {
            Duplex::Half => self.engine.busy_s(self.tx[node]),
            Duplex::Full => self.engine.busy_s(self.tx[node]) + self.engine.busy_s(self.rx[node]),
        }
    }

    /// Total bytes delivered across the fabric.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes.load(Ordering::Relaxed)
    }

    /// Total messages delivered across the fabric.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(duplex: Duplex) -> Arc<Interconnect> {
        Interconnect::new(
            "t",
            4,
            InterconnectProps {
                name: "unit".to_string(),
                bandwidth_bytes_per_s: 1000.0,
                latency_s: 0.5,
                duplex,
            },
        )
    }

    #[test]
    fn uncontended_message_time_is_latency_plus_bytes_over_bandwidth() {
        let net = fabric(Duplex::Half);
        let d = net.send(1, 0, 1000, 2.0);
        assert_eq!(d.start, 2.0);
        assert_eq!(d.arrival, 2.0 + 0.5 + 1.0);
        assert_eq!(d.wait_s, 0.0);
        assert_eq!(net.sent_bytes(), 1000);
        assert_eq!(net.messages(), 1);
    }

    #[test]
    fn half_duplex_nic_serializes_send_and_receive() {
        let net = fabric(Duplex::Half);
        // Node 1 receives 1.5 s of traffic, then wants to forward at t=0:
        // its single pool is busy until 1.5, so the forward queues.
        net.send(2, 1, 1000, 0.0);
        let d = net.send(1, 0, 1000, 0.0);
        assert_eq!(d.start, 1.5, "store-and-forward on the shared pool");
        assert_eq!(d.arrival, 3.0);
        assert_eq!(d.wait_s, 1.5);
    }

    #[test]
    fn full_duplex_nic_receives_while_forwarding() {
        let net = fabric(Duplex::Full);
        net.send(2, 1, 1000, 0.0);
        let d = net.send(1, 0, 1000, 0.0);
        assert_eq!(d.start, 0.0, "tx pool is independent of the rx pool");
        assert_eq!(d.arrival, 1.5);
    }

    #[test]
    fn busy_receiver_pushes_the_arrival_out() {
        let net = fabric(Duplex::Full);
        let a = net.send(1, 0, 1000, 0.0);
        let b = net.send(2, 0, 1000, 0.0);
        assert_eq!(a.arrival, 1.5);
        // Sender 2's tx pool is free, but node 0's rx pool is occupied
        // until 1.5 — the root link is the gather bottleneck.
        assert_eq!(b.arrival, 3.0);
        assert_eq!(b.wait_s, 1.5);
        assert_eq!(net.link_busy_s(0), 3.0);
    }

    #[test]
    fn presets_resolve_by_name() {
        for p in ["ib-qdr", "ib-fdr", "nvlink", "gige"] {
            let props = InterconnectProps::by_name(p).unwrap();
            assert_eq!(props.name, p);
            assert!(props.bandwidth_bytes_per_s > 0.0);
        }
        assert!(InterconnectProps::by_name("token-ring").is_none());
    }
}
