//! Engine selection.

use laue_core::gpu::{GpuOptions, Layout, PipelineDepth, Triangulation};
use laue_core::planner::{Pins, Plan};

/// Which implementation reconstructs the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The host engine on `threads` OS threads, one row band each; one
    /// thread is the paper's baseline, the prior sequential CPU program,
    /// and 0 means one thread per available host core.
    Cpu { threads: usize },
    /// The paper's CUDA design on the simulated device.
    Gpu { layout: Layout },
    /// GPU with host-precomputed depth tables (the paper's
    /// `edge`/`gpuPointArray` design point).
    GpuTables,
    /// k-deep ring-buffered three-stream GPU pipeline (the transfer/compute
    /// overlap ablation; ring depth 3 unless `Pipeline::pins` pins
    /// another).
    GpuPipelined,
    /// A fleet of `devices` simulated GPUs, one row band each, every device
    /// running the k-deep ring pipeline. A device that dies mid-run has its
    /// unfinished rows requeued onto the survivors.
    GpuMulti { devices: usize },
    /// `nodes` chassis of `devices_per_node` GPUs each, linked by a metered
    /// interconnect: row bands shard across nodes, each node runs the fleet
    /// engine inside its own PCIe domain, and the depth image gathers back
    /// to the head node over tree or ring routes. A node whose devices all
    /// die has its rows re-banded onto the surviving nodes.
    GpuCluster {
        nodes: usize,
        devices_per_node: usize,
    },
}

impl Engine {
    /// Short label for reports and bench output.
    pub fn label(&self) -> String {
        match self {
            Engine::Cpu { threads: 1 } => "cpu-seq".to_string(),
            Engine::Cpu { threads } => format!("cpu-threaded({threads})"),
            Engine::Gpu {
                layout: Layout::Flat1d,
            } => "gpu-1d".to_string(),
            Engine::Gpu {
                layout: Layout::Pointer3d,
            } => "gpu-3d".to_string(),
            Engine::GpuTables => "gpu-tables".to_string(),
            Engine::GpuPipelined => "gpu-pipe".to_string(),
            Engine::GpuMulti { devices } => format!("gpu-multi({devices})"),
            Engine::GpuCluster {
                nodes,
                devices_per_node,
            } => format!("gpu-cluster({nodes}x{devices_per_node})"),
        }
    }

    /// Does this engine run on the simulated device?
    pub fn is_gpu(&self) -> bool {
        !matches!(self, Engine::Cpu { .. })
    }

    /// The fixed [`Plan`] this alias names; `None` for the CPU engines.
    /// Every single-GPU alias is 1×1, `gpu-multi:M` is 1×M and
    /// `gpu-cluster:NxM` is N×M. The serial engines keep the paper's
    /// one-slot pipeline (so `elapsed == comm + compute` holds exactly);
    /// `gpu-pipe`, `gpu-multi` and `gpu-cluster` ring
    /// [`PipelineDepth::DEFAULT`] slots deep. [`Plan::fixed`] applies
    /// `pins`.
    pub fn plan(&self, pins: Pins) -> Option<Plan> {
        let flat = GpuOptions::default();
        let tables = GpuOptions {
            triangulation: Triangulation::HostTables,
            ..flat
        };
        let (nodes, devices, options, depth) = match *self {
            Engine::Cpu { .. } => return None,
            Engine::Gpu { layout } => (1, 1, GpuOptions { layout, ..flat }, PipelineDepth::SERIAL),
            Engine::GpuTables => (1, 1, tables, PipelineDepth::SERIAL),
            Engine::GpuPipelined => (1, 1, flat, PipelineDepth::DEFAULT),
            Engine::GpuMulti { devices } => (1, devices, flat, PipelineDepth::DEFAULT),
            Engine::GpuCluster {
                nodes,
                devices_per_node,
            } => (nodes, devices_per_node, flat, PipelineDepth::DEFAULT),
        };
        Some(Plan::fixed(nodes, devices, options, depth, pins))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let engines = [
            Engine::Cpu { threads: 1 },
            Engine::Cpu { threads: 4 },
            Engine::Gpu {
                layout: Layout::Flat1d,
            },
            Engine::Gpu {
                layout: Layout::Pointer3d,
            },
            Engine::GpuTables,
            Engine::GpuPipelined,
            Engine::GpuMulti { devices: 4 },
            Engine::GpuCluster {
                nodes: 4,
                devices_per_node: 1,
            },
        ];
        let labels: Vec<String> = engines.iter().map(|e| e.label()).collect();
        for i in 0..labels.len() {
            for j in i + 1..labels.len() {
                assert_ne!(labels[i], labels[j]);
            }
        }
        assert!(!Engine::Cpu { threads: 1 }.is_gpu());
        assert!(Engine::GpuPipelined.is_gpu());
        assert!(Engine::GpuMulti { devices: 2 }.is_gpu());
        assert!(Engine::GpuCluster {
            nodes: 2,
            devices_per_node: 2
        }
        .is_gpu());
    }

    #[test]
    fn every_gpu_alias_names_a_plan() {
        let shape = |e: Engine, pins: Pins| {
            e.plan(pins)
                .map(|p| (p.nodes, p.devices, p.options.triangulation, p.depth.0))
        };
        let none = Pins::default();
        assert_eq!(shape(Engine::Cpu { threads: 1 }, none), None);
        assert_eq!(
            shape(Engine::GpuTables, none),
            Some((1, 1, Triangulation::HostTables, 1))
        );
        assert_eq!(
            shape(Engine::GpuPipelined, none),
            Some((1, 1, Triangulation::InKernel, 3))
        );
        assert_eq!(
            shape(Engine::GpuMulti { devices: 4 }, none),
            Some((1, 4, Triangulation::InKernel, 3))
        );
        let cluster = Engine::GpuCluster {
            nodes: 8,
            devices_per_node: 2,
        };
        assert_eq!(
            shape(cluster, none),
            Some((8, 2, Triangulation::InKernel, 3))
        );
        // A pinned ring depth applies to every alias…
        let k2 = Pins {
            depth: Some(PipelineDepth(2)),
            ..none
        };
        assert_eq!(
            shape(Engine::GpuTables, k2),
            Some((1, 1, Triangulation::HostTables, 2))
        );
        assert_eq!(shape(cluster, k2), Some((8, 2, Triangulation::InKernel, 2)));
        // …so do pinned slab rows, reduction routing and overlap.
        let ring = Pins {
            rows: Some(5),
            topology: Some(laue_core::ReductionTopology::Ring),
            overlap: Some(false),
            ..none
        };
        let pinned = cluster.plan(ring).unwrap();
        assert_eq!(pinned.reduction.label(), "ring+barrier");
        assert_eq!(pinned.rows_per_slab, Some(5));
        // Aliases of one shape name one plan, and one node keeps tree.
        let rows5 = Pins {
            rows: Some(5),
            ..none
        };
        let one = Engine::GpuPipelined.plan(rows5);
        assert_eq!(Engine::GpuMulti { devices: 1 }.plan(rows5), one);
        let c11 = Engine::GpuCluster {
            nodes: 1,
            devices_per_node: 1,
        };
        assert_eq!(c11.plan(ring), one);
    }
}
