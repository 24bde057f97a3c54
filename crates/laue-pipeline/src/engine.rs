//! Engine selection.

use laue_core::gpu::{GpuOptions, Layout, PipelineDepth, Triangulation};

/// Which implementation reconstructs the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The paper's baseline: the prior sequential CPU program.
    CpuSeq,
    /// Row-parallel CPU variant on `threads` OS threads.
    CpuThreaded { threads: usize },
    /// The paper's CUDA design on the simulated device.
    Gpu { layout: Layout },
    /// GPU with host-precomputed depth tables (the paper's
    /// `edge`/`gpuPointArray` design point).
    GpuTables,
    /// k-deep ring-buffered three-stream GPU pipeline (the transfer/compute
    /// overlap ablation; ring depth defaults to 3 and is overridden by
    /// `ReconstructionConfig::pipeline_depth`).
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
            Engine::CpuSeq => "cpu-seq".to_string(),
            Engine::CpuThreaded { threads } => format!("cpu-threaded({threads})"),
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
        self.topology().is_some()
    }

    /// The `(nodes, devices_per_node)` shape this engine runs the one
    /// checkpointed executor on: every single-GPU alias is 1×1,
    /// `gpu-multi:M` is 1×M, `gpu-cluster:NxM` is N×M. `None` for the CPU
    /// engines.
    pub fn topology(&self) -> Option<(usize, usize)> {
        match *self {
            Engine::CpuSeq | Engine::CpuThreaded { .. } => None,
            Engine::Gpu { .. } | Engine::GpuTables | Engine::GpuPipelined => Some((1, 1)),
            Engine::GpuMulti { devices } => Some((1, devices)),
            Engine::GpuCluster {
                nodes,
                devices_per_node,
            } => Some((nodes, devices_per_node)),
        }
    }

    /// The device schedule this engine stands for: kernel options plus ring
    /// depth. `None` for the CPU engines. The serial engines keep the
    /// paper's one-slot pipeline (so `elapsed == comm + compute` holds
    /// exactly); `gpu-pipe` rings [`PipelineDepth::DEFAULT`] slots deep.
    /// `ReconstructionConfig::pipeline_depth` overrides the depth either way.
    pub fn gpu_plan(&self) -> Option<(GpuOptions, PipelineDepth)> {
        let (opts, depth) = match self {
            Engine::CpuSeq | Engine::CpuThreaded { .. } => return None,
            Engine::Gpu { layout } => (
                GpuOptions {
                    layout: *layout,
                    triangulation: Triangulation::InKernel,
                    ..GpuOptions::default()
                },
                PipelineDepth::SERIAL,
            ),
            Engine::GpuTables => (
                GpuOptions {
                    layout: Layout::Flat1d,
                    triangulation: Triangulation::HostTables,
                    ..GpuOptions::default()
                },
                PipelineDepth::SERIAL,
            ),
            Engine::GpuPipelined | Engine::GpuMulti { .. } | Engine::GpuCluster { .. } => (
                GpuOptions {
                    layout: Layout::Flat1d,
                    triangulation: Triangulation::InKernel,
                    ..GpuOptions::default()
                },
                PipelineDepth::DEFAULT,
            ),
        };
        Some((opts, depth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let engines = [
            Engine::CpuSeq,
            Engine::CpuThreaded { threads: 4 },
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
        assert!(!Engine::CpuSeq.is_gpu());
        assert!(Engine::GpuPipelined.is_gpu());
        assert!(Engine::GpuMulti { devices: 2 }.is_gpu());
        assert!(Engine::GpuCluster {
            nodes: 2,
            devices_per_node: 2
        }
        .is_gpu());
    }

    #[test]
    fn every_gpu_alias_names_a_topology() {
        assert_eq!(Engine::CpuSeq.topology(), None);
        assert_eq!(Engine::GpuTables.topology(), Some((1, 1)));
        assert_eq!(Engine::GpuPipelined.topology(), Some((1, 1)));
        assert_eq!(Engine::GpuMulti { devices: 4 }.topology(), Some((1, 4)));
        let cluster = Engine::GpuCluster {
            nodes: 8,
            devices_per_node: 2,
        };
        assert_eq!(cluster.topology(), Some((8, 2)));
    }
}
