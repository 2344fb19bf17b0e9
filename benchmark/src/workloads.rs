//! The workload table and the seeded input generator.
//!
//! The program under test only ever sees `--input FILE` (and, for BFS,
//! the `--src` vertex of that file): the seed and the generator
//! parameters stay in the harness.

use pc_bsp::topology::mix64;
use pc_graph::gen::{self, RmatParams};
use pc_graph::{io, Graph, VertexId};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Ranks of every multi-process workload. Fixed, not derived from
/// `nproc`, so numbers compare across machines.
pub const RANKS: usize = 2;

/// What the generator builds. Two workloads with equal `Input`s share
/// one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// R-MAT over `2^scale` vertices, `edge_factor << scale` samples.
    Rmat {
        scale: u32,
        edge_factor: usize,
        directed: bool,
    },
    /// An undirected path over `2^log_n` vertices whose labels are a
    /// seeded permutation; BFS starts from one endpoint.
    Path { log_n: u32 },
}

impl Input {
    /// The generator parameters as a file-name stem.
    pub fn stem(&self) -> String {
        match *self {
            Input::Rmat {
                scale,
                edge_factor,
                directed,
            } => format!(
                "rmat-s{scale}-e{edge_factor}-{}",
                if directed { "dir" } else { "und" }
            ),
            Input::Path { log_n } => format!("path-n{log_n}"),
        }
    }

    pub fn directed(&self) -> bool {
        matches!(self, Input::Rmat { directed: true, .. })
    }

    /// Build the graph for `seed`, plus the BFS source when there is one.
    pub fn build(&self, seed: u64) -> (Graph, Option<VertexId>) {
        match *self {
            Input::Rmat {
                scale,
                edge_factor,
                directed,
            } => (
                gen::rmat(
                    scale,
                    edge_factor << scale,
                    RmatParams::default(),
                    seed,
                    directed,
                ),
                None,
            ),
            Input::Path { log_n } => {
                let n = 1usize << log_n;
                let mut label: Vec<VertexId> = (0..n as VertexId).collect();
                // Fisher-Yates driven by the engine's own 64-bit mixer.
                for i in (1..n).rev() {
                    let j = (mix64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64)
                        % (i as u64 + 1)) as usize;
                    label.swap(i, j);
                }
                let edges: Vec<_> = label.windows(2).map(|w| (w[0], w[1])).collect();
                (Graph::from_edges(n, &edges, false), Some(label[0]))
            }
        }
    }
}

/// One benchmark workload: an input and the `pcgraph` command line run
/// on it.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: the layer it isolates.
    pub why: &'static str,
    pub input: Input,
    /// `pcgraph` algorithm and its algorithm/placement flags.
    pub algo: &'static [&'static str],
    /// `true`: `--ranks 2 --transport tcp-batched`; `false`: the
    /// in-process `--workers 1` baseline.
    pub multi_rank: bool,
    /// `--checkpoint-every N` into a fresh directory per rep.
    pub ckpt_every: Option<u32>,
}

impl Workload {
    pub fn workers(&self) -> usize {
        if self.multi_rank {
            RANKS
        } else {
            1
        }
    }
}

const DENSE: Input = Input::Rmat {
    scale: 18,
    edge_factor: 9,
    directed: true,
};

pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "pr_dense",
        why: "dense PageRank, every edge every superstep, 31 rounds: algos kernels, core serialize+combine and bsp wire bytes; per-round fixed cost invisible",
        input: DENSE,
        algo: &["pagerank", "--directed", "--iters", "30"],
        multi_rank: true,
        ckpt_every: None,
    },
    Workload {
        name: "pr_dense_1w",
        why: "same file, --workers 1 in-process: the plain single-worker baseline that bypasses dist, TCP and the barrier",
        input: DENSE,
        algo: &["pagerank", "--directed", "--iters", "30"],
        multi_rank: false,
        ckpt_every: None,
    },
    Workload {
        name: "pr_dense_ckpt",
        why: "pr_dense plus --checkpoint-every 5: same compute with ckpt's fsync'd segments and manifest commits beside it",
        input: DENSE,
        algo: &["pagerank", "--directed", "--iters", "30"],
        multi_rank: true,
        ckpt_every: Some(5),
    },
    Workload {
        name: "bfs_chain",
        why: "BFS down a label-permuted path: ~2^17 rounds of at most one message, so bsp per-round cost is the whole run",
        input: Input::Path { log_n: 17 },
        algo: &["bfs"],
        multi_rank: true,
        ckpt_every: None,
    },
    Workload {
        name: "sv_compose",
        why: "Shiloach-Vishkin with reqresp + scatter-combine composed, the paper's headline: core/optimized channel code dominates",
        input: Input::Rmat {
            scale: 18,
            edge_factor: 8,
            directed: false,
        },
        algo: &["sv"],
        multi_rank: true,
        ckpt_every: None,
    },
    Workload {
        name: "wcc_skew_mirror",
        why: "mirrored WCC under degree-sorted LDG on the most skewed input: graph load/partition/mirror plan and dist slice/ship do the most set-up work",
        input: Input::Rmat {
            scale: 17,
            edge_factor: 32,
            directed: false,
        },
        algo: &[
            "wcc",
            "--variant",
            "mirror",
            "--partitioner",
            "ldg-deg",
            "--mirror-threshold",
            "auto",
        ],
        multi_rank: true,
        ckpt_every: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A generated input on disk.
#[derive(Debug, Clone)]
pub struct Generated {
    pub path: PathBuf,
    pub src: Option<VertexId>,
    /// Seconds spent generating and writing; 0 when the file was reused.
    pub gen_s: f64,
}

/// Make `input`'s file for `seed` under `dir`, reusing it when it is
/// already there. Files of the same generator parameters under another
/// seed are removed first, so a sweep over seeds does not fill the disk.
pub fn generate(input: &Input, seed: u64, dir: &Path) -> std::io::Result<Generated> {
    let stem = input.stem();
    let path = dir.join(format!("{stem}-seed{seed}.txt"));
    let src_path = path.with_extension("src");
    if path.exists() && src_path.exists() {
        let src = std::fs::read_to_string(&src_path)?.trim().parse().ok();
        return Ok(Generated {
            path,
            src,
            gen_s: 0.0,
        });
    }
    let other_seeds = format!("{stem}-seed");
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with(&other_seeds) {
            std::fs::remove_file(&p)?;
        }
    }
    let t = Instant::now();
    let (g, src) = input.build(seed);
    io::write_edge_list(&g, &path)?;
    // Written last: its presence marks the edge list complete.
    std::fs::write(&src_path, src.map(|s| s.to_string()).unwrap_or_default())?;
    Ok(Generated {
        path,
        src,
        gen_s: t.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pc_benchmark_{}_{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const SMALL: [Input; 3] = [
        Input::Rmat {
            scale: 8,
            edge_factor: 4,
            directed: true,
        },
        Input::Rmat {
            scale: 8,
            edge_factor: 4,
            directed: false,
        },
        Input::Path { log_n: 8 },
    ];

    /// Same seed, byte-identical file (and BFS source); another seed,
    /// another file.
    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let (a, b) = (scratch("seed_a"), scratch("seed_b"));
        for input in &SMALL {
            let bytes = |g: &Generated| std::fs::read(&g.path).unwrap();
            let first = generate(input, 7, &a).unwrap();
            let again = generate(input, 7, &b).unwrap();
            assert_eq!(bytes(&first), bytes(&again), "{input:?}");
            assert_eq!(first.src, again.src);
            let other = generate(input, 8, &b).unwrap();
            assert_ne!(bytes(&first), bytes(&other), "{input:?}");
        }
        for dir in [a, b] {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    /// A present file is reused, not regenerated; a new seed replaces the
    /// old seed's file of the same generator parameters.
    #[test]
    fn inputs_are_reused_until_the_seed_changes() {
        let dir = scratch("reuse");
        let input = &SMALL[2];
        let first = generate(input, 1, &dir).unwrap();
        assert!(first.gen_s > 0.0);
        let reused = generate(input, 1, &dir).unwrap();
        assert_eq!(
            (reused.gen_s, reused.src, &reused.path),
            (0.0, first.src, &first.path)
        );
        let next = generate(input, 2, &dir).unwrap();
        assert!(next.path.exists() && !first.path.exists());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The path really is one: a single chain from the reported source.
    #[test]
    fn permuted_path_is_a_chain_from_its_source() {
        let (g, src) = Input::Path { log_n: 6 }.build(3);
        let src = src.unwrap();
        assert_eq!((g.n(), g.edge_count(), g.degree(src)), (64, 63, 1));
        assert_eq!(g.vertices().filter(|&v| g.degree(v) == 1).count(), 2);
    }

    #[test]
    fn workload_names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert!(std::ptr::eq(find(w.name).unwrap(), w));
        }
        assert!(find("nope").is_none());
    }
}
