//! In-process shard workers: one [`Engine`] per shard.
//!
//! Each shard engine is an independent `serve::Engine` with its own
//! ingest queue, snapshot chain, epoch counter and (when a WAL root is
//! configured) its own WAL namespace `<root>/shard-<k>/`. The engine
//! for shard `k` sees a vertex space of exactly the plan's slice `k`,
//! addressed by shard-local ids `0..shard_len(k)`.
//!
//! This is the backend behind `afforest serve <graph> --shards N`: all
//! shards live in the serving process (one writer thread each), so a
//! single process gets per-shard epoch publication — smaller slices
//! mean proportionally cheaper snapshot publication per shard.

use std::sync::Arc;
use std::time::Duration;

use afforest_core::IncrementalCc;
use afforest_graph::Node;
use afforest_serve::{wal, Engine, Request, Response, ServeConfig, ServeError, TenantId, Wal};

use crate::backend::{ShardBackend, ShardUnavailable};
use crate::plan::ShardPlan;

/// All shard engines hosted in the current process.
pub struct LocalCluster {
    engines: Vec<Arc<Engine>>,
}

impl LocalCluster {
    /// Starts one engine per plan shard. `seeds[k]` (shard-local ids)
    /// pre-populates shard `k`; missing entries mean an empty shard.
    ///
    /// When `config.wal_root` is set, shard `k` logs to
    /// `<root>/shard-<k>/` and an existing namespace is recovered
    /// before the engine starts, so a restarted cluster resumes where
    /// it crashed.
    pub fn new(
        plan: &ShardPlan,
        seeds: &[Vec<(Node, Node)>],
        config: &ServeConfig,
    ) -> Result<LocalCluster, ServeError> {
        let mut engines = Vec::with_capacity(plan.num_shards());
        for k in 0..plan.num_shards() {
            let n_k = plan.shard_len(k);
            let seed: &[(Node, Node)] = seeds.get(k).map(Vec::as_slice).unwrap_or(&[]);
            let tenant = TenantId::new(&shard_tenant_name(k)).map_err(|_| ServeError::Spawn {
                what: "shard tenant id",
            })?;
            // A shard's seed is an edge list, not a CSR: link it as one
            // batch, and replay any log onto that forest.
            let mut cc = IncrementalCc::new(n_k);
            cc.insert_batch(seed);
            let (cc, shard_wal) = match &config.wal_root {
                Some(root) => {
                    let dir = root.join(shard_tenant_name(k));
                    let cc = if wal::exists(&dir) {
                        wal::recover(&dir, Some(cc))?.cc
                    } else {
                        cc
                    };
                    let w = Wal::open(&dir, n_k, config.wal_snapshot_every)?;
                    (cc, Some(w))
                }
                None => (cc, None),
            };
            engines.push(Arc::new(Engine::standalone(tenant, cc, config, shard_wal)?));
        }
        Ok(LocalCluster { engines })
    }

    /// The shard engines, indexed by shard id.
    pub fn engines(&self) -> &[Arc<Engine>] {
        &self.engines
    }
}

/// The tenant (and WAL directory) name for shard `k`: `shard-<k>`.
pub fn shard_tenant_name(k: usize) -> String {
    format!("shard-{k}")
}

impl ShardBackend for LocalCluster {
    fn num_shards(&self) -> usize {
        self.engines.len()
    }

    fn call(&self, shard: usize, req: &Request) -> Result<Response, ShardUnavailable> {
        let Some(engine) = self.engines.get(shard) else {
            return Err(ShardUnavailable::Dead {
                shard,
                reason: "no such shard".into(),
            });
        };
        Ok(match req {
            Request::Stats => Response::Stats(engine.stats_report(1)),
            other => engine.handle(other),
        })
    }

    fn flush(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        self.engines.iter().all(|e| {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            e.flush(left)
        })
    }

    fn shutdown(&self) {
        for e in &self.engines {
            e.join_writer();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ServeConfig {
        ServeConfig::builder().build().unwrap()
    }

    #[test]
    fn shards_answer_in_local_ids() {
        let plan = ShardPlan::new(8, 2);
        let cluster = LocalCluster::new(&plan, &[], &config()).unwrap();
        assert_eq!(cluster.num_shards(), 2);
        match cluster.call(1, &Request::InsertEdges(vec![(0, 3)])) {
            Ok(Response::Accepted { edges }) => assert_eq!(edges, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(cluster.flush(Duration::from_secs(5)));
        // Local vertices 0 and 3 of shard 1 are globals 4 and 7.
        match cluster.call(1, &Request::Connected(0, 3)) {
            Ok(Response::Connected(b)) => assert!(b),
            other => panic!("unexpected {other:?}"),
        }
        // Shard 0 is untouched.
        match cluster.call(0, &Request::NumComponents) {
            Ok(Response::NumComponents(c)) => assert_eq!(c, 4),
            other => panic!("unexpected {other:?}"),
        }
        cluster.shutdown();
    }

    #[test]
    fn stats_is_special_cased() {
        let plan = ShardPlan::new(8, 2);
        let cluster = LocalCluster::new(&plan, &[], &config()).unwrap();
        match cluster.call(0, &Request::Stats) {
            Ok(Response::Stats(s)) => assert_eq!(s.vertices, 4),
            other => panic!("unexpected {other:?}"),
        }
        cluster.shutdown();
    }

    #[test]
    fn unknown_shard_is_typed_dead() {
        let plan = ShardPlan::new(8, 2);
        let cluster = LocalCluster::new(&plan, &[], &config()).unwrap();
        match cluster.call(7, &Request::NumComponents) {
            Err(ShardUnavailable::Dead { shard: 7, .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
        cluster.shutdown();
    }
}
