//! The per-design shared baseline cache.
//!
//! Building a baseline (placement, routing, STA, power model) is the
//! expensive part of every job; a server builds it **once per design**,
//! lazily, and every job over that design shares the result. The cached
//! unit is a whole [`EvalEngine`], not just the snapshot, so concurrent
//! jobs also share the engine's operator-edit and metrics memos —
//! which is bit-safe, because a memo hit returns exactly what a fresh
//! recompute would (pinned by the incremental-equivalence suite).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use gdsii_guard::pipeline::{implement_baseline, EvalEngine, MemoryFootprint, Snapshot};
use gdsii_guard::Error;
use netlist::bench::DesignSpec;
use tech::Technology;

use crate::job::BaselineSummary;

/// An implemented design shared by every job targeting it: the spec it
/// was built from, a ready evaluation engine (which owns the baseline
/// snapshot), and the pre-rendered headline summary.
pub struct DesignContext {
    /// The benchmark spec the baseline was implemented from.
    pub spec: DesignSpec,
    /// Engine over the implemented baseline; [`EvalEngine::base`] is the
    /// baseline snapshot.
    pub engine: EvalEngine,
    /// Headline metrics of the baseline, attached to `baseline` events.
    pub summary: BaselineSummary,
}

impl DesignContext {
    /// The implemented baseline snapshot.
    pub fn base(&self) -> &Snapshot {
        self.engine.base()
    }
}

type Slot = Arc<OnceLock<Result<Arc<DesignContext>, Error>>>;

/// Lazily-built, design-keyed cache of [`DesignContext`]s.
///
/// Each design gets one `OnceLock` slot: the first job to ask performs
/// the build while later askers block on the same slot instead of
/// duplicating the work, and every subsequent hit is a pointer clone.
pub struct BaselineCache {
    tech: Technology,
    slots: Mutex<HashMap<String, Slot>>,
    builds: AtomicU64,
    hits: AtomicU64,
}

impl BaselineCache {
    /// An empty cache implementing baselines against `tech`.
    pub fn new(tech: Technology) -> Self {
        Self {
            tech,
            slots: Mutex::new(HashMap::new()),
            builds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// The technology baselines are implemented against.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// Returns the shared context for `design`, building it on first use.
    ///
    /// Unknown designs and baselines that fail consistency checks are
    /// typed errors; a failed build is cached too, so a bad design fails
    /// fast for every job that names it.
    pub fn get(&self, design: &str) -> Result<Arc<DesignContext>, Error> {
        let slot: Slot = {
            let mut slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(slots.entry(design.to_owned()).or_default())
        };
        let mut built_here = false;
        let outcome = slot.get_or_init(|| {
            built_here = true;
            self.build(design)
        });
        if built_here {
            self.builds.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        outcome.clone()
    }

    /// Summed [`MemoryFootprint`] of every successfully built context —
    /// what the cache currently pins in memory across all designs.
    /// Slots still building are skipped (a non-blocking peek).
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let slots: Vec<Slot> = {
            let slots = self.slots.lock().unwrap_or_else(|p| p.into_inner());
            slots.values().map(Arc::clone).collect()
        };
        let mut total = MemoryFootprint::default();
        for slot in slots {
            if let Some(Ok(ctx)) = slot.get() {
                let m = ctx.engine.memory_footprint();
                total.occupancy_bytes += m.occupancy_bytes;
                total.route_planes_bytes += m.route_planes_bytes;
                total.cache_bytes += m.cache_bytes;
            }
        }
        total
    }

    /// `(builds, hits)` counters: how many contexts were constructed vs
    /// served from cache. `builds` counts failed builds too.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.builds.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
        )
    }

    fn build(&self, design: &str) -> Result<Arc<DesignContext>, Error> {
        let spec = netlist::bench::parse_spec(design)
            .ok_or_else(|| Error::Serve(format!("unknown design '{design}'")))?;
        let base = implement_baseline(&spec, &self.tech)?;
        let summary = BaselineSummary::from_snapshot(&base);
        let engine = EvalEngine::new(&base, &self.tech);
        Ok(Arc::new(DesignContext {
            spec,
            engine,
            summary,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_builds_once_and_counts_hits() {
        let cache = BaselineCache::new(Technology::nangate45_like());
        let a = cache.get("TINY").expect("tiny builds");
        let b = cache.get("TINY").expect("cached");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn unknown_design_is_a_cached_typed_error() {
        let cache = BaselineCache::new(Technology::nangate45_like());
        for _ in 0..2 {
            match cache.get("NOPE") {
                Err(Error::Serve(why)) => assert!(why.contains("NOPE")),
                Err(other) => panic!("expected Serve error, got {other:?}"),
                Ok(_) => panic!("expected Serve error, got a context"),
            }
        }
        assert_eq!(cache.stats(), (1, 1));
    }
}
