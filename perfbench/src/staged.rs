//! The library's two evaluation paths re-composed from their layers'
//! public calls, each call timed into a [`Trace`]:
//!
//! - [`implement_baseline`] mirrors
//!   `pipeline::implement_baseline_unchecked`;
//! - [`StagedEngine::metrics`] mirrors `FlowRun::engine(..).metrics()`,
//!   including the engine's two memos (operator edits keyed by
//!   `(op, operator seed)`, metrics keyed by `(op, operator seed, scale
//!   bits)`), so a replay does the same layer work the engine did.
//!
//! Both are checked bit for bit against the library after every traced
//! run; a mismatch means the composition drifted from the code it
//! claims to measure.

use std::collections::HashMap;
use std::sync::Arc;

use gdsii_guard::cell_shift::cell_shift;
use gdsii_guard::lda::{local_density_adjustment, LdaParams};
use gdsii_guard::{preprocess, EvalEngine, FlowConfig, FlowMetrics, OpSelect, Snapshot};
use layout::Layout;
use netlist::bench::DesignSpec;
use netlist::NetId;
use power::PowerModel;
use route::RoutePlan;
use secmetrics::{analyze_regions, THRESH_ER};
use tech::{RouteRule, Technology, NUM_METAL_LAYERS};

use crate::trace::Trace;

/// Implements the baseline of `spec` layer by layer: generate, place,
/// route, analyze. Floorplanning counts toward `setup.place.global`.
pub fn implement_baseline(spec: &DesignSpec, tech: &Technology, trace: &mut Trace) -> Snapshot {
    let design = trace.time("setup.netlist.generate", || {
        netlist::bench::generate(spec, tech)
    });
    let critical = design.critical_cells.clone();
    let mut layout = trace.time("setup.place.global", || {
        let mut l = Layout::empty_floorplan(design, tech, spec.utilization);
        place::global_place(&mut l, tech, spec.seed);
        l
    });
    trace.time("setup.place.refine", || {
        place::refine_wirelength(&mut layout, tech, 4, spec.seed)
    });
    trace.time("setup.place.bank", || {
        place::bank_cells(&mut layout, tech, &critical, 0.85, spec.seed)
    });
    for &c in &critical {
        layout.occupancy_mut().lock(c);
    }
    trace.time("setup.place.refine", || {
        place::refine_wirelength(&mut layout, tech, 3, spec.seed ^ 0xBA2)
    });
    for &c in &critical {
        layout.occupancy_mut().unlock(c);
    }
    let layout = Arc::new(layout);
    let plan = trace.time("setup.route.plan", || route::plan_route(&layout, tech));
    let routing = trace.time("setup.route.finalize", || {
        route::finalize_route(&layout, tech, plan)
    });
    let timing = trace.time("setup.sta.analyze", || {
        sta::analyze(&layout, &routing, tech)
    });
    let power = trace.time("setup.power", || power::analyze(&layout, &routing, tech));
    let drc = trace.time("setup.route.drc", || routing.drc_violations(&layout));
    let security = trace.time("setup.secmetrics", || {
        analyze_regions(&layout, &routing, &timing, tech, THRESH_ER)
    });
    Snapshot {
        layout,
        routing,
        timing,
        power,
        drc,
        security,
    }
}

/// Whether two snapshots agree bit for bit on every reported figure.
pub fn same_snapshot(a: &Snapshot, b: &Snapshot) -> bool {
    let bits = |s: &Snapshot| {
        (
            s.tns_ps().to_bits(),
            s.timing.wns_ps().to_bits(),
            s.power_mw().to_bits(),
            s.drc,
            s.security.er_sites,
            s.security.er_tracks.to_bits(),
            s.routing.total_wirelength_um().to_bits(),
        )
    };
    bits(a) == bits(b)
}

/// Whether two metric vectors agree bit for bit.
pub fn same_metrics(a: &FlowMetrics, b: &FlowMetrics) -> bool {
    let bits = |m: &FlowMetrics| {
        (
            m.security.to_bits(),
            m.er_sites,
            m.er_tracks.to_bits(),
            m.tns_ps.to_bits(),
            m.power_mw.to_bits(),
            m.drc,
        )
    };
    bits(a) == bits(b)
}

/// The seed an operator consumes: Cell Shift is deterministic, so every
/// seed maps to 0 (and to one memo slot), as in the engine.
fn operator_seed(op: OpSelect, seed: u64) -> u64 {
    match op {
        OpSelect::CellShift => 0,
        OpSelect::Lda { .. } => seed,
    }
}

/// A memoized operator edit at the baseline's route rule.
struct Edit {
    layout: Arc<Layout>,
    plan: RoutePlan,
    dirty: Vec<NetId>,
}

type MetricsKey = (OpSelect, u64, [u64; NUM_METAL_LAYERS]);

/// Candidate evaluation against an [`EvalEngine`]'s cached baseline,
/// composed from public calls.
pub struct StagedEngine<'e> {
    engine: &'e EvalEngine,
    power_model: PowerModel,
    edits: HashMap<(OpSelect, u64), Edit>,
    memo: HashMap<MetricsKey, FlowMetrics>,
}

impl<'e> StagedEngine<'e> {
    /// Wraps `engine`. Builds the power model the engine keeps privately
    /// (untimed: the engine's own build already counts it).
    pub fn new(engine: &'e EvalEngine, tech: &Technology) -> Self {
        Self {
            engine,
            power_model: PowerModel::new(&engine.base().layout, tech),
            edits: HashMap::new(),
            memo: HashMap::new(),
        }
    }

    /// Forgets every memoized result and keeps the edits, as
    /// [`EvalEngine::reset_metrics_memo`].
    pub fn reset_metrics_memo(&mut self) {
        self.memo.clear();
    }

    /// Evaluates `cfg` with flow seed `seed`, as
    /// `FlowRun::new(engine.base(), tech, cfg).engine(engine).seed(seed).metrics()`.
    pub fn metrics(
        &mut self,
        tech: &Technology,
        cfg: &FlowConfig,
        seed: u64,
        trace: &mut Trace,
    ) -> FlowMetrics {
        let op_seed = operator_seed(cfg.op, seed);
        let key = (cfg.op, op_seed, cfg.scales.map(f64::to_bits));
        if let Some(m) = self.memo.get(&key) {
            trace.add("cand.pipeline.memo_hits", 1.0);
            return *m;
        }
        if self.edits.contains_key(&(cfg.op, op_seed)) {
            trace.add("cand.pipeline.edit_hits", 1.0);
        } else {
            trace.add("cand.pipeline.edit_misses", 1.0);
            let edit = self.edit(tech, cfg.op, op_seed, trace);
            self.edits.insert((cfg.op, op_seed), edit);
        }
        let edit = &self.edits[&(cfg.op, op_seed)];
        let base = self.engine.base();

        let rule = RouteRule::from_scales(cfg.scales);
        let (layout, plan) = if edit.layout.route_rule() == &rule {
            (Arc::clone(&edit.layout), edit.plan.clone())
        } else {
            trace.time("cand.route.rule", || {
                let mut l = Layout::clone(&edit.layout);
                l.set_route_rule(rule.clone());
                let mut p = edit.plan.clone();
                p.set_rule(tech, &rule);
                (Arc::new(l), p)
            })
        };
        let routing = trace.time("cand.route.finalize", || {
            route::finalize_route(&layout, tech, plan)
        });
        trace.add(
            "cand.route.finalize.touched_nets",
            routing.touched_nets().len() as f64,
        );
        // The engine's incremental-STA bound: with the baseline's rule
        // kept, only Phase-A dirty nets and either side's RRR victims can
        // change RC.
        let dirty_nets: Option<Vec<NetId>> = (layout.route_rule() == base.layout.route_rule())
            .then(|| {
                let mut v: Vec<NetId> = edit
                    .dirty
                    .iter()
                    .chain(routing.touched_nets())
                    .chain(base.routing.touched_nets())
                    .copied()
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            });
        let timing = trace.time("cand.sta.incremental", || {
            sta::analyze_incremental(
                self.engine.graph(),
                &base.timing,
                &base.routing,
                &layout,
                &routing,
                tech,
                dirty_nets.as_deref(),
            )
        });
        let power = trace.time("cand.power", || {
            power::analyze_with_model(&self.power_model, &layout, &routing, tech)
        });
        let drc = trace.time("cand.route.drc", || routing.drc_violations(&layout));
        let security = trace.time("cand.secmetrics", || {
            analyze_regions(&layout, &routing, &timing, tech, THRESH_ER)
        });
        let snap = Snapshot {
            layout,
            routing,
            timing,
            power,
            drc,
            security,
        };
        let m = FlowMetrics::from_snapshot(&snap, base);
        self.memo.insert(key, m);
        m
    }

    /// Applies one ECO placement operator to a locked copy of the
    /// baseline and patches the Phase-A plan for it.
    fn edit(&self, tech: &Technology, op: OpSelect, op_seed: u64, trace: &mut Trace) -> Edit {
        let base = self.engine.base();
        let mut layout = Layout::clone(&base.layout);
        preprocess::lock_critical_cells(&mut layout);
        match op {
            OpSelect::CellShift => {
                let st = trace.time("cand.cell_shift", || {
                    cell_shift(&mut layout, tech, THRESH_ER)
                });
                trace.add("cand.cell_shift.moves", st.moves as f64);
                trace.add("cand.cell_shift.shifted_sites", st.shifted_sites as f64);
            }
            OpSelect::Lda { n, n_iter } => {
                let st = trace.time("cand.lda", || {
                    local_density_adjustment(&mut layout, tech, LdaParams { n, n_iter }, op_seed)
                });
                trace.add("cand.lda.evicted", st.evicted as f64);
                trace.add("cand.lda.in_bounds", st.replaced_in_bounds as f64);
                trace.add("cand.lda.fallback", st.replaced_fallback as f64);
            }
        }
        let (dirty, plan) = trace.time("cand.route.patch", || {
            let dirty = route::dirty_between(self.engine.plan(), &base.layout, &layout, tech);
            let plan = route::plan_update(self.engine.plan(), &layout, tech, &dirty);
            (dirty, plan)
        });
        trace.add("cand.route.patch.dirty_nets", dirty.nets.len() as f64);
        Edit {
            layout: Arc::new(layout),
            plan,
            dirty: dirty.nets,
        }
    }
}
