//! Per-layer attribution from outside the program: the benchmark times
//! each call it makes into a layer's public functions and counts the
//! work those calls report. No span runs inside the library.
//!
//! Every timed call is a leaf (the staged composition never nests one
//! timed call inside another), so a layer's self time is simply the sum
//! of its calls' durations, and whatever the traced wall spent between
//! calls is reported as `unattributed_s`.

use std::collections::BTreeMap;
use std::time::Instant;

/// Baseline set-up layers, reported as `<layer>_s` (seconds).
pub const SETUP_LAYERS: [&str; 11] = [
    "setup.netlist.generate",
    "setup.place.global",
    "setup.place.refine",
    "setup.place.bank",
    "setup.route.plan",
    "setup.route.finalize",
    "setup.sta.analyze",
    "setup.power",
    "setup.route.drc",
    "setup.secmetrics",
    "setup.pipeline.engine",
];

/// Candidate layers, reported as `<layer>.calls` and `<layer>.s`.
pub const CAND_LAYERS: [&str; 9] = [
    "cand.cell_shift",
    "cand.lda",
    "cand.route.patch",
    "cand.route.rule",
    "cand.route.finalize",
    "cand.sta.incremental",
    "cand.power",
    "cand.route.drc",
    "cand.secmetrics",
];

/// Work counters the layer calls return, with their unit.
pub const COUNTERS: [(&str, &str); 12] = [
    ("cand.cell_shift.moves", "count"),
    ("cand.cell_shift.shifted_sites", "count"),
    ("cand.lda.evicted", "count"),
    ("cand.lda.in_bounds", "count"),
    ("cand.lda.fallback", "count"),
    ("cand.lda.in_bounds_ratio", "ratio"),
    ("cand.route.patch.dirty_nets", "count"),
    ("cand.route.finalize.touched_nets", "count"),
    ("cand.pipeline.edit_hits", "count"),
    ("cand.pipeline.edit_misses", "count"),
    ("cand.pipeline.memo_hits", "count"),
    ("cand.pipeline.cache_bytes", "bytes"),
];

/// Accumulated call count and busy seconds of one layer.
#[derive(Debug, Clone, Copy, Default)]
struct Busy {
    calls: u64,
    secs: f64,
}

/// Layer timings and work counters of one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    busy: BTreeMap<&'static str, Busy>,
    counts: BTreeMap<&'static str, f64>,
}

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

impl Trace {
    /// Runs `f` as one call into `layer`, adding its wall time.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let b = self.busy.entry(layer).or_default();
        b.calls += 1;
        b.secs += t.elapsed().as_secs_f64();
        r
    }

    /// Adds `v` to a work counter.
    pub fn add(&mut self, counter: &'static str, v: f64) {
        *self.counts.entry(counter).or_default() += v;
    }

    /// Sets a gauge-like counter (last value wins).
    pub fn set(&mut self, counter: &'static str, v: f64) {
        self.counts.insert(counter, v);
    }

    fn secs(&self, layer: &str) -> f64 {
        self.busy.get(layer).map_or(0.0, |b| b.secs)
    }

    /// Sum of every layer's self time.
    fn attributed_secs(&self) -> f64 {
        self.busy.values().map(|b| b.secs).sum()
    }

    /// Every per-layer metric, in catalog order.
    ///
    /// `traced_wall` is the wall clock of the traced sections plus
    /// `nsga2_overhead` (the exploration's own bookkeeping, measured as
    /// explore wall minus the staged replay wall; 0 outside explore).
    /// `unattributed_s` closes the sum: layer self times plus the NSGA-II
    /// overhead plus `unattributed_s` equal the traced wall. Each time is
    /// also given as a `.share` of the traced wall.
    pub fn metrics(&self, traced_wall: f64, nsga2_overhead: f64) -> Vec<Metric> {
        let mut out: Vec<Metric> = Vec::new();
        let mut times: Vec<(String, f64)> = Vec::new();
        for layer in SETUP_LAYERS {
            times.push((format!("{layer}_s"), self.secs(layer)));
        }
        for layer in CAND_LAYERS {
            let calls = self.busy.get(layer).map_or(0, |b| b.calls);
            out.push((format!("{layer}.calls"), calls as f64, "count"));
            times.push((format!("{layer}.s"), self.secs(layer)));
        }
        let count = |name: &str| self.counts.get(name).copied().unwrap_or(0.0);
        for (name, unit) in COUNTERS {
            let v = if name == "cand.lda.in_bounds_ratio" {
                // Useful outcomes over attempts; 1 when nothing was evicted.
                let evicted = count("cand.lda.evicted");
                if evicted > 0.0 {
                    count("cand.lda.in_bounds") / evicted
                } else {
                    1.0
                }
            } else {
                count(name)
            };
            out.push((name.to_string(), v, unit));
        }
        let unattributed = traced_wall - self.attributed_secs() - nsga2_overhead;
        times.push(("nsga2.overhead_s".to_string(), nsga2_overhead));
        times.push(("unattributed_s".to_string(), unattributed));
        for (name, secs) in &times {
            out.push((name.clone(), *secs, "s"));
        }
        for (name, secs) in &times {
            out.push((format!("{name}.share"), secs / traced_wall, "ratio"));
        }
        out.push(("traced_wall_s".to_string(), traced_wall, "s"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(ms: &[Metric], name: &str) -> f64 {
        ms.iter()
            .find(|(n, ..)| n == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .1
    }

    #[test]
    fn self_times_plus_unattributed_sum_to_traced_wall() {
        let wall = Instant::now();
        let mut t = Trace::default();
        let spin = |ms: u64| std::thread::sleep(std::time::Duration::from_millis(ms));
        t.time("setup.route.finalize", || spin(3));
        t.time("cand.lda", || spin(2));
        spin(1); // glue between calls: unattributed
        t.time("cand.lda", || spin(2));
        t.time("cand.route.finalize", || spin(1));
        let traced_wall = wall.elapsed().as_secs_f64();
        let overhead = 0.004;
        let ms = t.metrics(traced_wall + overhead, overhead);

        assert_eq!(value(&ms, "cand.lda.calls"), 2.0);
        assert_eq!(value(&ms, "cand.cell_shift.calls"), 0.0);
        let mut sum = value(&ms, "nsga2.overhead_s") + value(&ms, "unattributed_s");
        let mut shares = value(&ms, "nsga2.overhead_s.share") + value(&ms, "unattributed_s.share");
        for layer in SETUP_LAYERS {
            sum += value(&ms, &format!("{layer}_s"));
            shares += value(&ms, &format!("{layer}_s.share"));
        }
        for layer in CAND_LAYERS {
            sum += value(&ms, &format!("{layer}.s"));
            shares += value(&ms, &format!("{layer}.s.share"));
        }
        assert!((sum - (traced_wall + overhead)).abs() < 1e-9, "{sum}");
        assert!((shares - 1.0).abs() < 1e-9, "{shares}");
        assert!(value(&ms, "unattributed_s") >= 0.001);
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let emitted: Vec<String> = Trace::default()
            .metrics(1.0, 0.0)
            .into_iter()
            .map(|(name, ..)| name)
            .collect();
        assert_eq!(emitted, crate::benchmark_json_names("per_layer"));
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut t = Trace::default();
        t.add("cand.lda.evicted", 3.0);
        t.add("cand.lda.evicted", 4.0);
        t.set("cand.pipeline.cache_bytes", 10.0);
        t.set("cand.pipeline.cache_bytes", 12.0);
        let ms = t.metrics(1.0, 0.0);
        assert_eq!(value(&ms, "cand.lda.evicted"), 7.0);
        assert_eq!(value(&ms, "cand.pipeline.cache_bytes"), 12.0);
        assert_eq!(value(&ms, "cand.route.patch.dirty_nets"), 0.0);
        assert_eq!(value(&ms, "cand.lda.in_bounds_ratio"), 0.0);
        let idle = Trace::default().metrics(1.0, 0.0);
        assert_eq!(value(&idle, "cand.lda.in_bounds_ratio"), 1.0);
        t.add("cand.lda.in_bounds", 5.0);
        let ms = t.metrics(1.0, 0.0);
        assert_eq!(value(&ms, "cand.lda.in_bounds_ratio"), 5.0 / 7.0);
    }
}
