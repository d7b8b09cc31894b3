//! Synthetic benchmark suite mirroring the twelve designs of the paper's
//! evaluation (crypto cores and openMSP430 microprocessors).
//!
//! Each [`DesignSpec`] controls the three properties that drive every effect
//! the paper measures: design size / free-space structure (`target_cells`,
//! `utilization`), timing tightness (`period_factor`, `levels`), and the
//! location and count of security-critical assets (`key_ffs`). Generation is
//! fully deterministic per spec seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tech::Technology;

use crate::builder::NetlistBuilder;
use crate::design::{CellId, Constraints, Design, NetId};

/// Base per-logic-level delay (gate + local wire) in ps; the wire share
/// grows with die size, so [`DesignSpec::clock_period`] adds a
/// `sqrt(cells)` term on top.
pub const LEVEL_DELAY_BASE: f64 = 37.0;

/// Wire-delay growth per sqrt(cell-count), ps per logic level.
pub const LEVEL_DELAY_PER_SQRT_CELL: f64 = 0.24;

/// Estimated sequential overhead (clock-to-Q + setup + clock margins), ps.
pub const SEQ_OVERHEAD_EST: f64 = 90.0;

/// Generation parameters for one benchmark design.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpec {
    /// Design name as it appears in the paper's tables.
    pub name: &'static str,
    /// RNG seed (deterministic generation).
    pub seed: u64,
    /// Total cell-instance target (flops + gates).
    pub target_cells: usize,
    /// Core placement utilization used when floorplanning the design.
    pub utilization: f64,
    /// Number of key-register flip-flops (security-critical).
    pub key_ffs: usize,
    /// Number of state/datapath flip-flops.
    pub state_ffs: usize,
    /// Combinational depth between register stages.
    pub levels: usize,
    /// Clock-period multiplier over the estimated critical path: below 1.0
    /// the design is timing-tight (negative baseline TNS), above 1.0 it
    /// closes timing with margin.
    pub period_factor: f64,
}

impl DesignSpec {
    /// Clock period implied by the spec, in ps: the estimated critical
    /// path (`levels` stages whose per-stage delay grows with die size)
    /// scaled by `period_factor`.
    pub fn clock_period(&self) -> f64 {
        let level_delay =
            LEVEL_DELAY_BASE + LEVEL_DELAY_PER_SQRT_CELL * (self.target_cells as f64).sqrt();
        (self.levels as f64 * level_delay + SEQ_OVERHEAD_EST) * self.period_factor
    }
}

/// The twelve benchmark specs in the order of the paper's Table II.
pub fn all_specs() -> Vec<DesignSpec> {
    #[allow(clippy::type_complexity)] // one-off literal table
    let table: [(&'static str, u64, usize, f64, usize, usize, usize, f64); 12] = [
        ("AES_1", 0xAE51, 12_000, 0.68, 128, 256, 26, 0.996),
        ("AES_2", 0xAE52, 16_000, 0.70, 128, 256, 28, 1.045),
        ("AES_3", 0xAE53, 13_000, 0.68, 128, 256, 26, 0.950),
        ("Camellia", 0xCA3E, 2_800, 0.62, 64, 128, 18, 1.250),
        ("CAST", 0xCA57, 3_600, 0.74, 64, 128, 20, 0.958),
        ("MISTY", 0x3157, 3_200, 0.64, 64, 128, 18, 1.200),
        ("openMSP430_1", 0x4301, 1_800, 0.55, 32, 96, 14, 1.500),
        ("openMSP430_2", 0x4302, 2_200, 0.58, 32, 96, 16, 0.975),
        ("PRESENT", 0x9245, 1_200, 0.60, 40, 80, 12, 1.400),
        ("SEED", 0x5EED, 3_600, 0.73, 64, 128, 20, 0.960),
        ("SPARX", 0x59A6, 2_400, 0.63, 48, 96, 16, 1.300),
        ("TDEA", 0x7DEA, 2_000, 0.61, 56, 112, 14, 1.350),
    ];
    table
        .iter()
        .map(
            |&(
                name,
                seed,
                target_cells,
                utilization,
                key_ffs,
                state_ffs,
                levels,
                period_factor,
            )| {
                DesignSpec {
                    name,
                    seed,
                    target_cells,
                    utilization,
                    key_ffs,
                    state_ffs,
                    levels,
                    period_factor,
                }
            },
        )
        .collect()
}

/// Looks up a spec by its paper name.
///
/// ```
/// assert!(netlist::bench::spec_by_name("AES_2").is_some());
/// assert!(netlist::bench::spec_by_name("DES").is_none());
/// ```
pub fn spec_by_name(name: &str) -> Option<DesignSpec> {
    all_specs().into_iter().find(|s| s.name == name)
}

/// One-line roster of every name [`parse_spec`] accepts, for fail-fast
/// CLI diagnostics: `TINY`, then the stock designs in suite order, then
/// the scale-suffix hint.
pub fn known_designs() -> String {
    let mut names = vec!["TINY"];
    names.extend(all_specs().iter().map(|s| s.name));
    format!(
        "{} (append @x<N> to scale, e.g. AES_2@x7)",
        names.join(", ")
    )
}

/// Scales a spec to `factor`× its stock size: the cell target and the
/// state/datapath register bank grow linearly (a wider datapath), while
/// the key bank and pipeline depth stay fixed — key width and round
/// structure are algorithm properties, not size properties. The clock
/// period re-derives automatically (wire delay grows with
/// `sqrt(cells)`), the seed is mixed with the factor so scaled variants
/// generate decorrelated netlists, and the name gains an `@x{factor}`
/// suffix that round-trips through [`parse_spec`].
///
/// The suffixed name is interned with a deliberate bounded leak
/// (`Box::leak`): specs carry `&'static str` names, and a process
/// resolves at most a handful of distinct scale factors.
pub fn scale_spec(spec: &DesignSpec, factor: u32) -> DesignSpec {
    assert!(factor >= 1, "scale factor must be positive");
    if factor == 1 {
        return spec.clone();
    }
    let name: &'static str = Box::leak(format!("{}@x{}", spec.name, factor).into_boxed_str());
    DesignSpec {
        name,
        seed: spec.seed ^ (0x5CA1E000 + u64::from(factor)),
        target_cells: spec.target_cells * factor as usize,
        utilization: spec.utilization,
        key_ffs: spec.key_ffs,
        state_ffs: spec.state_ffs * factor as usize,
        levels: spec.levels,
        period_factor: spec.period_factor,
    }
}

/// Resolves a design name to its spec: `"NAME"` or `"NAME@xN"` (the
/// scaled-suite naming convention), plus `TINY`. The bare name is a
/// stock [`all_specs`] entry, the suffixed form is that entry through
/// [`scale_spec`]. `TINY` is the [`tiny_spec`] smoke design; it is not
/// part of the published benchmark table and does not scale.
///
/// ```
/// assert!(netlist::bench::parse_spec("Camellia").is_some());
/// let big = netlist::bench::parse_spec("Camellia@x8").unwrap();
/// assert_eq!(big.target_cells, 8 * 2_800);
/// assert!(netlist::bench::parse_spec("Camellia@x0").is_none());
/// assert!(netlist::bench::parse_spec("DES@x2").is_none());
/// ```
pub fn parse_spec(name: &str) -> Option<DesignSpec> {
    if name == "TINY" {
        return Some(tiny_spec());
    }
    if let Some((base, suffix)) = name.split_once("@x") {
        let factor: u32 = suffix.parse().ok().filter(|&f| (1..=1024).contains(&f))?;
        return spec_by_name(base).map(|s| scale_spec(&s, factor));
    }
    spec_by_name(name)
}

/// A deliberately small spec for unit tests across the workspace.
pub fn tiny_spec() -> DesignSpec {
    DesignSpec {
        name: "TINY",
        seed: 0x7111,
        target_cells: 220,
        utilization: 0.60,
        key_ffs: 8,
        state_ffs: 16,
        levels: 6,
        period_factor: 1.2,
    }
}

/// Weighted gate mix of a crypto-flavoured round function.
const GATE_MIX: &[(&str, u32)] = &[
    ("INV_X1", 10),
    ("BUF_X1", 4),
    ("NAND2_X1", 18),
    ("NAND2_X2", 4),
    ("NOR2_X1", 12),
    ("NAND3_X1", 6),
    ("XOR2_X1", 16),
    ("XNOR2_X1", 6),
    ("AND2_X1", 6),
    ("OR2_X1", 6),
    ("AOI21_X1", 5),
    ("OAI21_X1", 4),
    ("MUX2_X1", 3),
];

fn sample_gate(rng: &mut StdRng) -> &'static str {
    let total: u32 = GATE_MIX.iter().map(|(_, w)| w).sum();
    let mut t = rng.gen_range(0..total);
    for &(name, w) in GATE_MIX {
        if t < w {
            return name;
        }
        t -= w;
    }
    unreachable!()
}

/// Generates the design described by `spec`.
///
/// The structure is a register bank (key + state + a small control FSM)
/// feeding `spec.levels` layers of combinational logic that loop back into
/// the register D-pins — the canonical shape of an iterated crypto core.
/// Key flip-flops and the first layer of gates they feed (key-control
/// logic) are marked security-critical, matching Definition 2.1.
///
/// # Panics
///
/// Panics if the spec is degenerate (no room for combinational logic).
pub fn generate(spec: &DesignSpec, tech: &Technology) -> Design {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut b = NetlistBuilder::new(spec.name, tech);
    b.set_constraints(Constraints {
        clock_period: spec.clock_period(),
        input_delay: 0.0,
        output_delay: 0.0,
    });
    b.add_clock("clk");

    let ctl_ffs = 16.min(spec.state_ffs / 4).max(4);
    let n_ffs = spec.key_ffs + spec.state_ffs + ctl_ffs;
    assert!(
        spec.target_cells > n_ffs + spec.levels,
        "spec has no room for combinational logic"
    );
    let n_pis = (spec.target_cells / 100).clamp(8, 64);
    let n_pos = (spec.target_cells / 200).clamp(8, 32);

    let pis: Vec<NetId> = (0..n_pis)
        .map(|i| b.add_primary_input(&format!("pi{i}")))
        .collect();

    // Register banks. D-inputs are temporarily tied to PIs and rewired once
    // the combinational cloud exists.
    let mut key_ffs: Vec<(CellId, NetId)> = Vec::with_capacity(spec.key_ffs);
    for i in 0..spec.key_ffs {
        let seed_net = pis[i % pis.len()];
        let (ff, q) = b.add_dff("DFF_X1", seed_net);
        b.mark_critical(ff);
        key_ffs.push((ff, q));
    }
    let mut state_ffs: Vec<(CellId, NetId)> = Vec::with_capacity(spec.state_ffs);
    for i in 0..spec.state_ffs {
        let seed_net = pis[(i + 7) % pis.len()];
        state_ffs.push(b.add_dff("DFF_X1", seed_net));
    }
    let mut all_ffs = key_ffs.clone();
    for i in 0..ctl_ffs {
        let seed_net = pis[(i + 3) % pis.len()];
        let (ff, q) = b.add_dff("DFF_X1", seed_net);
        // Half of the control FSM guards key loading: key-control logic.
        if i < ctl_ffs / 2 {
            b.mark_critical(ff);
        }
        all_ffs.push((ff, q));
    }
    all_ffs.extend(state_ffs.iter().copied());

    let n_comb = spec.target_cells - n_ffs;
    let per_level = n_comb / spec.levels;

    // Level 0 signal pool: register outputs plus primary inputs. Key
    // registers are excluded — their only fanout is the key-control logic
    // of the first level, giving key nets exactly one stage less depth
    // than the datapath (small positive slack on tight designs, the
    // texture the exploitable-distance analysis keys on).
    let mut prev_level: Vec<NetId> = all_ffs.iter().skip(spec.key_ffs).map(|&(_, q)| q).collect();
    prev_level.extend(pis.iter().copied());
    let mut older_pool: Vec<NetId> = Vec::new();
    let mut built = 0usize;
    // Asset outputs that must be observed by the key-control cone: all key
    // bits plus the critical half of the control FSM.
    let asset_qs: Vec<NetId> = key_ffs
        .iter()
        .map(|&(_, q)| q)
        .chain(
            all_ffs[spec.key_ffs..]
                .iter()
                .take(ctl_ffs / 2)
                .map(|&(_, q)| q),
        )
        .collect();
    let mut next_key_tap = 0usize;
    // Outputs of the previous level's key-cone gates: re-tapped by the next
    // level so the key-observation cone runs the full pipeline depth and
    // every key path stays timing-constrained (exactly one stage shallower
    // than the datapath).
    let mut key_cone: Vec<NetId> = Vec::new();
    // Outputs of the shallow third of the cone: the key-schedule nets the
    // key registers reload from. Keeping key paths shallow mirrors real
    // crypto cores (key schedule is short; the state datapath is deep) and
    // leaves positive slack on key paths even in timing-tight designs.
    let mut key_reload_pool: Vec<NetId> = Vec::new();

    for level in 0..spec.levels {
        let count = if level + 1 == spec.levels {
            n_comb - built
        } else {
            per_level
        };
        let mut this_level: Vec<NetId> = Vec::with_capacity(count);
        let mut next_cone: Vec<NetId> = Vec::new();
        for g in 0..count {
            let kind = sample_gate(&mut rng);
            let arity = tech
                .library
                .kind(
                    tech.library
                        .kind_by_name(kind)
                        .expect("gate mix kind exists"),
                )
                .inputs as usize;
            let mut ins = Vec::with_capacity(arity);
            // Bit-sliced structure: fanin comes from a window of the
            // previous level around the gate's own slice position, giving
            // the physical locality a placed real design exhibits. A small
            // fraction reaches across the design (round reconvergence,
            // control fanout), producing realistic long nets.
            let center = g * prev_level.len() / count.max(1);
            let window = 6usize.min(prev_level.len().saturating_sub(1));
            for _ in 0..arity {
                let net = if rng.gen_bool(0.97) || older_pool.is_empty() {
                    let lo = center.saturating_sub(window);
                    let hi = (center + window + 1).min(prev_level.len());
                    prev_level[rng.gen_range(lo..hi)]
                } else {
                    older_pool[rng.gen_range(0..older_pool.len())]
                };
                ins.push(net);
            }
            // In the first level, the earliest gates tap the asset
            // registers (the key-control cells of Definition 2.1), two
            // bits per gate where the arity allows, until every asset bit
            // is observed — no key register may dangle. Deeper levels
            // re-tap the previous level's key-cone outputs so the
            // observation cone stays constrained all the way down.
            let mut is_key_control = false;
            if level == 0 {
                if next_key_tap < asset_qs.len() {
                    is_key_control = true;
                    ins[0] = asset_qs[next_key_tap];
                    next_key_tap += 1;
                    if arity >= 2 && next_key_tap < asset_qs.len() {
                        ins[1] = asset_qs[next_key_tap];
                        next_key_tap += 1;
                    }
                }
            } else if g < key_cone.len() {
                ins[0] = key_cone[g];
            }
            let out = b.add_gate(kind, &ins);
            if is_key_control {
                b.mark_critical(CellId(b.num_cells() as u32 - 1));
                next_cone.push(out);
            } else if level > 0 && g < key_cone.len() {
                next_cone.push(out);
            }
            this_level.push(out);
        }
        built += count;
        key_cone = next_cone;
        older_pool.extend(prev_level.iter().copied());
        if level == spec.levels / 3 {
            key_reload_pool = this_level.clone();
        }
        prev_level = this_level;
    }
    if key_reload_pool.is_empty() {
        key_reload_pool = prev_level.clone();
    }

    // Close the register loops: key registers reload from a *narrow* slice
    // of the shallow key-schedule nets (a real key bank hangs off a small
    // key-schedule cone, which is what makes it cluster physically), the
    // control FSM from a narrow decoder slice, and the state registers
    // from across the whole last combinational level.
    let n_key = key_ffs.len();
    let key_slice = key_reload_pool.len().min((n_key / 2).max(1));
    let ctl_slice = prev_level.len().min(16);
    for (i, &(ff, _)) in all_ffs.iter().enumerate() {
        let d = if i < n_key {
            key_reload_pool[i % key_slice]
        } else if i < n_key + ctl_ffs {
            prev_level[i % ctl_slice]
        } else {
            prev_level[i % prev_level.len()]
        };
        b.rewire_dff_d(ff, d);
    }
    // Observe a slice of the last level at primary outputs.
    for i in 0..n_pos {
        let idx = (i * prev_level.len().max(1) / n_pos.max(1)) % prev_level.len();
        b.add_primary_output(prev_level[idx]);
    }

    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_twelve_specs_present_and_unique() {
        let specs = all_specs();
        assert_eq!(specs.len(), 12);
        let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn tight_specs_have_shorter_periods_than_loose_at_same_depth() {
        let cast = spec_by_name("CAST").unwrap();
        let seed = spec_by_name("SEED").unwrap();
        assert_eq!(cast.levels, seed.levels);
        let camellia = spec_by_name("Camellia").unwrap();
        assert!(
            cast.clock_period()
                < camellia.clock_period() * cast.levels as f64 / camellia.levels as f64 * 1.1
        );
        assert!(cast.period_factor < 1.0);
        assert!(camellia.period_factor > 1.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let tech = Technology::nangate45_like();
        let spec = tiny_spec();
        let a = generate(&spec, &tech);
        let b = generate(&spec, &tech);
        assert_eq!(a.cells.len(), b.cells.len());
        assert_eq!(a.nets.len(), b.nets.len());
        assert_eq!(a.critical_cells, b.critical_cells);
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.kind, cb.kind);
            assert_eq!(ca.inputs, cb.inputs);
        }
    }

    #[test]
    fn generated_design_validates_and_hits_target() {
        let tech = Technology::nangate45_like();
        let spec = tiny_spec();
        let d = generate(&spec, &tech);
        d.validate(&tech).expect("valid design");
        assert_eq!(d.cells.len(), spec.target_cells);
        assert!(d.critical_cells.len() >= spec.key_ffs);
        // ctl_ffs for the tiny spec: min(16, 16/4).max(4) = 4.
        assert_eq!(d.num_flops(&tech), spec.key_ffs + spec.state_ffs + 4);
    }

    #[test]
    fn full_suite_generates_and_validates() {
        let tech = Technology::nangate45_like();
        for spec in all_specs() {
            let d = generate(&spec, &tech);
            d.validate(&tech)
                .unwrap_or_else(|e| panic!("{} invalid: {e}", spec.name));
            assert_eq!(d.cells.len(), spec.target_cells, "{}", spec.name);
        }
    }

    #[test]
    fn scaled_spec_generates_validates_and_parses_back() {
        let tech = Technology::nangate45_like();
        let base = spec_by_name("TDEA").unwrap();
        let big = scale_spec(&base, 3);
        assert_eq!(big.name, "TDEA@x3");
        assert_eq!(big.target_cells, 3 * base.target_cells);
        assert_eq!(big.key_ffs, base.key_ffs, "key width is algorithmic");
        assert_eq!(big.state_ffs, 3 * base.state_ffs);
        assert_eq!(big.levels, base.levels);
        assert_ne!(big.seed, base.seed);
        assert!(big.clock_period() > base.clock_period());
        let parsed = parse_spec("TDEA@x3").unwrap();
        assert_eq!(parsed.target_cells, big.target_cells);
        assert_eq!(parsed.seed, big.seed);
        let d = generate(&big, &tech);
        d.validate(&tech).expect("scaled design valid");
        assert_eq!(d.cells.len(), big.target_cells);
    }

    #[test]
    fn scale_by_one_is_identity_and_roster_lists_the_suite() {
        let base = spec_by_name("AES_1").unwrap();
        let same = scale_spec(&base, 1);
        assert_eq!(same.name, "AES_1");
        assert_eq!(same.seed, base.seed);
        let roster = known_designs();
        assert!(roster.starts_with("TINY, AES_1"));
        assert!(roster.contains("openMSP430_2"));
        assert!(roster.contains("TDEA"));
        assert!(roster.contains("@x<N>"));
        let names = roster.split(" (").next().unwrap().split(", ").count();
        assert_eq!(names, 13, "TINY plus twelve specs");
    }

    #[test]
    fn parse_spec_knows_tiny_and_benchmarks() {
        assert_eq!(parse_spec("TINY").map(|s| s.name), Some("TINY"));
        assert!(parse_spec("AES_1").is_some());
        assert!(parse_spec("NOPE").is_none());
        assert_eq!(parse_spec("AES_2@x7").unwrap().target_cells, 7 * 16_000);
        assert!(parse_spec("NOPE@x2").is_none());
        assert!(parse_spec("TINY@x2").is_none(), "TINY does not scale");
    }

    #[test]
    fn critical_cells_are_keys_and_key_control() {
        let tech = Technology::nangate45_like();
        let d = generate(&tiny_spec(), &tech);
        let n_seq_critical = d
            .critical_cells
            .iter()
            .filter(|&&c| tech.library.kind(d.cell(c).kind).is_sequential())
            .count();
        let n_comb_critical = d.critical_cells.len() - n_seq_critical;
        assert!(n_seq_critical >= tiny_spec().key_ffs);
        assert!(n_comb_critical > 0, "key-control logic must be marked");
    }
}
