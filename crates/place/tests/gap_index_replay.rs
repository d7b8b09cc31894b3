//! Replay pin: the gap-index legalizer must be a pure data-structure
//! swap. On fixed-seed schedules, [`place::eco_place`] (index-backed
//! queries) and [`place::eco_place_reference`] (the pre-index
//! brute-force grid scans) must produce bit-identical [`EcoPlaceStats`]
//! and bit-identical layouts — every cell at the same site.

use layout::{Blockage, Layout};
use place::EcoPlaceStats;
use tech::Technology;

fn placed(seed: u64) -> (Technology, Layout) {
    let tech = Technology::nangate45_like();
    let design = netlist::bench::generate(&netlist::bench::tiny_spec(), &tech);
    let mut layout = Layout::empty_floorplan(design, &tech, 0.6);
    place::global_place(&mut layout, &tech, seed);
    place::refine_wirelength(&mut layout, &tech, 2, seed);
    (tech, layout)
}

/// Runs both legalizers on clones of the same layout + blockage schedule
/// and asserts stats and per-cell positions match bit for bit.
fn assert_replay_identical(tech: &Technology, layout: &Layout, blockages: Vec<Blockage>) {
    let mut with_index = layout.clone();
    with_index.set_blockages(blockages.clone());
    let stats_index: EcoPlaceStats = place::eco_place(&mut with_index, tech, 7);

    let mut with_scan = layout.clone();
    with_scan.set_blockages(blockages);
    let stats_scan: EcoPlaceStats = place::eco_place_reference(&mut with_scan, tech, 7);

    assert_eq!(stats_index, stats_scan, "stats diverged");
    for (id, _) in layout.design().cells_iter() {
        assert_eq!(
            with_index.cell_pos(id),
            with_scan.cell_pos(id),
            "cell {} placed differently by index vs scan path",
            id.0
        );
    }
    with_index.check_consistency(tech).unwrap();
}

#[test]
fn quadrant_cap_replays_bit_identical() {
    let (tech, layout) = placed(11);
    let fp = *layout.floorplan();
    let schedule = vec![Blockage::new(0, fp.rows() / 2, 0, fp.cols() / 2, 0.10)];
    assert_replay_identical(&tech, &layout, schedule);
}

/// Near-zero budget over half the core forces heavy eviction, exercising
/// the compaction and find_gap fallbacks on both paths.
#[test]
fn dense_eviction_replays_bit_identical() {
    let (tech, layout) = placed(23);
    let fp = *layout.floorplan();
    let schedule = vec![Blockage::new(0, fp.rows(), 0, fp.cols() / 2, 0.02)];
    assert_replay_identical(&tech, &layout, schedule);
}

/// An LDA-like tiling: many small windows with mixed budgets.
#[test]
fn tiled_schedule_replays_bit_identical() {
    let (tech, layout) = placed(42);
    let fp = *layout.floorplan();
    let (rows, cols) = (fp.rows(), fp.cols());
    let mut schedule = Vec::new();
    let n = 4u32;
    for i in 0..n {
        for j in 0..n {
            let r0 = rows * i / n;
            let r1 = rows * (i + 1) / n;
            let c0 = cols * j / n;
            let c1 = cols * (j + 1) / n;
            // Deterministic mixed budgets, some tight, some loose.
            let dens = match (i + 2 * j) % 4 {
                0 => 0.08,
                1 => 0.35,
                2 => 0.60,
                _ => 0.90,
            };
            schedule.push(Blockage::new(r0, r1, c0, c1, dens));
        }
    }
    assert_replay_identical(&tech, &layout, schedule);
}

/// Back-to-back runs (LDA iterates eco_place): the second run starts from
/// the first run's layout, compounding any divergence — there must be none.
#[test]
fn iterated_runs_replay_bit_identical() {
    let (tech, layout) = placed(5);
    let fp = *layout.floorplan();
    let first = vec![Blockage::new(0, fp.rows() / 2, 0, fp.cols(), 0.15)];
    let second = vec![Blockage::new(
        fp.rows() / 4,
        fp.rows(),
        fp.cols() / 4,
        fp.cols(),
        0.20,
    )];

    let mut with_index = layout.clone();
    let mut with_scan = layout.clone();
    for schedule in [first, second] {
        with_index.set_blockages(schedule.clone());
        let si = place::eco_place(&mut with_index, &tech, 3);
        with_scan.set_blockages(schedule);
        let ss = place::eco_place_reference(&mut with_scan, &tech, 3);
        assert_eq!(si, ss);
    }
    for (id, _) in layout.design().cells_iter() {
        assert_eq!(with_index.cell_pos(id), with_scan.cell_pos(id));
    }
}

/// Sites occupied by functional cells inside `b`, as the legalizer counts
/// them.
fn occupied_sites(layout: &Layout, b: &Blockage) -> u64 {
    let d = layout
        .occupancy()
        .density_in(b.row0, b.row1, b.col0, b.col1);
    (d * b.num_sites() as f64).round() as u64
}

/// A density bound whose site budget is exactly `sites`.
fn density_for(b: &Blockage, sites: u64) -> f64 {
    ((sites as f64 + 0.5) / b.num_sites() as f64).min(1.0)
}

/// The `eco.*` counters the legalizer's skips bump.
fn skip_counters() -> (u64, u64) {
    let snap = obs::snapshot();
    (
        snap.counter("eco.compaction_skipped"),
        snap.counter("eco.gap_runs_skipped"),
    )
}

/// A full-core N×N tiling whose budgets sit one site above occupancy
/// (below every cell width), with every third tile squeezed to half its
/// occupancy so phase 1 evicts. No window can take a whole cell, so the
/// gap query jumps whole runs and compaction fails again and again at the
/// same widths — both skips must fire, and the result must still match
/// the unmemoized reference.
#[test]
fn saturated_tiling_replays_bit_identical_through_both_skips() {
    obs::set_enabled(true);
    let (tech, layout) = placed(17);
    let fp = *layout.floorplan();
    let (rows, cols) = (fp.rows(), fp.cols());
    let n = 6u32;
    let mut schedule = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let tile = Blockage::new(
                rows * i / n,
                rows * (i + 1) / n,
                cols * j / n,
                cols * (j + 1) / n,
                1.0,
            );
            let occ = occupied_sites(&layout, &tile);
            let budget = if (i * n + j).is_multiple_of(3) {
                occ / 2
            } else {
                occ + 1
            };
            schedule.push(Blockage::new(
                tile.row0,
                tile.row1,
                tile.col0,
                tile.col1,
                density_for(&tile, budget),
            ));
        }
    }
    let before = skip_counters();
    assert_replay_identical(&tech, &layout, schedule);
    // Counters are process-wide: concurrent cases can only add to the
    // deltas, so a legalizer whose skips never fire still fails here.
    let after = skip_counters();
    assert!(after.0 > before.0, "no compaction was skipped");
    assert!(after.1 > before.1, "no run was jumped");
}

/// Overlapping windows covering only part of the core: nested and
/// staggered, some saturated. Pins the column pointer and the run jump
/// outside LDA's disjoint tiling, where windows sorted by `col0` do not
/// end in order.
#[test]
fn overlapping_partial_windows_replay_bit_identical() {
    obs::set_enabled(true);
    let (tech, layout) = placed(29);
    let fp = *layout.floorplan();
    let (rows, cols) = (fp.rows(), fp.cols());
    let shapes = [
        // (row0, row1, col0, col1, budget as a share of occupancy; `None`
        // pins it one site above occupancy)
        (0, rows / 2, 0, cols * 3 / 4, Some(0.5)),
        (rows / 4, rows, cols / 8, cols / 3, None),
        (rows / 4, rows * 3 / 4, cols / 6, cols / 4, Some(0.0)),
        (1, rows - 1, cols / 2, cols - 2, None),
        (rows / 3, rows * 2 / 3, cols / 3, cols * 5 / 6, Some(0.7)),
    ];
    let schedule: Vec<Blockage> = shapes
        .iter()
        .map(|&(r0, r1, c0, c1, share)| {
            let tile = Blockage::new(r0, r1, c0, c1, 1.0);
            let occ = occupied_sites(&layout, &tile);
            let budget = share.map_or(occ + 1, |s: f64| (occ as f64 * s) as u64);
            Blockage::new(r0, r1, c0, c1, density_for(&tile, budget))
        })
        .collect();
    let before = skip_counters();
    assert_replay_identical(&tech, &layout, schedule);
    assert!(skip_counters().1 > before.1, "no run was jumped");
}

/// AES-scale replay: AES_1 (12k cells) under an LDA-like 8×8 tiling with
/// mixed budgets floored at 0.5. Unlike TINY, this layout reaches the
/// compaction fallback and its failed-width record. Release build:
/// `cargo test --release -p place --test gap_index_replay -- --include-ignored`.
#[test]
#[ignore = "AES-scale; run in release with --include-ignored"]
fn aes1_lda_tiling_replays_bit_identical() {
    let tech = Technology::nangate45_like();
    let spec = netlist::bench::spec_by_name("AES_1").expect("stock design");
    let design = netlist::bench::generate(&spec, &tech);
    let critical = design.critical_cells.clone();
    let mut layout = Layout::empty_floorplan(design, &tech, spec.utilization);
    place::global_place(&mut layout, &tech, spec.seed);
    place::refine_wirelength(&mut layout, &tech, 2, spec.seed);
    for &c in &critical {
        layout.occupancy_mut().lock(c);
    }
    let fp = *layout.floorplan();
    let (rows, cols) = (fp.rows(), fp.cols());
    let n = 8u32;
    let mut schedule = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let dens: f64 = match (i + 2 * j) % 4 {
                0 => 0.08,
                1 => 0.55,
                2 => 0.62,
                _ => 0.90,
            };
            schedule.push(Blockage::new(
                rows * i / n,
                rows * (i + 1) / n,
                cols * j / n,
                cols * (j + 1) / n,
                dens.max(0.5),
            ));
        }
    }
    let mut with_index = layout.clone();
    with_index.set_blockages(schedule.clone());
    let stats_index = place::eco_place(&mut with_index, &tech, 7);
    assert!(
        stats_index.replaced_fallback > 0,
        "fixture must reach the fallback"
    );
    let mut with_scan = layout.clone();
    with_scan.set_blockages(schedule);
    let stats_scan = place::eco_place_reference(&mut with_scan, &tech, 7);
    assert_eq!(stats_index, stats_scan, "stats diverged");
    for (id, _) in layout.design().cells_iter() {
        assert_eq!(
            with_index.cell_pos(id),
            with_scan.cell_pos(id),
            "cell {} placed differently by index vs scan path",
            id.0
        );
    }
}
