use geom::{Interval, Point, SitePos};
use layout::{Blockage, Layout, Occupancy};
use netlist::CellId;
use tech::Technology;

/// Outcome of an [`eco_place`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EcoPlaceStats {
    /// Cells evicted from over-budget blockage windows.
    pub evicted: usize,
    /// Cells successfully re-placed under all density bounds.
    pub replaced_in_bounds: usize,
    /// Cells re-placed by the fallback path (no in-bounds gap was found).
    pub replaced_fallback: usize,
}

/// Overlap in sites between a cell footprint on `row` spanning
/// `[col, col + width)` and a blockage window.
fn overlap_sites(b: &Blockage, row: u32, col: u32, width: u32) -> u32 {
    if row < b.row0 || row >= b.row1 {
        return 0;
    }
    let lo = col.max(b.col0);
    let hi = (col + width).min(b.col1);
    hi.saturating_sub(lo)
}

/// Current functional-cell occupancy of each blockage window, in sites.
fn blockage_occupancy(layout: &Layout) -> Vec<u64> {
    layout
        .blockages()
        .iter()
        .map(|b| {
            let d = layout
                .occupancy()
                .density_in(b.row0, b.row1, b.col0, b.col1);
            (d * b.num_sites() as f64).round() as u64
        })
        .collect()
}

/// Blockage indices per placement row (rows past `n_rows` are dropped),
/// each row sorted by `col0`. Built once per [`eco_place`] call: LDA
/// tiles the whole core, so a flat scan over all N² windows per query
/// would dominate, and the column order lets the gap query stop at the
/// first window right of a candidate.
fn blockages_by_row(blockages: &[Blockage], n_rows: u32) -> Vec<Vec<usize>> {
    let mut by_row: Vec<Vec<usize>> = vec![Vec::new(); n_rows as usize];
    for (bi, b) in blockages.iter().enumerate() {
        for row in b.row0..b.row1.min(n_rows) {
            by_row[row as usize].push(bi);
        }
    }
    for row in &mut by_row {
        row.sort_by_key(|&bi| (blockages[bi].col0, bi));
    }
    by_row
}

/// The windows of `by_row` covering `row`; none past its end.
fn row_windows(by_row: &[Vec<usize>], row: u32) -> &[usize] {
    by_row.get(row as usize).map_or(&[], Vec::as_slice)
}

/// `(window, overlap in sites)` for every window on `pos.row` that a
/// `width`-site footprint at `pos` touches.
fn footprint_overlaps<'a>(
    by_row: &'a [Vec<usize>],
    blockages: &'a [Blockage],
    pos: SitePos,
    width: u32,
) -> impl Iterator<Item = (usize, u64)> + 'a {
    row_windows(by_row, pos.row).iter().map(move |&bi| {
        let ov = overlap_sites(&blockages[bi], pos.row, pos.col, width);
        (bi, ov as u64)
    })
}

/// Phase 1: evicts the least-connected movable cells out of every
/// over-budget blockage window, updating `occupied` incrementally.
/// Returns the evicted cells in their deterministic eviction order.
///
/// Candidates come from a per-call bucket of the movable placed cells by
/// origin row (cells are one row tall), and each cell's degree is
/// computed at most once. Phase 1 only removes cells, so a bucketed cell
/// is either still at its bucketed position or gone; the sort key
/// `(degree, Reverse(overlap), id)` is a total order, so the eviction
/// order matches the all-cells sweep of [`evict_over_budget_scan`].
fn evict_over_budget(
    layout: &mut Layout,
    blockages: &[Blockage],
    by_row: &[Vec<usize>],
    occupied: &mut [u64],
    stats: &mut EcoPlaceStats,
) -> Vec<CellId> {
    let design = layout.design().clone();
    let clock = design.clock;
    let mut cells_by_row: Vec<Vec<CellId>> = vec![Vec::new(); by_row.len()];
    for (id, _) in design.cells_iter() {
        if layout.occupancy().is_locked(id) {
            continue;
        }
        if let Some(pos) = layout.cell_pos(id) {
            cells_by_row[pos.row as usize].push(id);
        }
    }
    let mut degree: Vec<Option<usize>> = vec![None; design.cells.len()];
    let mut evicted: Vec<CellId> = Vec::new();
    for (bi, b) in blockages.iter().enumerate() {
        if occupied[bi] <= b.site_budget() {
            continue;
        }
        // Movable cells whose footprint overlaps this window, least
        // connected first (cheapest to displace far away).
        let mut candidates: Vec<(usize, u32, CellId)> = Vec::new();
        for row in b.row0..b.row1.min(by_row.len() as u32) {
            for &id in &cells_by_row[row as usize] {
                let Some(pos) = layout.cell_pos(id) else {
                    continue; // evicted from an earlier window
                };
                let w = layout.occupancy().cell_width(id).expect("placed");
                let ov = overlap_sites(b, pos.row, pos.col, w);
                if ov > 0 {
                    let deg = *degree[id.0 as usize]
                        .get_or_insert_with(|| crate::global::neighbors(&design, id, clock).len());
                    candidates.push((deg, ov, id));
                }
            }
        }
        candidates.sort_by_key(|&(deg, ov, id)| (deg, std::cmp::Reverse(ov), id));
        for (_, ov, id) in candidates {
            if occupied[bi] <= b.site_budget() {
                break;
            }
            let pos = layout.cell_pos(id).expect("still placed");
            let w = layout.occupancy().cell_width(id).expect("placed");
            layout.occupancy_mut().remove_cell(id).expect("not locked");
            for (bj, ov) in footprint_overlaps(by_row, blockages, pos, w) {
                occupied[bj] -= ov;
            }
            debug_assert!(ov > 0);
            evicted.push(id);
            stats.evicted += 1;
        }
    }
    evicted
}

/// The all-cells-sweep [`evict_over_budget`] the reference legalizer
/// keeps, so the replay test pins the bucketed phase 1 as well.
fn evict_over_budget_scan(
    layout: &mut Layout,
    blockages: &[Blockage],
    occupied: &mut [u64],
    stats: &mut EcoPlaceStats,
) -> Vec<CellId> {
    let design = layout.design().clone();
    let clock = design.clock;
    let mut evicted: Vec<CellId> = Vec::new();
    for (bi, b) in blockages.iter().enumerate() {
        if occupied[bi] <= b.site_budget() {
            continue;
        }
        // Movable cells whose footprint overlaps this window, least
        // connected first (cheapest to displace far away).
        let mut candidates: Vec<(usize, u32, CellId)> = Vec::new();
        for (id, _) in design.cells_iter() {
            if layout.occupancy().is_locked(id) {
                continue;
            }
            let Some(pos) = layout.cell_pos(id) else {
                continue;
            };
            let w = layout.occupancy().cell_width(id).expect("placed");
            let ov = overlap_sites(b, pos.row, pos.col, w);
            if ov > 0 {
                let degree = crate::global::neighbors(&design, id, clock).len();
                candidates.push((degree, ov, id));
            }
        }
        candidates.sort_by_key(|&(deg, ov, id)| (deg, std::cmp::Reverse(ov), id));
        for (_, ov, id) in candidates {
            if occupied[bi] <= b.site_budget() {
                break;
            }
            let pos = layout.cell_pos(id).expect("still placed");
            let w = layout.occupancy().cell_width(id).expect("placed");
            layout.occupancy_mut().remove_cell(id).expect("not locked");
            // Update every window the footprint overlapped.
            for (bj, bb) in blockages.iter().enumerate() {
                occupied[bj] -= overlap_sites(bb, pos.row, pos.col, w) as u64;
            }
            debug_assert!(ov > 0);
            evicted.push(id);
            stats.evicted += 1;
        }
    }
    evicted
}

/// The wirelength-optimal target site for re-placing `id`: the median of
/// its placed neighbors' centers (the core center when it has none).
fn ideal_site(layout: &Layout, tech: &Technology, neigh: &[CellId]) -> SitePos {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in neigh {
        if layout.cell_pos(n).is_some() {
            let p = layout.cell_center(n, tech);
            xs.push(p.x);
            ys.push(p.y);
        }
    }
    let ideal = if xs.is_empty() {
        layout.floorplan().core_rect().center()
    } else {
        xs.sort_unstable();
        ys.sort_unstable();
        Point::new(xs[xs.len() / 2], ys[ys.len() / 2])
    };
    layout.floorplan().site_at(ideal)
}

/// Injection point covering ECO legalization: checked on entry and once per
/// re-placed cell (the legalizer-side granularity of the cooperative eval
/// deadline). A fault here unwinds mid-mutation; callers hand the legalizer
/// a candidate copy-on-write snapshot, which the evaluation sandbox discards
/// wholesale, so no half-legalized layout is ever observed.
static ECO_LEGALIZE: faults::Point = faults::Point::new("eco.legalize");

/// Incremental, blockage-aware ECO placement.
///
/// Innovus-style contract: cells already satisfying every partial placement
/// blockage stay put; windows whose functional-cell density exceeds their
/// bound evict their least-connected movable cells, which are then re-placed
/// as close as possible to the wirelength-optimal location *without*
/// violating any other window's budget. Locked (security-critical) cells are
/// never moved.
///
/// Gap queries run against the occupancy map's persistent per-row gap
/// index ([`layout::Occupancy::gaps`]) instead of scanning sites, and skip
/// work whose answer is already known: runs inside a window too full to
/// take the cell, and compactions at a width that already failed since the
/// last successful one. The selection semantics are bit-identical to the
/// scan-based reference ([`eco_place_reference`], pinned by the
/// `gap_index_replay` test).
///
/// `seed` is retained for API stability but no longer influences the
/// result: re-placement order is the total order
/// `(widest first, descending CellId)`, so the outcome is fully
/// determined by the layout and blockages.
///
/// Returns statistics about the incremental changes.
pub fn eco_place(layout: &mut Layout, tech: &Technology, seed: u64) -> EcoPlaceStats {
    let _ = seed;
    ECO_LEGALIZE.check();
    let design = layout.design().clone();
    let clock = design.clock;
    let blockages: Vec<Blockage> = layout.blockages().to_vec();
    let mut stats = EcoPlaceStats::default();
    if blockages.is_empty() {
        return stats;
    }
    let mut occupied = blockage_occupancy(layout);
    let by_row = blockages_by_row(&blockages, layout.floorplan().rows());

    // Phase 1: evict from over-budget windows.
    let mut evicted: Vec<CellId> = Vec::new();
    obs::span("eco.phase1", |sp| {
        evicted = evict_over_budget(layout, &blockages, &by_row, &mut occupied, &mut stats);
        obs::trace(obs::Topic::Lda, || {
            format!("  eco phase1 {:.2}s", sp.elapsed().as_secs_f64())
        });
    });
    let mut n_fallback_compact = 0usize;
    let mut n_compaction_skipped = 0usize;
    // Phase 2: re-place evicted cells near their wirelength-optimal spots.
    // Widest first: wide cells (flops) need long gaps, which narrower cells
    // would otherwise fragment. The CellId tie-break makes the key a total
    // order, so the result cannot depend on the (blockage-driven) eviction
    // order.
    obs::span("eco.phase2", |sp| {
        evicted.sort_by_key(|&id| {
            (
                std::cmp::Reverse(tech.library.kind(design.cell(id).kind).width_sites),
                std::cmp::Reverse(id),
            )
        });
        // Widths whose compaction failed since the last one that succeeded.
        // Between compactions phase 2 only inserts cells, which cannot make
        // a failed window qualify: free sites only shrink, window occupancy
        // only grows, locked and straddling cells stay, and the window set
        // depends only on the width and the core.
        let mut failed_widths: Vec<u32> = Vec::new();
        for id in evicted.iter().copied() {
            ECO_LEGALIZE.check();
            let w = tech.library.kind(design.cell(id).kind).width_sites;
            let neigh = crate::global::neighbors(&design, id, clock);
            let near = ideal_site(layout, tech, &neigh);
            let dest =
                find_gap_under_budgets(layout.occupancy(), &blockages, &by_row, &occupied, w, near);
            let pos = match dest {
                Some(pos) => {
                    stats.replaced_in_bounds += 1;
                    pos
                }
                None => {
                    // No ready-made gap: compact a row segment to create one
                    // (still respecting budgets), like a real incremental
                    // placer. Only if even that fails, place anywhere.
                    n_fallback_compact += 1;
                    let compacted = if failed_widths.contains(&w) {
                        n_compaction_skipped += 1;
                        None
                    } else {
                        let compacted = make_gap_by_compaction(
                            layout,
                            &blockages,
                            &by_row,
                            &mut occupied,
                            w,
                            near,
                        );
                        match compacted {
                            Some(_) => failed_widths.clear(),
                            None => failed_widths.push(w),
                        }
                        compacted
                    };
                    stats.replaced_fallback += 1;
                    compacted.unwrap_or_else(|| {
                        let fp = *layout.floorplan();
                        layout
                            .occupancy()
                            .find_gap(w, near, fp.rows().max(fp.cols()))
                            .expect("core has capacity for all cells")
                    })
                }
            };
            layout
                .occupancy_mut()
                .place_cell(id, w, pos)
                .expect("gap verified free");
            for (bj, ov) in footprint_overlaps(&by_row, &blockages, pos, w) {
                occupied[bj] += ov;
            }
        }
        obs::trace(obs::Topic::Lda, || {
            format!(
                "  eco phase2 {:.2}s (compaction fallbacks {}, skipped {})",
                sp.elapsed().as_secs_f64(),
                n_fallback_compact,
                n_compaction_skipped,
            )
        });
    });
    eco_metrics_record(&stats, n_fallback_compact, n_compaction_skipped);
    debug_assert!(layout.check_consistency(tech).is_ok());
    stats
}

/// Pre-index reference implementation of [`eco_place`]: identical
/// eviction, ordering, and gap-selection semantics, but every free-site
/// query runs against brute-force grid scans
/// ([`layout::Occupancy::empty_runs_scan`] /
/// [`layout::Occupancy::find_gap_scan`]) exactly like the legalizer the
/// gap index replaced. The `gap_index_replay` test asserts bit-identical
/// [`EcoPlaceStats`] and layouts between the two paths on fixed-seed
/// schedules.
#[doc(hidden)]
pub fn eco_place_reference(layout: &mut Layout, tech: &Technology, seed: u64) -> EcoPlaceStats {
    let _ = seed;
    let design = layout.design().clone();
    let clock = design.clock;
    let blockages: Vec<Blockage> = layout.blockages().to_vec();
    let mut stats = EcoPlaceStats::default();
    if blockages.is_empty() {
        return stats;
    }
    let mut occupied = blockage_occupancy(layout);
    let mut evicted = evict_over_budget_scan(layout, &blockages, &mut occupied, &mut stats);
    evicted.sort_by_key(|&id| {
        (
            std::cmp::Reverse(tech.library.kind(design.cell(id).kind).width_sites),
            std::cmp::Reverse(id),
        )
    });
    // Per-row empty-run cache rebuilt from grid scans after every
    // placement, as the pre-index legalizer did.
    let fp_rows = layout.floorplan().rows();
    let mut runs_cache: Vec<Vec<Interval>> = (0..fp_rows)
        .map(|r| layout.occupancy().empty_runs_scan(r))
        .collect();
    for id in evicted {
        let w = tech.library.kind(design.cell(id).kind).width_sites;
        let neigh = crate::global::neighbors(&design, id, clock);
        let near = ideal_site(layout, tech, &neigh);
        let dest = find_gap_under_budgets_scan(&runs_cache, &blockages, &occupied, w, near);
        match dest {
            Some(pos) => {
                layout
                    .occupancy_mut()
                    .place_cell(id, w, pos)
                    .expect("gap verified free");
                runs_cache[pos.row as usize] = layout.occupancy().empty_runs_scan(pos.row);
                for (bj, bb) in blockages.iter().enumerate() {
                    occupied[bj] += overlap_sites(bb, pos.row, pos.col, w) as u64;
                }
                stats.replaced_in_bounds += 1;
            }
            None => {
                let compacted = make_gap_by_compaction_impl(
                    layout,
                    &blockages,
                    &blockages_by_row(&blockages, fp_rows),
                    &mut occupied,
                    w,
                    near,
                    |l, r| l.occupancy().empty_runs_scan(r),
                );
                let pos = compacted.unwrap_or_else(|| {
                    let fp = *layout.floorplan();
                    layout
                        .occupancy()
                        .find_gap_scan(w, near, fp.rows().max(fp.cols()))
                        .expect("core has capacity for all cells")
                });
                layout
                    .occupancy_mut()
                    .place_cell(id, w, pos)
                    .expect("gap verified free");
                for r in 0..fp_rows {
                    runs_cache[r as usize] = layout.occupancy().empty_runs_scan(r);
                }
                for (bj, bb) in blockages.iter().enumerate() {
                    occupied[bj] += overlap_sites(bb, pos.row, pos.col, w) as u64;
                }
                stats.replaced_fallback += 1;
            }
        }
    }
    debug_assert!(layout.check_consistency(tech).is_ok());
    stats
}

/// Folds one run's [`EcoPlaceStats`] into the registry-backed ECO
/// counters (`eco.evicted`, `eco.replaced_in_bounds`,
/// `eco.replaced_fallback`, `eco.compaction_fallbacks`,
/// `eco.compaction_skipped`).
fn eco_metrics_record(stats: &EcoPlaceStats, n_fallback_compact: usize, n_skipped: usize) {
    struct EcoMetrics {
        evicted: obs::Counter,
        replaced_in_bounds: obs::Counter,
        replaced_fallback: obs::Counter,
        compaction_fallbacks: obs::Counter,
        compaction_skipped: obs::Counter,
    }
    static METRICS: std::sync::OnceLock<EcoMetrics> = std::sync::OnceLock::new();
    let m = METRICS.get_or_init(|| EcoMetrics {
        evicted: obs::counter("eco.evicted"),
        replaced_in_bounds: obs::counter("eco.replaced_in_bounds"),
        replaced_fallback: obs::counter("eco.replaced_fallback"),
        compaction_fallbacks: obs::counter("eco.compaction_fallbacks"),
        compaction_skipped: obs::counter("eco.compaction_skipped"),
    });
    m.evicted.add(stats.evicted as u64);
    m.replaced_in_bounds.add(stats.replaced_in_bounds as u64);
    m.replaced_fallback.add(stats.replaced_fallback as u64);
    m.compaction_fallbacks.add(n_fallback_compact as u64);
    m.compaction_skipped.add(n_skipped as u64);
}

/// Registry handles for the gap-index query telemetry.
struct GapMetrics {
    /// Budget-constrained nearest-gap queries issued by phase 2.
    queries: obs::Counter,
    /// Queries answered with an in-bounds gap (no fallback needed).
    hits: obs::Counter,
    /// Free runs examined per query after window skips (the index's unit
    /// of work; the pre-index scan examined every *site* instead).
    scan_len: obs::Histogram,
    /// Free runs jumped because they lie inside a window too full to
    /// take the cell.
    runs_skipped: obs::Counter,
}

fn gap_metrics() -> &'static GapMetrics {
    static METRICS: std::sync::OnceLock<GapMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| GapMetrics {
        queries: obs::counter("eco.gap_queries"),
        hits: obs::counter("eco.gap_hit"),
        scan_len: obs::histogram("eco.gap_scan_len"),
        runs_skipped: obs::counter("eco.gap_runs_skipped"),
    })
}

/// Creates a gap of `width` contiguous sites by compacting the cells of a
/// row window leftward, then returns the placement origin at the window's
/// right end. Rows are tried nearest-first; a window qualifies when it
/// holds `width` free sites, contains no locked cell, and every blockage it
/// touches has at least `width` sites of headroom left. Moved cells update
/// `occupied` incrementally. `by_row` is [`blockages_by_row`] of
/// `blockages`.
///
/// Free-site counts come from the occupancy map's gap index (cumulative
/// run lengths, O(log g) per window query) instead of per-row site scans.
pub(crate) fn make_gap_by_compaction(
    layout: &mut Layout,
    blockages: &[Blockage],
    by_row: &[Vec<usize>],
    occupied: &mut [u64],
    width: u32,
    near: SitePos,
) -> Option<SitePos> {
    make_gap_by_compaction_impl(layout, blockages, by_row, occupied, width, near, |l, r| {
        l.occupancy().empty_runs(r)
    })
}

/// [`make_gap_by_compaction`] parameterized over the free-run provider,
/// so the reference legalizer can run the same window search on
/// brute-force scans.
fn make_gap_by_compaction_impl(
    layout: &mut Layout,
    blockages: &[Blockage],
    by_row: &[Vec<usize>],
    occupied: &mut [u64],
    width: u32,
    near: SitePos,
    runs_of: impl Fn(&Layout, u32) -> Vec<Interval>,
) -> Option<SitePos> {
    let fp = *layout.floorplan();
    let cols = fp.cols();
    let mut rows: Vec<u32> = (0..fp.rows()).collect();
    rows.sort_by_key(|r| r.abs_diff(near.row));
    // Per probed row, lazily: the free runs and their cumulative lengths
    // (`cum[i]` = free sites in runs `0..i`). A window's free count is
    // then two binary searches instead of a site scan. The layout is
    // read-only until the final compaction, so rows stay valid for the
    // whole call.
    let mut free_runs: Vec<Option<(Vec<Interval>, Vec<u32>)>> = vec![None; fp.rows() as usize];
    let free_in = |layout: &Layout,
                   memo: &mut [Option<(Vec<Interval>, Vec<u32>)>],
                   row: u32,
                   c0: u32,
                   c1: u32|
     -> u32 {
        let (runs, cum) = memo[row as usize].get_or_insert_with(|| {
            let runs = runs_of(layout, row);
            let mut cum = Vec::with_capacity(runs.len() + 1);
            cum.push(0u32);
            for r in &runs {
                cum.push(cum.last().unwrap() + r.len());
            }
            (runs, cum)
        });
        let free_before = |x: u32| -> u32 {
            let j = runs.partition_point(|iv| iv.hi <= x);
            let partial = if j < runs.len() && runs[j].lo < x {
                x - runs[j].lo
            } else {
                0
            };
            cum[j] + partial
        };
        free_before(c1) - free_before(c0)
    };
    // Dense layouts need wider windows to scrape `width` free sites
    // together; escalate the window span until one qualifies.
    for span in [width * 3, width * 8, width * 20, cols] {
        let span = span.min(cols);
        for &row in &rows {
            if free_in(layout, &mut free_runs, row, 0, cols) < width {
                continue;
            }
            // Sliding window over [c0, c0 + span).
            let mut c0 = 0u32;
            while c0 + span <= cols {
                if free_in(layout, &mut free_runs, row, c0, c0 + span) < width {
                    c0 += span / 2 + 1;
                    continue;
                }
                // Cheap rejections first: every blockage the window touches
                // needs headroom before the per-cell scan is worth running.
                let headroom_ok = row_windows(by_row, row).iter().all(|&bi| {
                    let b = &blockages[bi];
                    overlap_sites(b, row, c0, span) == 0
                        || occupied[bi] + width as u64 <= b.site_budget()
                });
                if !headroom_ok {
                    c0 += span / 2 + 1;
                    continue;
                }
                // Collect the cells whose origin lies in the window; reject
                // windows with locked or boundary-straddling cells.
                let mut cells: Vec<(netlist::CellId, SitePos, u32)> = Vec::new();
                let mut ok = true;
                let mut c = c0;
                while c < c0 + span {
                    match layout.occupancy().state(SitePos::new(row, c)) {
                        layout::SiteState::Cell(id) => {
                            let pos = layout.occupancy().cell_pos(id).expect("placed");
                            let w = layout.occupancy().cell_width(id).expect("placed");
                            if pos.col < c0
                                || pos.col + w > c0 + span
                                || layout.occupancy().is_locked(id)
                            {
                                ok = false;
                                break;
                            }
                            if cells.last().map(|&(l, _, _)| l) != Some(id) {
                                cells.push((id, pos, w));
                            }
                            c = pos.col + w;
                        }
                        _ => c += 1,
                    }
                }
                if !ok {
                    c0 += span / 2 + 1;
                    continue;
                }
                // Compact leftward.
                let mut cursor = c0;
                for &(id, pos, w) in &cells {
                    if pos.col > cursor {
                        let to = SitePos::new(row, cursor);
                        layout
                            .occupancy_mut()
                            .move_cell(id, to)
                            .expect("window is self-contained");
                        for (bi, ov) in footprint_overlaps(by_row, blockages, pos, w) {
                            occupied[bi] -= ov;
                        }
                        for (bi, ov) in footprint_overlaps(by_row, blockages, to, w) {
                            occupied[bi] += ov;
                        }
                    }
                    cursor += w;
                }
                debug_assert!(c0 + span - cursor >= width);
                return Some(SitePos::new(row, c0 + span - width));
            }
        }
    }
    None
}

/// Nearest empty gap of `width` sites around `near` whose occupation keeps
/// every blockage within budget, read from the occupancy map's gap index.
/// `by_row` is [`blockages_by_row`] of `blockages`.
///
/// Candidate order and tie-breaks replicate the scan-based reference
/// ([`find_gap_under_budgets_scan`]) exactly: rows in ascending order
/// with a distance prune, runs left to right with the distance-optimal
/// origin plus the run ends (so budget rejections can slide along the
/// run), strict improvement on the Chebyshev distance. Three skips drop
/// only work that cannot change the answer:
///
/// - an in-row break once runs start too far right of the target to win;
/// - a jump past every run lying inside one window whose headroom
///   (`site_budget − occupied`) is below `width` — every origin in such a
///   run overlaps that window by `width`, so none fits;
/// - budget checks against only the windows a candidate can overlap:
///   from a column pointer that only moves forward (every window behind
///   it ends at or before the current run's start) up to the first
///   window starting at or after the footprint's end.
fn find_gap_under_budgets(
    occ: &Occupancy,
    blockages: &[Blockage],
    by_row: &[Vec<usize>],
    occupied: &[u64],
    width: u32,
    near: SitePos,
) -> Option<SitePos> {
    let n_rows = occ.floorplan().rows();
    let gm = gap_metrics();
    gm.queries.incr();
    let hopeless = |bi: usize| occupied[bi] + width as u64 > blockages[bi].site_budget();
    let mut scanned = 0u64;
    let mut skipped = 0u64;
    let mut best: Option<(u32, SitePos)> = None;
    for row in 0..n_rows {
        let dr = row.abs_diff(near.row);
        if let Some((bd, _)) = best {
            if dr >= bd {
                continue;
            }
        }
        let runs = occ.gaps(row);
        let windows = row_windows(by_row, row);
        let mut first = 0usize;
        let mut i = 0usize;
        while let Some(&run) = runs.get(i) {
            if let Some((bd, _)) = best {
                if run.lo > near.col && run.lo - near.col >= bd {
                    break;
                }
            }
            while windows
                .get(first)
                .is_some_and(|&bi| blockages[bi].col1 <= run.lo)
            {
                first += 1;
            }
            let live = &windows[first..];
            let full = live
                .iter()
                .take_while(|&&bi| blockages[bi].col0 <= run.lo)
                .find(|&&bi| run.hi <= blockages[bi].col1 && hopeless(bi));
            if let Some(&bi) = full {
                let end = i + runs[i..].partition_point(|iv| iv.hi <= blockages[bi].col1);
                debug_assert!(end > i, "the window contains run {i}");
                skipped += (end - i) as u64;
                i = end;
                continue;
            }
            i += 1;
            scanned += 1;
            if run.len() < width {
                continue;
            }
            let lo = run.lo;
            let hi = run.hi - width;
            // Try the distance-optimal origin plus the run ends, so budget
            // rejections can slide along the run.
            let clamped = near.col.clamp(lo, hi);
            for col in [clamped, lo, hi] {
                let d = dr.max(col.abs_diff(near.col));
                if best.is_some_and(|(bd, _)| d >= bd) {
                    continue;
                }
                let fits_budget = live
                    .iter()
                    .take_while(|&&bi| blockages[bi].col0 < col + width)
                    .all(|&bi| {
                        let b = &blockages[bi];
                        let ov = overlap_sites(b, row, col, width) as u64;
                        ov == 0 || occupied[bi] + ov <= b.site_budget()
                    });
                if fits_budget {
                    best = Some((d, SitePos::new(row, col)));
                }
            }
        }
    }
    gm.scan_len.record(scanned);
    gm.runs_skipped.add(skipped);
    if best.is_some() {
        gm.hits.incr();
    }
    best.map(|(_, p)| p)
}

/// The pre-index [`find_gap_under_budgets`] over a caller-maintained
/// per-row run cache; retained as the reference the index-backed query is
/// pinned against.
fn find_gap_under_budgets_scan(
    runs_cache: &[Vec<Interval>],
    blockages: &[Blockage],
    occupied: &[u64],
    width: u32,
    near: SitePos,
) -> Option<SitePos> {
    let n_rows = runs_cache.len() as u32;
    let mut by_row: Vec<Vec<usize>> = vec![Vec::new(); n_rows as usize];
    for (bi, b) in blockages.iter().enumerate() {
        for row in b.row0..b.row1.min(n_rows) {
            by_row[row as usize].push(bi);
        }
    }
    let mut best: Option<(u32, SitePos)> = None;
    for row in 0..n_rows {
        let dr = row.abs_diff(near.row);
        if let Some((bd, _)) = best {
            if dr >= bd {
                continue;
            }
        }
        for run in runs_cache[row as usize].iter().copied() {
            if run.len() < width {
                continue;
            }
            let lo = run.lo;
            let hi = run.hi - width;
            let clamped = near.col.clamp(lo, hi);
            for col in [clamped, lo, hi] {
                let d = dr.max(col.abs_diff(near.col));
                if best.is_some_and(|(bd, _)| d >= bd) {
                    continue;
                }
                let fits_budget = by_row[row as usize].iter().all(|&bi| {
                    let b = &blockages[bi];
                    let ov = overlap_sites(b, row, col, width) as u64;
                    ov == 0 || occupied[bi] + ov <= b.site_budget()
                });
                if fits_budget {
                    best = Some((d, SitePos::new(row, col)));
                }
            }
        }
    }
    best.map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::bench;

    fn placed() -> (Technology, Layout) {
        let tech = Technology::nangate45_like();
        let design = bench::generate(&bench::tiny_spec(), &tech);
        let mut layout = Layout::empty_floorplan(design, &tech, 0.6);
        crate::global_place(&mut layout, &tech, 11);
        (tech, layout)
    }

    #[test]
    fn noop_without_blockages() {
        let (tech, mut layout) = placed();
        let stats = eco_place(&mut layout, &tech, 1);
        assert_eq!(stats, EcoPlaceStats::default());
    }

    #[test]
    fn enforces_density_bound() {
        let (tech, mut layout) = placed();
        let fp = *layout.floorplan();
        // Cap the lower-left quadrant at 10 % density.
        let b = Blockage::new(0, fp.rows() / 2, 0, fp.cols() / 2, 0.10);
        layout.set_blockages(vec![b]);
        let before = layout
            .occupancy()
            .density_in(b.row0, b.row1, b.col0, b.col1);
        let stats = eco_place(&mut layout, &tech, 2);
        let after = layout
            .occupancy()
            .density_in(b.row0, b.row1, b.col0, b.col1);
        assert!(before > 0.3, "quadrant was not populated: {before}");
        assert!(after <= 0.11, "bound not enforced: {after}");
        assert!(stats.evicted > 0);
        assert_eq!(
            stats.evicted,
            stats.replaced_in_bounds + stats.replaced_fallback
        );
        layout.check_consistency(&tech).unwrap();
    }

    #[test]
    fn locked_cells_survive_eviction() {
        let (tech, mut layout) = placed();
        let fp = *layout.floorplan();
        let critical = layout.design().critical_cells.clone();
        for &c in &critical {
            layout.occupancy_mut().lock(c);
        }
        let before: Vec<_> = critical.iter().map(|&c| layout.cell_pos(c)).collect();
        layout.set_blockages(vec![Blockage::new(0, fp.rows(), 0, fp.cols(), 0.05)]);
        eco_place(&mut layout, &tech, 3);
        let after: Vec<_> = critical.iter().map(|&c| layout.cell_pos(c)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn every_cell_remains_placed() {
        let (tech, mut layout) = placed();
        let fp = *layout.floorplan();
        layout.set_blockages(vec![Blockage::new(0, fp.rows(), 0, fp.cols() / 2, 0.0)]);
        eco_place(&mut layout, &tech, 4);
        for (id, _) in layout.design().cells_iter() {
            assert!(layout.cell_pos(id).is_some(), "cell {} lost", id.0);
        }
        layout.check_consistency(&tech).unwrap();
    }

    /// Phase 2's re-placement key is a total order (widest first,
    /// CellId tie-break), so the seed no longer influences the result:
    /// any two seeds must produce bit-identical layouts and stats.
    #[test]
    fn replacement_order_is_seed_independent() {
        let (tech, layout) = placed();
        let fp = *layout.floorplan();
        let b = Blockage::new(0, fp.rows() / 2, 0, fp.cols(), 0.15);
        let run = |seed: u64| {
            let mut l = layout.clone();
            l.set_blockages(vec![b]);
            let stats = eco_place(&mut l, &tech, seed);
            (stats, l)
        };
        let (stats_a, la) = run(1);
        let (stats_b, lb) = run(0xDEAD_BEEF);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.evicted > 0, "fixture must actually evict");
        for (id, _) in la.design().cells_iter() {
            assert_eq!(la.cell_pos(id), lb.cell_pos(id), "cell {} diverged", id.0);
        }
    }
}
