//! The modulo reservation table: which units of each reservation row
//! ([`cfp_machine::Mdes::reservations`]) are taken at each residue of
//! one II. An op at flat slot `s` (negative too) holds its rows at
//! residues `(s + dt) mod II`, `dt < reserved`, in every iteration at
//! once. The heuristic ([`crate::modulo`]) places with
//! [`Mrt::first_fit`] and [`Mrt::reserve`], the exact solver
//! ([`crate::exact`]) probes with [`Mrt::fits`] and backtracks with
//! [`Mrt::release`], and the validator replays a schedule through
//! [`Mrt::fits`] and [`Mrt::reserve`]: whether an op fits at a residue is
//! decided in one place. A reservation longer than the II wraps onto
//! itself: [`Mrt::fits`] counts its wrapped copies, [`Mrt::first_fit`]
//! refuses it, as the heuristic always has.

use crate::error::{Fuel, SchedError};
use cfp_machine::ResReq;

/// The reservation table of one II: a count per `(row, residue)` cell
/// and, per row, a bitmap of its full residues — bit `r` set exactly
/// when cell `r`'s count has reached the row's units, so a row with no
/// units is full everywhere.
#[derive(Debug, Default)]
pub(crate) struct Mrt {
    ii: u32,
    /// Bitmap words per row, `ii.div_ceil(64)`; the bits from `ii` up
    /// are clear.
    words: usize,
    units: Vec<u32>,
    /// Cell `(row, residue)` at `row·ii + residue`.
    counts: Vec<u32>,
    /// Row `row`'s bitmap at `full[row·words..][..words]`.
    full: Vec<u64>,
}

impl Mrt {
    /// An empty table at `ii` over rows of `row_units` units each.
    pub(crate) fn new(row_units: &[u32], ii: u32) -> Self {
        let mut table = Mrt::default();
        table.reset(row_units, ii);
        table
    }

    /// [`Mrt::new`] in this table's buffers, so the heuristic's II
    /// attempts allocate nothing once they have grown.
    pub(crate) fn reset(&mut self, row_units: &[u32], ii: u32) {
        debug_assert!(ii > 0, "an initiation interval is at least one cycle");
        let (n, words) = (ii as usize, (ii as usize).div_ceil(64));
        (self.ii, self.words) = (ii, words);
        self.units.clear();
        self.units.extend_from_slice(row_units);
        self.counts.clear();
        self.counts.resize(row_units.len() * n, 0);
        self.full.clear();
        self.full.resize(row_units.len() * words, 0);
        for (row, _) in row_units.iter().enumerate().filter(|&(_, &k)| k == 0) {
            let bits = &mut self.full[row * words..][..words];
            bits.fill(u64::MAX);
            bits[words - 1] >>= 64 * words - n;
        }
    }

    /// Whether an op reserving `reqs` (distinct rows, as
    /// [`cfp_machine::Mdes::reservations`] lists them) fits at flat slot
    /// `slot`: every cell it covers stays within its row's units.
    pub(crate) fn fits(&self, reqs: &[ResReq], slot: i64) -> bool {
        reqs.iter().all(|r| {
            let units = self.units[r.row as usize];
            cells(self.ii, r, slot).all(|(cell, _, own)| self.counts[cell] + own < units)
        })
    }

    /// Take the cells of an op reserving `reqs` at flat slot `slot`.
    pub(crate) fn reserve(&mut self, reqs: &[ResReq], slot: i64) {
        self.update(reqs, slot, true);
    }

    /// Give back what [`Mrt::reserve`] of the same `reqs` and `slot` took.
    pub(crate) fn release(&mut self, reqs: &[ResReq], slot: i64) {
        self.update(reqs, slot, false);
    }

    /// Count the cells of `reqs` at `slot` up (`take`) or down, and set
    /// each one's full bit to whether it has reached its row's units.
    fn update(&mut self, reqs: &[ResReq], slot: i64, take: bool) {
        for r in reqs {
            let units = self.units[r.row as usize];
            for (cell, res, _) in cells(self.ii, r, slot) {
                let count = &mut self.counts[cell];
                *count = if take { *count + 1 } else { *count - 1 };
                let full = u64::from(*count >= units) << (res % 64);
                let word = &mut self.full[r.row as usize * self.words + res / 64];
                *word = *word & !(1 << (res % 64)) | full;
            }
        }
    }

    /// The first slot of `est..est + ii` where every reservation of
    /// `reqs` finds room; `None` when none does or one is longer than the
    /// II. A candidate at residue `s` is blocked when a reserved window
    /// `s..s + reserved` covers a full residue, so OR-ing each row's
    /// bitmap rotated by `0..reserved` decides 64 candidates at a time,
    /// in circular order from `est mod ii`. Fuel is charged as the
    /// one-slot-at-a-time scan charged it (`found − est + 1`, or the
    /// whole window), so slot, fuel and the exhaustion point are its.
    pub(crate) fn first_fit(
        &self,
        reqs: &[ResReq],
        est: u32,
        fuel: &mut Fuel,
    ) -> Result<Option<u32>, SchedError> {
        let ii = self.ii;
        // The window is `ii` candidates unless `est + ii` saturates.
        let span = est.saturating_add(ii) - est;
        let (n, start, words) = (ii as usize, (est % ii) as usize, self.words);
        // Word `w` of the blocked mask: bit `j` set when the candidate at
        // residue `64·w + j` runs into a full residue.
        let blocked = |w: usize| {
            let mut mask = 0;
            for r in reqs {
                let row = &self.full[r.row as usize * words..][..words];
                for dt in 0..r.reserved as usize {
                    // `64·w` and `dt` are both below `n`.
                    let p = 64 * w + dt;
                    mask |= window(row, if p >= n { p - n } else { p }, n);
                }
            }
            mask
        };
        let mut offset = None;
        if reqs.iter().all(|r| r.reserved <= ii) {
            // Circular order from `start`: its word from `start` on, the
            // words after it, the words before it, its word below `start`.
            let (first, lead) = (start / 64, start % 64);
            for (k, w) in (first..words).chain(0..=first).enumerate() {
                let mut free = !blocked(w);
                if w == first {
                    let from_start = u64::MAX << lead;
                    free &= if k == 0 { from_start } else { !from_start };
                }
                if w == words - 1 && n % 64 != 0 {
                    free &= (1 << (n % 64)) - 1; // no residue from `n` up
                }
                if free != 0 {
                    let f = 64 * w + free.trailing_zeros() as usize;
                    // Below `n`, so below `ii`.
                    offset = Some(((f + n - start) % n) as u32).filter(|&o| o < span);
                    break;
                }
            }
        }
        match offset {
            Some(o) => {
                fuel.spend(u64::from(o) + 1)?;
                Ok(Some(est + o))
            }
            None => {
                fuel.spend(u64::from(span))?;
                Ok(None)
            }
        }
    }
}

/// Each cycle `dt` of reservation `r` by an op at flat slot `slot`, at
/// II `ii`: its cell's index in [`Mrt`]'s counts, its residue, and
/// `dt / ii`, how many earlier cycles of the reservation share it.
fn cells(ii: u32, r: &ResReq, slot: i64) -> impl Iterator<Item = (usize, usize, u32)> {
    let (n, start) = (ii as usize, slot.rem_euclid(i64::from(ii)) as usize);
    let (base, mut res, mut own) = (r.row as usize * n, start, 0);
    (0..r.reserved).map(move |_| {
        let cell = (base + res, res, own);
        res = if res + 1 == n { 0 } else { res + 1 };
        own += u32::from(res == start); // a lap completed
        cell
    })
}

/// Bits `p..p + 64` of the circular `n`-bit vector `bits` (whose bits
/// from `n` up are clear), bit `p` lowest. Filling word `w` of a rotated
/// copy, its bits from `n − 64·w` up stand for no residue and are left
/// unspecified.
fn window(bits: &[u64], p: usize, n: usize) -> u64 {
    let linear = |p: usize| {
        let (w, b) = (p / 64, p % 64);
        let lo = bits.get(w).map_or(0, |x| x >> b);
        let hi = if b == 0 {
            0
        } else {
            bits.get(w + 1).map_or(0, |x| x << (64 - b))
        };
        lo | hi
    };
    if p == 0 || p + 64 <= n {
        linear(p)
    } else {
        // Past `n` the window wraps to bit 0 — once, since either
        // `n > 64` or the positions past `n` are meaningless.
        linear(p) | linear(0) << (n - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_testkit::Rng;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    impl Mrt {
        fn count(&self, row: usize, res: usize) -> u32 {
            self.counts[row * self.ii as usize + res]
        }

        fn is_full(&self, row: usize, res: usize) -> bool {
            self.full[row * self.words + res / 64] >> (res % 64) & 1 == 1
        }
    }

    /// The count loops the table replaced, transcribed: the exact
    /// solver's `fits`, `place` and `unplace` over one `(row, residue)`
    /// count vector, and the heuristic's rule that a cell at or above its
    /// units is full (which `search_ii` set on placement and never
    /// cleared — it never unplaced).
    struct Counts {
        ii: i64,
        units: Vec<u32>,
        counts: Vec<u32>,
    }

    impl Counts {
        fn new(units: &[u32], ii: u32) -> Self {
            Counts {
                ii: i64::from(ii),
                units: units.to_vec(),
                counts: vec![0_u32; units.len() * ii as usize],
            }
        }

        fn fits(&self, reqs: &[ResReq], s: i64) -> bool {
            let stride = self.ii as usize;
            reqs.iter().all(|r| {
                let units = self.units[r.row as usize];
                (0..i64::from(r.reserved)).all(|dt| {
                    let residue = (s + dt).rem_euclid(self.ii) as usize;
                    let own = (dt / self.ii) as u32;
                    self.counts[r.row as usize * stride + residue] + own < units
                })
            })
        }

        fn add(&mut self, reqs: &[ResReq], s: i64, by: i32) {
            let stride = self.ii as usize;
            for r in reqs {
                for dt in 0..i64::from(r.reserved) {
                    let residue = (s + dt).rem_euclid(self.ii) as usize;
                    let cell = &mut self.counts[r.row as usize * stride + residue];
                    *cell = cell.checked_add_signed(by).expect("no cell below zero");
                }
            }
        }

        fn full(&self, row: usize, res: usize) -> bool {
            self.counts[row * self.ii as usize + res] >= self.units[row]
        }
    }

    /// Unit counts per row: a missing unit now and then, and rows wider
    /// than a 64-bit word.
    fn random_units(rng: &mut Rng, rows: usize) -> Vec<u32> {
        (0..rows)
            .map(|_| match rng.below(10) {
                0 => 0,
                1 => 65 + rng.below(8) as u32,
                _ => 1 + rng.below(3) as u32,
            })
            .collect()
    }

    /// An op's reservations: distinct rows, short or up to two IIs long.
    fn random_reqs(rng: &mut Rng, rows: usize, ii: u32) -> Vec<ResReq> {
        let first = rng.index(rows);
        let rows = [first, (first + 1 + rng.index(rows)) % rows];
        let count = if rows[0] == rows[1] {
            1
        } else {
            1 + rng.index(2)
        };
        rows[..count]
            .iter()
            .map(|&row| ResReq {
                row: row as u32,
                reserved: 1 + match rng.below(3) {
                    0 => rng.below(2 * u64::from(ii) + 2),
                    _ => rng.below(4),
                } as u32,
            })
            .collect()
    }

    fn random_ii(rng: &mut Rng) -> u32 {
        match rng.below(4) {
            0 => 60 + rng.below(80) as u32, // past 64 and 128
            _ => 1 + rng.below(12) as u32,
        }
    }

    #[test]
    fn the_table_tracks_the_count_loops_it_replaced() {
        // Steps that reserved, released, and reset, reservations longer
        // than the II that fit, and full bits a release cleared.
        let seen = [(); 4].map(|()| AtomicU64::new(0));
        let bump = |k: usize| seen[k].fetch_add(1, Relaxed);
        cfp_testkit::cases(0x3a7_0001, 300, |rng| {
            let rows = 1 + rng.index(4);
            let mut units = random_units(rng, rows);
            let mut ii = random_ii(rng);
            let mut table = Mrt::new(&units, ii);
            let mut want = Counts::new(&units, ii);
            let mut held: Vec<(Vec<ResReq>, i64)> = Vec::new();
            for _ in 0..40 {
                match rng.below(12) {
                    0 => {
                        // A reused table, as the heuristic's arena keeps it.
                        let rows = 1 + rng.index(4);
                        units = random_units(rng, rows);
                        ii = random_ii(rng);
                        table.reset(&units, ii);
                        want = Counts::new(&units, ii);
                        held.clear();
                        bump(2);
                    }
                    1..=3 if !held.is_empty() => {
                        let (reqs, slot) = held.swap_remove(rng.index(held.len()));
                        let was_full: Vec<bool> = cells_of(&reqs, slot, ii)
                            .map(|(r, c)| table.is_full(r, c))
                            .collect();
                        table.release(&reqs, slot);
                        want.add(&reqs, slot, -1);
                        let mut now = cells_of(&reqs, slot, ii).map(|(r, c)| table.is_full(r, c));
                        if was_full.iter().zip(&mut now).any(|(&was, now)| was && !now) {
                            bump(3);
                        }
                        bump(1);
                    }
                    _ => {
                        let reqs = random_reqs(rng, units.len(), ii);
                        // Slots several IIs either side of zero.
                        let slot = rng.range_i64(-3 * i64::from(ii) - 5..=3 * i64::from(ii) + 5);
                        let fits = table.fits(&reqs, slot);
                        assert_eq!(fits, want.fits(&reqs, slot), "ii={ii} {reqs:?} @ {slot}");
                        if fits {
                            table.reserve(&reqs, slot);
                            want.add(&reqs, slot, 1);
                            if reqs.iter().any(|r| r.reserved > ii) {
                                bump(0);
                            }
                            held.push((reqs, slot));
                        }
                    }
                }
                for row in 0..units.len() {
                    for res in 0..ii as usize {
                        let (count, full) =
                            (want.counts[row * ii as usize + res], want.full(row, res));
                        assert_eq!(
                            table.count(row, res),
                            count,
                            "ii={ii} {units:?} ({row}, {res})"
                        );
                        assert_eq!(
                            table.is_full(row, res),
                            full,
                            "ii={ii} {units:?} ({row}, {res})"
                        );
                    }
                    // No stray bit past the II.
                    let last = table.full[row * table.words + table.words - 1];
                    if ii % 64 != 0 {
                        assert_eq!(last >> (ii % 64), 0, "ii={ii} {units:?} row {row}");
                    }
                }
            }
        });
        let [wrapped, released, resets, cleared] = seen.map(AtomicU64::into_inner);
        assert!(
            wrapped > 50 && released > 500 && resets > 50 && cleared > 50,
            "thin coverage: {wrapped} wrapped, {released} released, {resets} resets, \
             {cleared} full bits cleared"
        );
    }

    /// Every `(row, residue)` cell `reqs` covers at `slot`.
    fn cells_of(reqs: &[ResReq], slot: i64, ii: u32) -> impl Iterator<Item = (usize, usize)> + '_ {
        reqs.iter().flat_map(move |r| {
            (0..i64::from(r.reserved)).map(move |dt| {
                (
                    r.row as usize,
                    (slot + dt).rem_euclid(i64::from(ii)) as usize,
                )
            })
        })
    }

    /// The scan `first_fit` replaces: every candidate probed in turn.
    fn linear_first_fit(
        rows: &[u32],
        row_units: &[u32],
        ii: u32,
        reqs: &[ResReq],
        est: u32,
        fuel: &mut Fuel,
    ) -> Result<Option<u32>, SchedError> {
        for slot in est..est.saturating_add(ii) {
            fuel.spend(1)?;
            let fits = reqs.iter().all(|r| {
                r.reserved <= ii
                    && (0..r.reserved).all(|dt| {
                        let cell = r.row as usize * ii as usize + ((slot + dt) % ii) as usize;
                        rows[cell] < row_units[r.row as usize]
                    })
            });
            if fits {
                return Ok(Some(slot));
            }
        }
        Ok(None)
    }

    /// `first_fit` against [`linear_first_fit`] on `count` random
    /// reservation tables at IIs up to `max_ii`: the same slot for the
    /// same fuel, exactly that fuel reproduces it and one step less runs
    /// dry. The table's occupancy is built through [`Mrt::reserve`].
    /// Returns how many searches found a slot past the end of the II's
    /// first lap (`est mod II` wrapped to residue 0), past 64 candidates
    /// (a later bitmap word), and none at all.
    fn first_fit_agrees_with_the_linear_scan(seed: u64, count: u64, max_ii: u64) -> [u64; 3] {
        let seen = [(); 3].map(|()| AtomicU64::new(0));
        cfp_testkit::cases(seed, count, |rng| {
            let ii = 1 + rng.below(max_ii) as u32;
            let n_rows = 1 + rng.index(3);
            let row_units = random_units(rng, n_rows);
            // Random occupancy, dense enough that windows collide.
            let dense = rng.below(4);
            let mut table = Mrt::new(&row_units, ii);
            let mut rows = vec![0_u32; n_rows * ii as usize];
            for (k, cell) in rows.iter_mut().enumerate() {
                let units = row_units[k / ii as usize];
                let take = if rng.below(4) < dense {
                    u64::from(units)
                } else {
                    rng.below(u64::from(units) + 1)
                };
                *cell = u32::try_from(take).expect("at most the row's units");
                let one = [ResReq {
                    row: (k / ii as usize) as u32,
                    reserved: 1,
                }];
                for _ in 0..take {
                    table.reserve(&one, (k % ii as usize) as i64);
                }
            }
            // Short reservations, and ones up to two cycles past the II.
            let reqs: Vec<ResReq> = (0..1 + rng.index(2))
                .map(|_| ResReq {
                    row: rng.index(n_rows) as u32,
                    reserved: 1 + match rng.below(2) {
                        0 => rng.below(4),
                        _ => rng.below(u64::from(ii) + 2),
                    } as u32,
                })
                .collect();
            // Earliest starts up to three IIs out.
            let est = rng.below(3 * u64::from(ii) + 40) as u32;
            let fit = |fuel: &mut Fuel| table.first_fit(&reqs, est, fuel);

            let mut fuel = Fuel::unlimited();
            let got = fit(&mut fuel);
            let mut linear_fuel = Fuel::unlimited();
            let want = linear_first_fit(&rows, &row_units, ii, &reqs, est, &mut linear_fuel);
            let case = format!("ii={ii} est={est} units={row_units:?} reqs={reqs:?}");
            assert_eq!(got, want, "{case}");
            assert_eq!(fuel.spent(), linear_fuel.spent(), "{case}");
            let bump = |k: usize| seen[k].fetch_add(1, Relaxed);
            match want {
                Ok(Some(slot)) if est % ii + (slot - est) >= ii => bump(0),
                Ok(None) => bump(2),
                _ => 0,
            };
            if matches!(want, Ok(Some(slot)) if slot - est >= 64) {
                bump(1);
            }

            // The boundary is the linear scan's too.
            let spent = fuel.spent();
            assert_eq!(fit(&mut Fuel::limited(spent)), want, "{case}");
            assert_eq!(
                fit(&mut Fuel::limited(spent - 1)),
                Err(SchedError::FuelExhausted { budget: spent - 1 }),
                "{case}"
            );
        });
        seen.map(AtomicU64::into_inner)
    }

    #[test]
    fn first_fit_finds_the_linear_scans_slot_for_the_linear_scans_fuel() {
        let [wrapped, _, none] = first_fit_agrees_with_the_linear_scan(0xF125_7F17, 600, 12);
        assert!(wrapped > 0 && none > 0, "wrapped {wrapped}, none {none}");
    }

    /// IIs past 64 and 128 (two- and three-word bitmaps) with
    /// reservations longer than 64 cycles: instant in release, slow in a
    /// debug build; CI runs it with the other `#[ignore]`d tests.
    #[test]
    #[ignore = "slow in a debug build; CI runs it in release"]
    fn first_fit_matches_the_linear_scan_at_multi_word_iis() {
        let [wrapped, far, none] = first_fit_agrees_with_the_linear_scan(0xF125_7F18, 3000, 200);
        assert!(
            wrapped > 0 && far > 0 && none > 0,
            "wrapped {wrapped}, past a word {far}, none {none}"
        );
    }
}
