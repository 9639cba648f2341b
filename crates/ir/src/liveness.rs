//! Program-order liveness over a kernel body.
//!
//! This is the machine-independent estimate used by the optimizer's
//! heuristics (e.g. deciding whether an unroll factor is plainly
//! hopeless). The scheduler computes its own cycle-accurate pressure over
//! the final schedule; see `cfp-sched`.

use crate::inst::{Inst, Vreg};
use crate::kernel::Kernel;

/// Half-open-ish live interval in body positions: a value is live from
/// just after `start` to the end of `end` (both are body instruction
/// indices; position `body.len()` means "end of iteration").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveRange {
    /// Position of the definition (0 for values live into the body).
    pub start: usize,
    /// Whether the value enters the body live (carried input).
    pub from_entry: bool,
    /// Position of the last use (`body.len()` for values live out).
    pub end: usize,
    /// Whether the value is live across the whole loop (preamble values):
    /// these permanently occupy a register.
    pub resident: bool,
}

impl LiveRange {
    /// Whether two ranges overlap at some position.
    #[must_use]
    pub fn overlaps(&self, other: &LiveRange) -> bool {
        self.resident || other.resident || (self.start < other.end && other.start < self.end)
    }
}

/// Liveness of every vreg over one body iteration.
#[derive(Debug, Clone)]
pub struct BodyLiveness {
    ranges: Vec<Option<LiveRange>>,
    body_len: usize,
}

impl BodyLiveness {
    /// Compute liveness for `kernel`'s body.
    #[must_use]
    pub fn compute(kernel: &Kernel) -> Self {
        let n = kernel.vreg_count() as usize;
        let body_len = kernel.body.len();
        let mut ranges: Vec<Option<LiveRange>> = vec![None; n];

        // Preamble-defined values used anywhere in the body (or feeding a
        // carried init) are resident for the whole loop.
        let mut body_uses = vec![false; n];
        for i in &kernel.body {
            i.for_each_use(|u| body_uses[u.index()] = true);
        }
        for d in kernel.preamble.iter().filter_map(Inst::def) {
            if body_uses[d.index()] {
                ranges[d.index()] = Some(LiveRange {
                    start: 0,
                    end: body_len,
                    resident: true,
                    from_entry: true,
                });
            }
        }

        // Carried inputs are live from entry; carried outputs to the end.
        for c in &kernel.carried {
            ranges[c.input.index()] = Some(LiveRange {
                start: 0,
                end: 0,
                resident: false,
                from_entry: true,
            });
        }

        for (pos, inst) in kernel.body.iter().enumerate() {
            if let Some(d) = inst.def() {
                let r = ranges[d.index()].get_or_insert(LiveRange {
                    start: pos,
                    end: pos,
                    resident: false,
                    from_entry: false,
                });
                if !r.resident {
                    r.start = pos;
                }
            }
            inst.for_each_use(|u| {
                if let Some(r) = &mut ranges[u.index()] {
                    if !r.resident {
                        r.end = r.end.max(pos);
                    }
                }
            });
        }
        for c in &kernel.carried {
            if let Some(r) = &mut ranges[c.output.index()] {
                if !r.resident {
                    r.end = body_len;
                }
            }
            // A carried input with no use still occupies its register
            // until overwritten at the iteration boundary; its range
            // already covers entry, so nothing further to extend.
        }
        BodyLiveness { ranges, body_len }
    }

    /// The live range of a vreg, if it is live at all.
    #[must_use]
    pub fn range(&self, v: Vreg) -> Option<&LiveRange> {
        self.ranges.get(v.index()).and_then(Option::as_ref)
    }

    /// Number of values live at a body position (just before instruction
    /// `pos` executes).
    #[must_use]
    pub fn pressure_at(&self, pos: usize) -> usize {
        self.ranges
            .iter()
            .flatten()
            .filter(|r| r.resident || (r.start < pos && pos <= r.end) || (r.from_entry && pos == 0))
            .count()
    }

    /// Maximum register pressure over the body (program order).
    #[must_use]
    pub fn max_pressure(&self) -> usize {
        (0..=self.body_len)
            .map(|p| self.pressure_at(p))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KernelBuilder;
    use crate::kernel::CarriedInit;
    use crate::types::{MemSpace, Ty};

    #[test]
    fn simple_chain_has_low_pressure() {
        let mut b = KernelBuilder::new("chain");
        let src = b.array_in("s", Ty::U8, MemSpace::L2);
        let dst = b.array_out("d", Ty::U8, MemSpace::L2);
        let x = b.load(src, 1, 0, Ty::U8);
        let y = b.add(x, 1_i64);
        let z = b.add(y, 2_i64);
        b.store(dst, 1, 0, z, Ty::U8);
        let k = b.finish();
        let lv = BodyLiveness::compute(&k);
        assert!(lv.max_pressure() <= 2, "got {}", lv.max_pressure());
        assert_eq!(lv.range(x).unwrap().start, 0);
        assert_eq!(lv.range(x).unwrap().end, 1);
    }

    #[test]
    fn resident_preamble_values_always_count() {
        let mut b = KernelBuilder::new("res");
        let dst = b.array_out("d", Ty::I32, MemSpace::L2);
        b.in_preamble(true);
        let c0 = b.mov(5_i64);
        let c1 = b.mov(6_i64);
        b.in_preamble(false);
        let s = b.add(c0, c1);
        b.store(dst, 1, 0, s, Ty::I32);
        let k = b.finish();
        let lv = BodyLiveness::compute(&k);
        assert!(lv.range(c0).unwrap().resident);
        assert!(lv.range(c1).unwrap().resident);
        assert!(lv.max_pressure() >= 2);
    }

    #[test]
    fn unused_preamble_value_is_not_resident() {
        let mut b = KernelBuilder::new("unused");
        b.in_preamble(true);
        let c0 = b.mov(5_i64);
        b.in_preamble(false);
        let k = b.finish();
        let lv = BodyLiveness::compute(&k);
        assert!(lv.range(c0).is_none());
    }

    #[test]
    fn carried_output_lives_to_end() {
        let mut b = KernelBuilder::new("carry");
        let src = b.array_in("s", Ty::I32, MemSpace::L2);
        let x = b.load(src, 1, 0, Ty::I32);
        let s_in = b.fresh();
        let s_out = b.add(s_in, x);
        b.carry_into(s_in, s_out, CarriedInit::Const(0));
        let k = b.finish();
        let lv = BodyLiveness::compute(&k);
        let out_range = lv.range(s_out).unwrap();
        assert_eq!(out_range.end, k.body.len());
    }

    #[test]
    fn overlap_logic() {
        let a = LiveRange {
            start: 0,
            end: 2,
            resident: false,
            from_entry: false,
        };
        let b = LiveRange {
            start: 1,
            end: 3,
            resident: false,
            from_entry: false,
        };
        let c = LiveRange {
            start: 2,
            end: 4,
            resident: false,
            from_entry: false,
        };
        let r = LiveRange {
            start: 0,
            end: 0,
            resident: true,
            from_entry: true,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(a.overlaps(&r) && c.overlaps(&r));
    }
}
