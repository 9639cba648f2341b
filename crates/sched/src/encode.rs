//! VLIW instruction-word encoding.
//!
//! A schedule is an abstract placement; this module lowers it to the
//! bit-level long-instruction words a program ROM would hold, in the
//! style of the Multiflow encodings the paper's machines descend from:
//!
//! * every cycle is one *instruction word* made of fixed-width
//!   **operation slots** — one per unit of each reservation-table row
//!   that is some op's issue slot ([`cfp_machine::Mdes::reservations`]),
//!   in row order: per cluster its ALUs, memory ports and branch unit.
//!   The occupancy mask is one `u64`, so a word holds at most 64 slots;
//! * each slot packs `opcode(6) | dst(9) | src1(10) | src2(10) |
//!   src3(10)` into 45 bits (stored in a `u64`; the third source exists
//!   for the select operation). A source field holds either a register
//!   number or an index into the word's **immediate pool** (32-bit
//!   literals appended to the word — the "long immediates" VLIWs are
//!   named for);
//! * empty slots are NOPs, and words are stored **compressed**: the
//!   occupancy mask plus only the occupied slots (the classic VLIW
//!   NOP-compression scheme);
//! * the encoder reports code size both raw and compressed — the code
//!   bloat of a given architecture is itself a design-space observable.
//!
//! [`decode`] inverts [`encode`] exactly; the round trip is tested here
//! and property-tested at the workspace level.
//!
//! Both work through the occupancy mask rather than a table of every
//! slot: the encoder takes, in op order, the first slot of an op's issue
//! row not yet set in its word's mask, then stores the op at that slot's
//! rank among the mask's set bits; the decoder walks the set bits.

use crate::cluster::Assignment;
use crate::list::Schedule;
use crate::loopcode::{OpOrigin, SOp};
use crate::regalloc::{allocate, AllocError};
use cfp_ir::{BinOp, Inst, Operand, Pred, UnOp, Vreg, FUSED_OPS};
use cfp_machine::{MachineResources, Mdes};
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Bits per operation slot.
pub const SLOT_BITS: u32 = 45;
/// Register-number field width (up to 512 registers).
pub const REG_BITS: u32 = 9;
/// Source-operand field width (register or immediate-pool index + tag).
pub const SRC_BITS: u32 = 10;
/// Opcode field width.
pub const OPCODE_BITS: u32 = 6;
/// Slots per word the format can hold: one bit each of [`InstWord::mask`].
pub const MAX_SLOTS: usize = 64;
/// Opcode of the fused-operation table's first row; the rest follow it.
const FIRST_FUSED_OPCODE: u8 = 31;

// The slot's fields, low bits first: src3, src2, src1, dst, opcode.
const SRC2_SHIFT: u32 = SRC_BITS;
const SRC1_SHIFT: u32 = SRC2_SHIFT + SRC_BITS;
const DST_SHIFT: u32 = SRC1_SHIFT + SRC_BITS;
const OPCODE_SHIFT: u32 = DST_SHIFT + REG_BITS;
// The fields fill the slot exactly, every opcode fits its field, and a
// source field is a register under a tag bit or a `u8` pool index under
// a flag bit below the tag.
const _: () = assert!(OPCODE_SHIFT + OPCODE_BITS == SLOT_BITS);
const _: () = assert!(FIRST_FUSED_OPCODE as usize + FUSED_OPS.len() <= 1 << OPCODE_BITS);
const _: () = assert!(REG_BITS + 1 == SRC_BITS && u8::BITS + 1 < SRC_BITS);

/// The `bits`-wide field at `shift` of `raw`.
fn field(raw: u64, shift: u32, bits: u32) -> u64 {
    (raw >> shift) & ((1 << bits) - 1)
}

/// One operation slot's decoded form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedOp {
    /// Opcode number (see [`opcode_of`]).
    pub opcode: u8,
    /// Destination register (0 when none).
    pub dst: u16,
    /// First source field.
    pub src1: SrcField,
    /// Second source field.
    pub src2: SrcField,
    /// Third source field (selects only).
    pub src3: SrcField,
}

/// A source field: register or immediate-pool reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcField {
    /// Read a register.
    Reg(u16),
    /// Read the word's immediate pool at this index.
    Imm(u8),
    /// Unused.
    None,
}

/// One long-instruction word.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InstWord {
    /// Slot occupancy (bit `i` = slot `i` holds an op), LSB first.
    pub mask: u64,
    /// The occupied slots' encodings, in slot order.
    pub ops: Vec<u64>,
    /// The 32-bit immediate pool.
    pub imms: Vec<i32>,
}

/// A fully encoded loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// One word per cycle of the schedule.
    pub words: Vec<InstWord>,
    /// Slots per word on this machine.
    pub slots_per_word: usize,
}

impl Program {
    /// Raw size in bytes: every slot materialized (no compression),
    /// plus immediates.
    #[must_use]
    pub fn raw_bytes(&self) -> usize {
        self.words
            .iter()
            .map(|w| (self.slots_per_word * SLOT_BITS as usize).div_ceil(8) + 4 * w.imms.len())
            .sum()
    }

    /// Compressed size in bytes: mask word + occupied slots + pool.
    #[must_use]
    pub fn compressed_bytes(&self) -> usize {
        self.words
            .iter()
            .map(|w| 8 + (w.ops.len() * SLOT_BITS as usize).div_ceil(8) + 4 * w.imms.len())
            .sum()
    }
}

/// Encoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// Register allocation failed (the kernel spills on this machine; the
    /// experiment rejects such unroll factors before encoding).
    Alloc(AllocError),
    /// A value had no allocated register (internal invariant).
    Unallocated(Vreg),
    /// A register number exceeds the field width.
    RegisterTooLarge(Vreg),
    /// More than 256 immediates in one word.
    ImmPoolOverflow {
        /// Offending cycle.
        cycle: u32,
    },
    /// An op landed on a slot the machine does not have.
    NoSlot {
        /// Offending op index.
        op: usize,
    },
    /// The machine's words have more slots than the 64-bit occupancy
    /// mask can name ([`MAX_SLOTS`]).
    TooManySlots {
        /// Slots per word on the machine.
        slots: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::Alloc(e) => write!(f, "{e}"),
            EncodeError::Unallocated(v) => write!(f, "no physical register for {v}"),
            EncodeError::RegisterTooLarge(v) => {
                write!(f, "virtual register {v} exceeds the {REG_BITS}-bit field")
            }
            EncodeError::ImmPoolOverflow { cycle } => {
                write!(f, "immediate pool overflow in cycle {cycle}")
            }
            EncodeError::NoSlot { op } => write!(f, "no hardware slot for op {op}"),
            EncodeError::TooManySlots { slots } => write!(
                f,
                "{slots} slots per word exceed the {MAX_SLOTS}-slot occupancy mask"
            ),
        }
    }
}

impl Error for EncodeError {}

impl From<AllocError> for EncodeError {
    fn from(e: AllocError) -> Self {
        EncodeError::Alloc(e)
    }
}

/// Opcode numbers. 0 is reserved (NOP).
#[must_use]
pub fn opcode_of(op: &SOp) -> u8 {
    match (&op.inst, op.origin) {
        (Some(Inst::Bin { op, .. }), _) => match op {
            BinOp::Add => 1,
            BinOp::Sub => 2,
            BinOp::Mul => 3,
            BinOp::And => 4,
            BinOp::Or => 5,
            BinOp::Xor => 6,
            BinOp::Shl => 7,
            BinOp::AShr => 8,
            BinOp::LShr => 9,
        },
        (Some(Inst::Un { op, .. }), _) => match op {
            UnOp::Copy => 10,
            UnOp::Neg => 11,
            UnOp::Not => 12,
            UnOp::Sext8 => 13,
            UnOp::Sext16 => 14,
            UnOp::Zext8 => 15,
            UnOp::Zext16 => 16,
        },
        (Some(Inst::Cmp { pred, .. }), _) => match pred {
            Pred::Eq => 17,
            Pred::Ne => 18,
            Pred::Lt => 19,
            Pred::Le => 20,
            Pred::Gt => 21,
            Pred::Ge => 22,
        },
        (Some(Inst::Sel { .. }), _) => 23,
        (Some(Inst::Ld { .. }), _) => 24,
        (Some(Inst::St { .. }), _) => 25,
        // One opcode per fused-operation table row, after the base ones.
        (Some(Inst::Fused { op, .. }), _) => FIRST_FUSED_OPCODE + op.0,
        (None, OpOrigin::Move { .. }) => 26,
        (None, OpOrigin::StreamBump(_)) => 27,
        (None, OpOrigin::Induction) => 28,
        (None, OpOrigin::LoopTest) => 29,
        (None, OpOrigin::LoopBranch) => 30,
        (None, OpOrigin::Body(_)) => unreachable!("body ops carry insts"),
    }
}

/// Slot layout, read from the reservation table: every row that is some
/// registered class's issue slot (its first reservation,
/// [`Mdes::reservations`]) gets one slot per unit, in row order — per
/// cluster its ALU slots (multiplies issue there too), memory ports and
/// branch unit. Returns each row's slot range and the slot count.
fn slot_layout(mdes: &Mdes) -> (Vec<Range<usize>>, usize) {
    let mut slot_rows = vec![false; mdes.row_units().count()];
    for c in 0..mdes.cluster_count() {
        for r in mdes
            .registered_classes()
            .filter_map(|k| mdes.reservations(k, c).next())
        {
            slot_rows[r.row as usize] = true;
        }
    }
    let mut next = 0_usize;
    let slots = mdes.row_units().zip(slot_rows).map(|(units, is_slot)| {
        let lo = next;
        next += usize::from(is_slot) * units as usize;
        lo..next
    });
    (slots.collect(), next)
}

fn pack(op: EncodedOp) -> u64 {
    // Source encoding: 0 = unused; tag bit set = register; tag bit clear
    // (but nonzero via the used-flag bit 8) = immediate-pool index. To
    // distinguish "unused" from "pool index 0" the immediate encoding
    // sets bit 8: `0b01_iiiiiiii`.
    let src = |s: SrcField| -> u64 {
        match s {
            SrcField::None => 0,
            SrcField::Reg(r) => (1 << (SRC_BITS - 1)) | u64::from(r),
            SrcField::Imm(i) => (1 << u8::BITS) | u64::from(i),
        }
    };
    (u64::from(op.opcode) << OPCODE_SHIFT)
        | (u64::from(op.dst) << DST_SHIFT)
        | (src(op.src1) << SRC1_SHIFT)
        | (src(op.src2) << SRC2_SHIFT)
        | src(op.src3)
}

fn unpack(raw: u64) -> EncodedOp {
    let src = |bits: u64| -> SrcField {
        if bits & (1 << (SRC_BITS - 1)) != 0 {
            SrcField::Reg(u16::try_from(field(bits, 0, REG_BITS)).expect("REG_BITS < 16"))
        } else if bits & (1 << u8::BITS) != 0 {
            SrcField::Imm(u8::try_from(field(bits, 0, u8::BITS)).expect("u8::BITS bits"))
        } else {
            SrcField::None
        }
    };
    EncodedOp {
        opcode: u8::try_from(field(raw, OPCODE_SHIFT, OPCODE_BITS)).expect("OPCODE_BITS < 8"),
        dst: u16::try_from(field(raw, DST_SHIFT, REG_BITS)).expect("REG_BITS < 16"),
        src1: src(field(raw, SRC1_SHIFT, SRC_BITS)),
        src2: src(field(raw, SRC2_SHIFT, SRC_BITS)),
        src3: src(field(raw, 0, SRC_BITS)),
    }
}

/// Encode a compiled loop into long-instruction words. Physical
/// registers are assigned by [`allocate`] (linear scan over the
/// scheduled intervals), so register fields are real bank indexes.
///
/// # Errors
/// See [`EncodeError`]; in particular, kernels that spill on this
/// machine fail with [`EncodeError::Alloc`].
pub fn encode(
    assignment: &Assignment,
    schedule: &Schedule,
    machine: &MachineResources,
) -> Result<Program, EncodeError> {
    encode_traced(
        assignment,
        schedule,
        machine,
        &mut cfp_obs::UnitTrace::disabled(),
    )
}

/// [`encode`] recording one `encode` span with the word count and slot
/// width of the emitted program (or an `ok: false` field when register
/// allocation refuses the machine). With a disabled trace this is
/// exactly [`encode`].
///
/// # Errors
/// As [`encode`].
pub fn encode_traced(
    assignment: &Assignment,
    schedule: &Schedule,
    machine: &MachineResources,
    trace: &mut cfp_obs::UnitTrace<'_>,
) -> Result<Program, EncodeError> {
    use cfp_obs::{Stage, Value};
    let t0 = trace.start();
    let out = encode_inner(assignment, schedule, machine);
    match &out {
        Ok(p) => trace.stage(
            Stage::Encode,
            t0,
            &[
                ("words", Value::U64(p.words.len() as u64)),
                ("slots", Value::U64(p.slots_per_word as u64)),
            ],
        ),
        Err(_) => trace.stage(Stage::Encode, t0, &[("ok", Value::Bool(false))]),
    }
    out
}

fn encode_inner(
    assignment: &Assignment,
    schedule: &Schedule,
    machine: &MachineResources,
) -> Result<Program, EncodeError> {
    let (slots, total_slots) = slot_layout(&machine.mdes);
    if total_slots > MAX_SLOTS {
        return Err(EncodeError::TooManySlots { slots: total_slots });
    }
    let phys = allocate(assignment, schedule, machine)?;
    let resolve = |v: Vreg, cluster: u32| -> Result<u16, EncodeError> {
        // Local first; a move reads its source from the owning cluster's
        // bank over the global connection.
        phys.get(v, cluster)
            .or_else(|| assignment.home_of.get(&v).and_then(|&h| phys.get(v, h)))
            .ok_or(EncodeError::Unallocated(v))
    };
    let code = &assignment.code;
    let n_words = schedule.length as usize;

    // Size every word's immediate pool before filling it, counted in one
    // walk. A placement at or past the length has no word: the index
    // panics here, before anything is encoded.
    let mut imm_count = vec![0_usize; n_words];
    for (op, p) in code.ops.iter().zip(&schedule.placements) {
        let count = &mut imm_count[p.cycle as usize];
        if let Some(inst) = &op.inst {
            inst.for_each_operand(|o| *count += usize::from(o.imm().is_some()));
        }
    }
    let mut words: Vec<InstWord> = imm_count
        .iter()
        .map(|&imms| InstWord {
            mask: 0,
            ops: Vec::new(),
            imms: Vec::with_capacity(imms.min(256)),
        })
        .collect();
    // Each op's slot and encoding, in op order: a slot is the first one
    // of its issue row not yet set in the word's occupancy mask.
    let mut placed: Vec<(usize, u64)> = Vec::with_capacity(code.ops.len());

    for (i, op) in code.ops.iter().enumerate() {
        let p = schedule.placements[i];
        let issue_row = machine
            .mdes
            .reservations(op.class, p.cluster as usize)
            .next();
        let word = &mut words[p.cycle as usize];
        let slot = issue_row
            .and_then(|r| {
                let range = &slots[r.row as usize];
                range.clone().find(|&s| word.mask >> s & 1 == 0)
            })
            .ok_or(EncodeError::NoSlot { op: i })?;
        word.mask |= 1 << slot;

        let mut fields = [SrcField::None, SrcField::None, SrcField::None];
        let mut n = 0;
        let mut failed = None;
        let mut add_field = |o: Operand| {
            debug_assert!(n < 3, "no op reads more than three values");
            if failed.is_some() {
                return;
            }
            let field = match o {
                Operand::Reg(v) => resolve(v, p.cluster).and_then(|r| {
                    if u32::from(r) >= (1 << REG_BITS) {
                        return Err(EncodeError::RegisterTooLarge(v));
                    }
                    Ok(SrcField::Reg(r))
                }),
                Operand::Imm(k) => match u8::try_from(word.imms.len()) {
                    Ok(idx) => {
                        word.imms.push(k);
                        Ok(SrcField::Imm(idx))
                    }
                    Err(_) => Err(EncodeError::ImmPoolOverflow { cycle: p.cycle }),
                },
            };
            match field {
                Ok(f) => {
                    fields[n] = f;
                    n += 1;
                }
                Err(e) => failed = Some(e),
            }
        };
        if let Some(inst) = &op.inst {
            inst.for_each_operand(&mut add_field);
        } else {
            op.uses.iter().for_each(|&u| add_field(Operand::Reg(u)));
        }
        if let Some(e) = failed {
            return Err(e);
        }

        let dst = match op.def {
            Some(v) => {
                let r = resolve(v, p.cluster)?;
                if u32::from(r) >= (1 << REG_BITS) {
                    return Err(EncodeError::RegisterTooLarge(v));
                }
                r
            }
            None => 0,
        };
        let raw = pack(EncodedOp {
            opcode: opcode_of(op),
            dst,
            src1: fields[0],
            src2: fields[1],
            src3: fields[2],
        });
        placed.push((slot, raw));
    }

    // With every mask final, an op's place in its word is the number of
    // occupied slots below its own.
    for word in &mut words {
        word.ops.resize(word.mask.count_ones() as usize, 0);
    }
    for (p, &(slot, raw)) in schedule.placements.iter().zip(&placed) {
        let word = &mut words[p.cycle as usize];
        let below = word.mask & ((1_u64 << slot) - 1);
        word.ops[below.count_ones() as usize] = raw;
    }
    Ok(Program {
        words,
        slots_per_word: total_slots,
    })
}

/// Decode a program back into per-cycle op lists.
#[must_use]
pub fn decode(program: &Program) -> Vec<Vec<(usize, EncodedOp)>> {
    program
        .words
        .iter()
        .map(|w| {
            // The mask's set bits, lowest first, paired with the ops.
            let slots = std::iter::successors(Some(w.mask), |&m| Some(m & m.wrapping_sub(1)))
                .take_while(|&m| m != 0)
                .map(|m| m.trailing_zeros() as usize);
            let mut ops = w.ops.iter();
            slots
                .map(|s| (s, unpack(*ops.next().expect("mask matches ops"))))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use cfp_frontend::compile_kernel;
    use cfp_machine::ArchSpec;

    fn program_for(
        src: &str,
        spec: &ArchSpec,
    ) -> (Program, crate::compile::CompileResult, MachineResources) {
        let k = compile_kernel(src, &[]).unwrap();
        let m = MachineResources::from_spec(spec);
        let r = compile(&k, &m);
        let p = encode(&r.assignment, &r.schedule, &m).expect("encodes");
        (p, r, m)
    }

    const SRC: &str = "kernel k(in u8 s[], out i32 d[]) {
        loop i {
            var a = s[3*i] * 5;
            var b = s[3*i + 1] * 7;
            var c = s[3*i + 2];
            d[i] = (a + b) + (c > 100 ? c : 0);
        }
    }";

    #[test]
    fn one_word_per_cycle_and_all_ops_present() {
        let (p, r, _) = program_for(SRC, &ArchSpec::new(4, 2, 128, 2, 4, 1).unwrap());
        assert_eq!(p.words.len(), r.schedule.length as usize);
        let encoded: usize = p.words.iter().map(|w| w.ops.len()).sum();
        assert_eq!(encoded, r.assignment.code.ops.len());
        for w in &p.words {
            assert_eq!(w.mask.count_ones() as usize, w.ops.len());
        }
    }

    #[test]
    fn decode_inverts_encode() {
        let (p, r, _) = program_for(SRC, &ArchSpec::new(8, 4, 256, 2, 4, 2).unwrap());
        let decoded = decode(&p);
        assert_eq!(decoded.len(), p.words.len());
        let total: usize = decoded.iter().map(Vec::len).sum();
        assert_eq!(total, r.assignment.code.ops.len());
        // Every decoded opcode is a real opcode (FIRST_FUSED_OPCODE up
        // are the fused operation table's rows).
        let last = FIRST_FUSED_OPCODE - 1 + FUSED_OPS.len() as u8;
        for word in &decoded {
            for (_, op) in word {
                assert!((1..=last).contains(&op.opcode), "{op:?}");
            }
        }
    }

    #[test]
    fn words_wider_than_the_occupancy_mask_are_refused() {
        let k = compile_kernel(SRC, &[]).unwrap();
        for (spec, slots) in [((128, 32, 512, 16), 146), ((60, 4, 256, 3), 65)] {
            let spec = ArchSpec::new(spec.0, spec.1, spec.2, spec.3, 4, 1).unwrap();
            let m = MachineResources::from_spec(&spec);
            let r = compile(&k, &m);
            let refused = Err(EncodeError::TooManySlots { slots });
            assert_eq!(encode(&r.assignment, &r.schedule, &m), refused, "{spec}");
        }
    }

    #[test]
    fn a_full_64_slot_word_round_trips() {
        // 60 ALU slots, the Level-1 and two Level-2 ports, the branch.
        let (p, r, _) = program_for(SRC, &ArchSpec::new(60, 4, 256, 2, 4, 1).unwrap());
        assert_eq!(p.slots_per_word, MAX_SLOTS);
        let decoded = decode(&p);
        for (word, ops) in p.words.iter().zip(&decoded) {
            assert_eq!(word.mask.count_ones() as usize, ops.len());
        }
        let total: usize = decoded.iter().map(Vec::len).sum();
        assert_eq!(total, r.assignment.code.ops.len());
        // The loop branch sits in the word's top slot, bit 63.
        let branch = r.schedule.placements[r.assignment.code.branch_index()];
        let top = decoded[branch.cycle as usize].last().expect("the branch");
        assert_eq!((top.0, top.1.opcode), (63, 30));
    }

    #[test]
    fn compression_wins_on_wide_machines() {
        let (p, ..) = program_for(SRC, &ArchSpec::new(16, 8, 512, 4, 4, 1).unwrap());
        assert!(
            p.compressed_bytes() < p.raw_bytes(),
            "compressed {} raw {}",
            p.compressed_bytes(),
            p.raw_bytes()
        );
        // A 16-wide machine running narrow code is mostly NOPs.
        assert!(p.compressed_bytes() * 2 < p.raw_bytes());
    }

    #[test]
    fn baseline_words_are_narrow() {
        let (p, ..) = program_for(SRC, &ArchSpec::baseline());
        // 1 ALU + 1 L1 + 1 L2 + 1 branch = 4 slots.
        assert_eq!(p.slots_per_word, 4);
        for w in &p.words {
            assert!(w.ops.len() <= 4);
        }
    }

    #[test]
    fn immediates_land_in_the_pool() {
        let (p, ..) = program_for(SRC, &ArchSpec::baseline());
        let imm_total: usize = p.words.iter().map(|w| w.imms.len()).sum();
        assert!(imm_total >= 2, "the multiplies' constants live in pools");
    }
}
