//! Reference interpreter.
//!
//! Executes a [`Kernel`] sequentially with exact 32-bit register
//! semantics. This is the semantic baseline of the whole system: golden
//! Rust kernel implementations must match the interpreter, and the
//! scheduled VLIW code (executed by `cfp-sched`'s cycle-accurate
//! simulator) must match it too, for every architecture.

use crate::inst::{Inst, Operand, Vreg};
use crate::kernel::{ArrayKind, CarriedInit, Kernel};
use std::error::Error;
use std::fmt;

/// The memory image a kernel runs against: one `i64` vector per declared
/// array (elements are stored pre-truncated to the array's type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemImage {
    arrays: Vec<Vec<i64>>,
}

impl MemImage {
    /// Create an image for `kernel` with local arrays allocated (zeroed)
    /// at their declared length and in/out arrays empty (bind them with
    /// [`MemImage::bind`]).
    #[must_use]
    pub fn for_kernel(kernel: &Kernel) -> Self {
        let arrays = kernel
            .arrays
            .iter()
            .map(|a| match a.kind {
                ArrayKind::Local(n) => vec![0; n as usize],
                _ => Vec::new(),
            })
            .collect();
        MemImage { arrays }
    }

    /// Bind data to an array slot (index order matches the declaration
    /// order in the kernel).
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn bind(&mut self, index: usize, data: Vec<i64>) -> &mut Self {
        self.arrays[index] = data;
        self
    }

    /// Read back an array (e.g. an output after a run).
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn array(&self, index: usize) -> &[i64] {
        &self.arrays[index]
    }

    /// Mutable access to an array (e.g. for an external schedule
    /// executor committing stores).
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn array_mut(&mut self, index: usize) -> &mut [i64] {
        &mut self.arrays[index]
    }

    /// Number of array slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrays.len()
    }

    /// Whether there are no array slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty()
    }
}

/// Dynamic-execution statistics gathered by a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// Total instructions executed (preamble + all iterations).
    pub executed: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Multiplies executed.
    pub muls: u64,
}

impl InterpStats {
    /// Count one executed instruction.
    fn count(&mut self, inst: &Inst) {
        self.executed += 1;
        self.loads += u64::from(inst.is_mem() && !inst.is_store());
        self.stores += u64::from(inst.is_store());
        self.muls += u64::from(inst.needs_mul_unit());
    }
}

/// A runtime fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Memory access out of the bound array's range.
    OutOfBounds {
        /// Array index.
        array: usize,
        /// Attempted element index.
        index: i64,
        /// Bound length.
        len: usize,
        /// Iteration at which the fault occurred (`None` in the preamble).
        iter: Option<u64>,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::OutOfBounds {
                array,
                index,
                len,
                iter,
            } => write!(
                f,
                "array a{array} access at element {index} out of bounds (len {len}, iter {iter:?})"
            ),
        }
    }
}

impl Error for InterpError {}

/// Executes kernels against a [`MemImage`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Interpreter;

impl Interpreter {
    /// Create an interpreter.
    #[must_use]
    pub fn new() -> Self {
        Interpreter
    }

    /// Execute only the preamble (plus carried-init latching) and return
    /// the resulting register file — the setup state a schedule executor
    /// starts from.
    ///
    /// # Errors
    /// Returns [`InterpError::OutOfBounds`] if a preamble load leaves a
    /// bound array.
    pub fn preamble_values(
        &self,
        kernel: &Kernel,
        mem: &mut MemImage,
    ) -> Result<Vec<i32>, InterpError> {
        let mut vals = vec![0_i32; kernel.vreg_count() as usize];
        for inst in &kernel.preamble {
            exec(inst, &mut vals, mem, 0, None)?;
        }
        for c in &kernel.carried {
            vals[c.input.index()] = match c.init {
                CarriedInit::Const(k) => k,
                CarriedInit::Preamble(v) => vals[v.index()],
            };
        }
        Ok(vals)
    }

    /// Run `kernel` for `iters` iterations against `mem`.
    ///
    /// # Errors
    /// Returns [`InterpError::OutOfBounds`] if an access leaves a bound
    /// array; the memory image may be partially updated in that case.
    pub fn run(
        &self,
        kernel: &Kernel,
        mem: &mut MemImage,
        iters: u64,
    ) -> Result<InterpStats, InterpError> {
        let mut vals = self.preamble_values(kernel, mem)?;
        let mut stats = InterpStats::default();
        kernel.preamble.iter().for_each(|inst| stats.count(inst));
        for iter in 0..iters {
            for inst in &kernel.body {
                stats.count(inst);
                exec(inst, &mut vals, mem, iter as i64, Some(iter))?;
            }
            // Latch carried values for the next iteration. Two phases so
            // that a carried pair (in, out) where out reads another
            // carried input is handled order-independently.
            let next: Vec<i32> = kernel
                .carried
                .iter()
                .map(|c| vals[c.output.index()])
                .collect();
            for (c, v) in kernel.carried.iter().zip(next) {
                vals[c.input.index()] = v;
            }
        }
        Ok(stats)
    }
}

fn read(vals: &[i32], o: Operand) -> i32 {
    match o {
        Operand::Reg(Vreg(n)) => vals[n as usize],
        Operand::Imm(i) => i,
    }
}

/// Execute one instruction at iteration `iter` against the register
/// file `vals` and `mem` — the step [`Interpreter::run`] and the
/// schedule simulator share. A faulting access reports `iter_tag` as
/// its iteration.
///
/// # Errors
/// [`InterpError::OutOfBounds`] when a load or store leaves its array;
/// nothing is written then.
pub fn exec(
    inst: &Inst,
    vals: &mut [i32],
    mem: &mut MemImage,
    iter: i64,
    iter_tag: Option<u64>,
) -> Result<(), InterpError> {
    match *inst {
        Inst::Bin { dst, op, a, b } => {
            vals[dst.index()] = op.eval(read(vals, a), read(vals, b));
        }
        Inst::Un { dst, op, a } => vals[dst.index()] = op.eval(read(vals, a)),
        Inst::Cmp { dst, pred, a, b } => {
            vals[dst.index()] = pred.eval(read(vals, a), read(vals, b));
        }
        Inst::Sel {
            dst,
            cond,
            on_true,
            on_false,
        } => {
            vals[dst.index()] = if read(vals, cond) != 0 {
                read(vals, on_true)
            } else {
                read(vals, on_false)
            };
        }
        Inst::Fused { dst, op, a, b, c } => {
            vals[dst.index()] = op.eval(read(vals, a), read(vals, b), read(vals, c));
        }
        Inst::Ld { dst, mem: m, ty } => {
            let dynv = m.dyn_index.map_or(0, |d| read(vals, d));
            let idx = m.element_index(iter, i64::from(dynv));
            let arr = &mem.arrays[m.array.index()];
            let Some(&raw) = usize::try_from(idx).ok().and_then(|i| arr.get(i)) else {
                return Err(InterpError::OutOfBounds {
                    array: m.array.index(),
                    index: idx,
                    len: arr.len(),
                    iter: iter_tag,
                });
            };
            vals[dst.index()] = ty.extend(raw);
        }
        Inst::St { mem: m, value, ty } => {
            let dynv = m.dyn_index.map_or(0, |d| read(vals, d));
            let idx = m.element_index(iter, i64::from(dynv));
            let v = ty.truncate(i64::from(read(vals, value)));
            let arr = &mut mem.arrays[m.array.index()];
            let len = arr.len();
            let Some(slot) = usize::try_from(idx).ok().and_then(|i| arr.get_mut(i)) else {
                return Err(InterpError::OutOfBounds {
                    array: m.array.index(),
                    index: idx,
                    len,
                    iter: iter_tag,
                });
            };
            *slot = v;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KernelBuilder;
    use crate::kernel::CarriedInit;

    use crate::types::{MemSpace, Ty};

    /// dst[i] = 3 * src[i] + 1
    #[test]
    fn straightline_map() {
        let mut b = KernelBuilder::new("map");
        let src = b.array_in("src", Ty::U8, MemSpace::L2);
        let dst = b.array_out("dst", Ty::U8, MemSpace::L2);
        let x = b.load(src, 1, 0, Ty::U8);
        let m = b.mul(x, Operand::Imm(3));
        let r = b.add(m, Operand::Imm(1));
        b.store(dst, 1, 0, r, Ty::U8);
        let k = b.finish();
        crate::verify::verify(&k).unwrap();

        let mut mem = MemImage::for_kernel(&k);
        mem.bind(0, vec![0, 1, 2, 100]);
        mem.bind(1, vec![0; 4]);
        let stats = Interpreter::new().run(&k, &mut mem, 4).unwrap();
        assert_eq!(mem.array(1), &[1, 4, 7, (3 * 100 + 1) & 0xff]);
        assert_eq!(stats.loads, 4);
        assert_eq!(stats.stores, 4);
        assert_eq!(stats.muls, 4);
        assert_eq!(stats.executed, 16);
    }

    /// Prefix-sum via a carried accumulator.
    #[test]
    fn carried_accumulator() {
        let mut b = KernelBuilder::new("acc");
        let src = b.array_in("src", Ty::I32, MemSpace::L2);
        let dst = b.array_out("dst", Ty::I32, MemSpace::L2);
        let x = b.load(src, 1, 0, Ty::I32);
        let sum_in = b.fresh();
        let sum_out = b.add(sum_in, x);
        b.carry_into(sum_in, sum_out, CarriedInit::Const(10));
        b.store(dst, 1, 0, sum_out, Ty::I32);
        let k = b.finish();
        crate::verify::verify(&k).unwrap();

        let mut mem = MemImage::for_kernel(&k);
        mem.bind(0, vec![1, 2, 3, 4]);
        mem.bind(1, vec![0; 4]);
        Interpreter::new().run(&k, &mut mem, 4).unwrap();
        assert_eq!(mem.array(1), &[11, 13, 16, 20]);
    }

    /// Preamble-computed carried init and hoisted table load.
    #[test]
    fn preamble_init() {
        let mut b = KernelBuilder::new("pre");
        let table = b.array_in("tbl", Ty::I16, MemSpace::L1);
        let dst = b.array_out("dst", Ty::I32, MemSpace::L2);
        b.in_preamble(true);
        let t0 = b.load(table, 0, 2, Ty::I16);
        b.in_preamble(false);
        let s_in = b.fresh();
        let s_out = b.add(s_in, t0);
        b.carry_into(s_in, s_out, CarriedInit::Preamble(t0));
        b.store(dst, 1, 0, s_out, Ty::I32);
        let k = b.finish();
        crate::verify::verify(&k).unwrap();

        let mut mem = MemImage::for_kernel(&k);
        mem.bind(0, vec![0, 0, 5]);
        mem.bind(1, vec![0; 3]);
        Interpreter::new().run(&k, &mut mem, 3).unwrap();
        // iter0: 5+5=10; iter1: 10+5=15; iter2: 20
        assert_eq!(mem.array(1), &[10, 15, 20]);
    }

    #[test]
    fn local_arrays_are_preallocated() {
        let mut b = KernelBuilder::new("loc");
        let scratch = b.array_local("tmp", Ty::I32, MemSpace::L2, 4);
        let dst = b.array_out("dst", Ty::I32, MemSpace::L2);
        b.store(scratch, 0, 1, Operand::Imm(42), Ty::I32);
        let x = b.load(scratch, 0, 1, Ty::I32);
        b.store(dst, 1, 0, x, Ty::I32);
        let k = b.finish();
        let mut mem = MemImage::for_kernel(&k);
        assert_eq!(mem.array(0).len(), 4);
        mem.bind(1, vec![0; 2]);
        Interpreter::new().run(&k, &mut mem, 2).unwrap();
        assert_eq!(mem.array(1), &[42, 42]);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut b = KernelBuilder::new("oob");
        let src = b.array_in("src", Ty::U8, MemSpace::L2);
        let _ = b.load(src, 1, 0, Ty::U8);
        let k = b.finish();
        let mut mem = MemImage::for_kernel(&k);
        mem.bind(0, vec![1, 2]);
        let err = Interpreter::new().run(&k, &mut mem, 3).unwrap_err();
        assert_eq!(
            err,
            InterpError::OutOfBounds {
                array: 0,
                index: 2,
                len: 2,
                iter: Some(2)
            }
        );
    }

    #[test]
    fn negative_index_is_out_of_bounds() {
        let mut b = KernelBuilder::new("neg");
        let src = b.array_in("src", Ty::U8, MemSpace::L2);
        let _ = b.load(src, 1, -1, Ty::U8);
        let k = b.finish();
        let mut mem = MemImage::for_kernel(&k);
        mem.bind(0, vec![1, 2]);
        let err = Interpreter::new().run(&k, &mut mem, 1).unwrap_err();
        assert!(matches!(err, InterpError::OutOfBounds { index: -1, .. }));
    }

    #[test]
    fn dynamic_index_resolves_through_register() {
        use crate::inst::{Inst, MemRef};
        let mut b = KernelBuilder::new("dyn");
        let src = b.array_in("src", Ty::I32, MemSpace::L2);
        let dst = b.array_out("dst", Ty::I32, MemSpace::L2);
        let idx = b.mov(2_i64);
        let d = b.fresh();
        b.push(Inst::Ld {
            dst: d,
            mem: MemRef {
                array: src,
                coeff: 0,
                offset: 0,
                dyn_index: Some(Operand::Reg(idx)),
            },
            ty: Ty::I32,
        });
        b.store(dst, 1, 0, d, Ty::I32);
        let k = b.finish();
        let mut mem = MemImage::for_kernel(&k);
        mem.bind(0, vec![10, 20, 30]);
        mem.bind(1, vec![0; 1]);
        Interpreter::new().run(&k, &mut mem, 1).unwrap();
        assert_eq!(mem.array(1), &[30]);
    }
}
