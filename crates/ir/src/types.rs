//! Element types and memory spaces.

use std::fmt;

/// Scalar element type of an array (and of loads/stores into it).
///
/// All *register* values are `i32`s; `Ty` only controls how values are
/// narrowed on store and widened on load, exactly like a byte/halfword
/// memory access on a 32-bit RISC. Memory elements are `i64`s (see
/// [`crate::MemImage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ty {
    /// Unsigned 8-bit (`ubyte` in the paper's listings).
    U8,
    /// Signed 8-bit.
    I8,
    /// Unsigned 16-bit.
    U16,
    /// Signed 16-bit (`int16` in the paper's listings).
    I16,
    /// Signed 32-bit (the native register width).
    I32,
}

impl Ty {
    /// Narrow a value to this type's range, as a store would.
    #[must_use]
    pub fn truncate(self, v: i64) -> i64 {
        match self {
            Ty::U8 => v & 0xff,
            Ty::I8 => v as i8 as i64,
            Ty::U16 => v & 0xffff,
            Ty::I16 => v as i16 as i64,
            Ty::I32 => v as i32 as i64,
        }
    }

    /// Widen a stored element back to a register value, as a load would.
    ///
    /// For values already produced by [`Ty::truncate`] this is the
    /// identity, which is what lets the interpreter store elements as
    /// plain `i64`.
    #[must_use]
    pub fn extend(self, v: i64) -> i32 {
        // Every type's range lies inside `i32`'s.
        self.truncate(v) as i32
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::U8 => "u8",
            Ty::I8 => "i8",
            Ty::U16 => "u16",
            Ty::I16 => "i16",
            Ty::I32 => "i32",
        };
        f.write_str(s)
    }
}

/// Which level of the two-level memory system an array lives in.
///
/// The paper's template has a single-ported *Level 1* memory with a fixed
/// 3-cycle non-pipelined access (modelling the system's global memory) and
/// a *Level 2* memory whose port count and latency are free parameters of
/// the design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemSpace {
    /// Global (Level 1) memory: one port chip-wide, 3-cycle non-pipelined.
    L1,
    /// Local (Level 2) memory: 1–4 ports, 2–8 cycle non-pipelined.
    L2,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemSpace::L1 => "l1",
            MemSpace::L2 => "l2",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_u8_masks() {
        assert_eq!(Ty::U8.truncate(0x1ff), 0xff);
        assert_eq!(Ty::U8.truncate(-1), 0xff);
        assert_eq!(Ty::U8.truncate(5), 5);
    }

    #[test]
    fn truncate_i16_sign_extends() {
        assert_eq!(Ty::I16.truncate(0x8000), -0x8000);
        assert_eq!(Ty::I16.truncate(0x7fff), 0x7fff);
        assert_eq!(Ty::I16.truncate(-1), -1);
    }

    #[test]
    fn extend_is_identity_on_truncated() {
        for ty in [Ty::U8, Ty::I8, Ty::U16, Ty::I16, Ty::I32] {
            for v in [-300_i64, -1, 0, 1, 127, 128, 255, 256, 65535, 1 << 20] {
                let t = ty.truncate(v);
                assert_eq!(i64::from(ty.extend(t)), t, "{ty} {v}");
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Ty::U8.to_string(), "u8");
        assert_eq!(MemSpace::L1.to_string(), "l1");
        assert_eq!(MemSpace::L2.to_string(), "l2");
    }
}
