//! Fused-operation extensions — the custom-instruction design axis.
//!
//! [`EXTENSIONS`] is the extension table: one row per fused unit a
//! datapath may buy, holding its name and the unit class whose slots it
//! upgrades. The machine side reads the rows: an [`ExtSet`] is a bitset
//! over them, spelled with their names; [`crate::Mdes::from_spec`]
//! registers op class `5 + i` for row `i` as a copy of its unit's base
//! row, dumped as `f.<name>`; the cost model charges an area premium per
//! slot of that unit. `cfp-ir`'s operation table says what each fused
//! operation computes and names its extension row; the two tables join
//! by row index, as `cfp-sched`'s tests check, because neither crate may
//! depend on the other.
//!
//! An extension set is a field of [`crate::ArchSpec`] exactly the way
//! `l2_pipelined` is: empty by default, so every historical spec keeps
//! its exact spelling, hash, and checkpoint fingerprint, and rendered as
//! a trailing `+`-token (e.g. `(8 4 256 1 4 2 +madd+minmax)`) when
//! non-empty. The `cfp-opt` fuse pass decides where the fused ops are
//! emitted; the selection machinery then asks which kernels buy which
//! extensions, and what speedup per unit area they return.

use crate::mdes::UnitClass;
use std::fmt;

/// One row of the extension table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extension {
    /// The token used in spec spellings and dumps.
    pub name: &'static str,
    /// The unit class whose slots the extension upgrades: its fused op
    /// class issues there with that unit's base timing.
    pub unit: UnitClass,
}

/// The extension table. Row `i` is bit `i` of an [`ExtSet`] and op class
/// `5 + i` of the machine description.
#[rustfmt::skip]
pub const EXTENSIONS: [Extension; 3] = [
    // Multiply-add: the accumulate rides the multiplier's last stage.
    Extension { name: "madd", unit: UnitClass::Mul },
    // Signed min/max: a compare-select mux after every ALU.
    Extension { name: "minmax", unit: UnitClass::Alu },
    // Add then arithmetic shift right: a short shifter after every ALU.
    Extension { name: "addshr", unit: UnitClass::Alu },
];

/// A set of fused-operation extensions: a bitset over [`EXTENSIONS`] rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExtSet(u8);

impl ExtSet {
    /// No extensions — the paper's machines, and the default everywhere.
    pub const EMPTY: ExtSet = ExtSet(0);
    /// Only row 0, `madd`.
    pub const MULADD: ExtSet = ExtSet(1 << 0);
    /// Only row 1, `minmax`.
    pub const MINMAX: ExtSet = ExtSet(1 << 1);
    /// Only row 2, `addshr`.
    pub const ADDSHR: ExtSet = ExtSet(1 << 2);
    /// Every extension.
    pub const ALL: ExtSet = ExtSet((1 << EXTENSIONS.len()) - 1);

    /// The candidate sets the extension *axis* sweeps: none, each single
    /// extension (so the exhibit can attribute gains), and all of them.
    pub const AXIS: [ExtSet; EXTENSIONS.len() + 2] = {
        let mut axis = [ExtSet::ALL; EXTENSIONS.len() + 2];
        axis[0] = ExtSet::EMPTY;
        let mut i = 0;
        while i < EXTENSIONS.len() {
            axis[i + 1] = ExtSet(1 << i);
            i += 1;
        }
        axis
    };

    /// The set with extension row `i` added.
    #[must_use]
    pub fn with(self, i: usize) -> ExtSet {
        ExtSet(self.0 | 1 << i)
    }

    /// Whether extension row `i` is in the set.
    #[must_use]
    pub fn contains(self, i: usize) -> bool {
        self.0 >> i & 1 != 0
    }

    /// Whether no extension is enabled.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of enabled extensions.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The enabled extension rows, in table order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..EXTENSIONS.len()).filter(move |&i| self.contains(i))
    }

    /// The raw bits (for wire formats; see [`ExtSet::from_bits`]).
    #[must_use]
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Rebuild from raw bits, rejecting bits past the table.
    #[must_use]
    pub fn from_bits(bits: u8) -> Option<ExtSet> {
        if bits & !ExtSet::ALL.0 != 0 {
            return None;
        }
        Some(ExtSet(bits))
    }

    /// Parse the spec-suffix form: `+`-separated extension names with a
    /// leading `+`, e.g. `+madd+minmax`. The empty set has no spelling —
    /// it is the *absence* of the token.
    ///
    /// # Errors
    /// Returns a message naming the offending token.
    pub fn parse(s: &str) -> Result<ExtSet, String> {
        let rest = s
            .strip_prefix('+')
            .ok_or_else(|| format!("expected extension token starting with `+`, got `{s}`"))?;
        let mut set = ExtSet::EMPTY;
        for tok in rest.split('+') {
            let i = EXTENSIONS
                .iter()
                .position(|e| e.name == tok)
                .ok_or_else(|| {
                    let known: Vec<&str> = EXTENSIONS.iter().map(|e| e.name).collect();
                    format!(
                        "unknown extension `{tok}` in `{s}` (know {})",
                        known.join(", ")
                    )
                })?;
            if set.contains(i) {
                return Err(format!("duplicate extension `{tok}` in `{s}`"));
            }
            set = set.with(i);
        }
        Ok(set)
    }
}

impl fmt::Display for ExtSet {
    /// The spec-suffix spelling: `+madd+minmax`; empty renders as
    /// nothing at all (historical spellings are preserved).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in self.iter() {
            write!(f, "+{}", EXTENSIONS[i].name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_renders_as_nothing() {
        assert_eq!(ExtSet::EMPTY.to_string(), "");
        assert!(ExtSet::EMPTY.is_empty());
        assert_eq!(ExtSet::EMPTY.len(), 0);
    }

    #[test]
    fn display_and_parse_round_trip() {
        for set in [
            ExtSet::MULADD,
            ExtSet::MINMAX,
            ExtSet::ADDSHR,
            ExtSet::MULADD.with(2),
            ExtSet::ALL,
        ] {
            let s = set.to_string();
            assert!(s.starts_with('+'), "{s}");
            assert_eq!(ExtSet::parse(&s), Ok(set), "{s}");
        }
        assert_eq!(ExtSet::ALL.to_string(), "+madd+minmax+addshr");
        assert_eq!(ExtSet::MULADD.to_string(), "+madd");
        assert_eq!(ExtSet::MINMAX.to_string(), "+minmax");
        assert_eq!(ExtSet::ADDSHR.to_string(), "+addshr");
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        assert!(ExtSet::parse("madd").is_err(), "missing leading +");
        assert!(ExtSet::parse("+").is_err(), "empty name");
        assert_eq!(
            ExtSet::parse("+mac"),
            Err("unknown extension `mac` in `+mac` (know madd, minmax, addshr)".to_owned())
        );
        assert!(ExtSet::parse("+madd+madd").is_err(), "duplicate");
    }

    #[test]
    fn bits_round_trip_and_reject_unknown() {
        for set in ExtSet::AXIS {
            assert_eq!(ExtSet::from_bits(set.bits()), Some(set));
        }
        assert_eq!(ExtSet::from_bits(0b1000), None);
        assert_eq!(ExtSet::from_bits(0xff), None);
    }

    #[test]
    fn axis_candidates_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for set in ExtSet::AXIS {
            assert!(seen.insert(set));
        }
        assert_eq!(
            ExtSet::AXIS,
            [
                ExtSet::EMPTY,
                ExtSet::MULADD,
                ExtSet::MINMAX,
                ExtSet::ADDSHR,
                ExtSet::ALL
            ]
        );
    }

    #[test]
    fn iter_yields_enabled_in_table_order() {
        assert_eq!(ExtSet::ALL.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(ExtSet::MINMAX.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn every_extension_upgrades_an_alu_or_a_multiplier() {
        // The cost model prices upgrades of these two unit classes only.
        for e in EXTENSIONS {
            assert!(matches!(e.unit, UnitClass::Alu | UnitClass::Mul), "{e:?}");
        }
    }
}
