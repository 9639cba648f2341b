//! Architecture specifications and derived per-cluster quantities.

use crate::ext::ExtSet;
use std::error::Error;
use std::fmt;

/// One candidate VLIW architecture, named by the paper's 6-tuple
/// `(a m r p2 l2 c)`.
///
/// The template (paper Figure 2) is a multi-cluster machine of nearly
/// identical clusters, each with a local register bank and a slice of the
/// functional units, sharing a single long instruction word. The single
/// branch unit lives on cluster 0. Level-1 memory always has exactly one
/// port (3-cycle, non-pipelined); Level-2 has `l2_ports` ports at
/// `l2_latency` cycles (non-pipelined). Memory ports are distributed
/// round-robin over clusters, Level-1 first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArchSpec {
    /// Total ALUs across all clusters (`a`).
    pub alus: u32,
    /// Total ALUs capable of integer multiply (`m`).
    pub muls: u32,
    /// Total registers across all clusters (`r`).
    pub regs: u32,
    /// Parallel accesses to Level-2 memory (`p2`).
    pub l2_ports: u32,
    /// Latency in cycles of a Level-2 access (`l2`).
    pub l2_latency: u32,
    /// Number of clusters (`c`).
    pub clusters: u32,
    /// Whether Level-2 ports accept a new access every cycle. The
    /// paper's space is entirely non-pipelined (`false`, the default);
    /// the extended axis ([`crate::SpaceAxes::extended`]) flips this.
    /// Rendered as a `p` suffix on the `l2` field, e.g.
    /// `(8 4 256 2 8p 2)`, so non-pipelined specs keep their exact
    /// historical spelling (checkpoint fingerprints hash it).
    pub l2_pipelined: bool,
    /// Which mined fused operations the datapath provides (the
    /// custom-instruction axis). Empty (the default) everywhere in the
    /// paper's space; [`crate::SpaceAxes::with_extensions`] sweeps it.
    /// Rendered as a trailing token, e.g. `(8 4 256 2 8 2 +madd)`, so
    /// non-extended specs keep their exact historical spelling.
    pub exts: ExtSet,
}

/// Why an [`ArchSpec`] is malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchError {
    /// Some count that must be at least 1 is 0.
    ZeroResource(&'static str),
    /// More IMUL-capable ALUs than ALUs.
    MulsExceedAlus,
    /// ALUs not evenly divisible among clusters.
    AlusNotDivisible,
    /// Registers not evenly divisible among clusters.
    RegsNotDivisible,
    /// More clusters than ALUs.
    TooManyClusters,
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::ZeroResource(what) => write!(f, "{what} must be at least 1"),
            ArchError::MulsExceedAlus => write!(f, "more IMUL-capable ALUs than ALUs"),
            ArchError::AlusNotDivisible => write!(f, "ALUs not evenly divisible among clusters"),
            ArchError::RegsNotDivisible => {
                write!(f, "registers not evenly divisible among clusters")
            }
            ArchError::TooManyClusters => write!(f, "more clusters than ALUs"),
        }
    }
}

impl Error for ArchError {}

/// The per-cluster slice of an architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterShape {
    /// ALUs in this cluster.
    pub alus: u32,
    /// IMUL-capable ALUs in this cluster.
    pub muls: u32,
    /// Registers in this cluster's bank.
    pub regs: u32,
    /// Level-1 memory ports attached to this cluster (0 or 1).
    pub l1_ports: u32,
    /// Level-2 memory ports attached to this cluster.
    pub l2_ports: u32,
    /// Whether the branch unit lives here (cluster 0 only).
    pub has_branch: bool,
}

impl ClusterShape {
    /// Register-file ports for this cluster: `3` per ALU (two reads, one
    /// write) plus `2` per attached memory port (address read, data
    /// read/write).
    #[must_use]
    pub fn regfile_ports(&self) -> u32 {
        3 * self.alus + 2 * (self.l1_ports + self.l2_ports)
    }
}

impl ArchSpec {
    /// Build and validate a spec from the paper's 6-tuple order
    /// `(a, m, r, p2, l2, c)`.
    ///
    /// # Errors
    /// Returns an [`ArchError`] when the tuple does not describe a
    /// realizable clustered machine (see the variant docs).
    pub fn new(
        alus: u32,
        muls: u32,
        regs: u32,
        l2_ports: u32,
        l2_latency: u32,
        clusters: u32,
    ) -> Result<Self, ArchError> {
        let spec = ArchSpec {
            alus,
            muls,
            regs,
            l2_ports,
            l2_latency,
            clusters,
            l2_pipelined: false,
            exts: ExtSet::EMPTY,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The same datapath with pipelined Level-2 ports: each port
    /// accepts a new access every cycle instead of staying busy for the
    /// full `l2_latency`. Only the derived machine description changes
    /// ([`crate::Mdes::from_spec`] reads this flag); nothing downstream
    /// special-cases it.
    #[must_use]
    pub fn with_pipelined_l2(mut self) -> Self {
        self.l2_pipelined = true;
        self
    }

    /// The same datapath extended with a set of mined fused operations.
    /// Each enabled extension registers a derived op-class row in the
    /// machine description ([`crate::Mdes::from_spec`] reads this field)
    /// and an area charge in the cost model; nothing downstream
    /// special-cases it.
    #[must_use]
    pub fn with_extensions(mut self, exts: ExtSet) -> Self {
        self.exts = exts;
        self
    }

    /// The paper's baseline system (§3.2): 1 IMUL-capable ALU, 64
    /// registers, one L1 reference and one 8-cycle L2 reference, one
    /// cluster. Costs exactly 1.0 and derates exactly 1.0 by definition.
    #[must_use]
    pub fn baseline() -> Self {
        ArchSpec {
            alus: 1,
            muls: 1,
            regs: 64,
            l2_ports: 1,
            l2_latency: 8,
            clusters: 1,
            l2_pipelined: false,
            exts: ExtSet::EMPTY,
        }
    }

    /// Check the structural invariants.
    ///
    /// # Errors
    /// See [`ArchError`].
    pub fn validate(&self) -> Result<(), ArchError> {
        for (v, name) in [
            (self.alus, "alus"),
            (self.muls, "muls"),
            (self.regs, "regs"),
            (self.l2_ports, "l2_ports"),
            (self.l2_latency, "l2_latency"),
            (self.clusters, "clusters"),
        ] {
            if v == 0 {
                return Err(ArchError::ZeroResource(name));
            }
        }
        if self.muls > self.alus {
            return Err(ArchError::MulsExceedAlus);
        }
        if self.clusters > self.alus {
            return Err(ArchError::TooManyClusters);
        }
        if self.alus % self.clusters != 0 {
            return Err(ArchError::AlusNotDivisible);
        }
        if self.regs % self.clusters != 0 {
            return Err(ArchError::RegsNotDivisible);
        }
        Ok(())
    }

    /// Total memory ports (the fixed L1 port plus the L2 ports).
    #[must_use]
    pub fn total_mem_ports(&self) -> u32 {
        1 + self.l2_ports
    }

    /// The shape of cluster `j` (0-based).
    ///
    /// IMUL capability and memory ports are dealt round-robin: IMULs to
    /// clusters `0, 1, …, m-1 (mod c)`, memory ports (L1 first, then each
    /// L2 port) to clusters `0, 1, … (mod c)`.
    ///
    /// # Panics
    /// Panics if `j >= self.clusters`.
    #[must_use]
    pub fn cluster(&self, j: u32) -> ClusterShape {
        assert!(j < self.clusters, "cluster index out of range");
        let c = self.clusters;
        let deal = |total: u32| total / c + u32::from(j < total % c);
        let mem_total = self.total_mem_ports();
        let l1 = u32::from(j == 0); // L1 port is dealt first, to cluster 0
        let mem_here = deal(mem_total);
        ClusterShape {
            alus: self.alus / c,
            muls: deal(self.muls),
            regs: self.regs / c,
            l1_ports: l1.min(mem_here),
            l2_ports: mem_here - l1.min(mem_here),
            has_branch: j == 0,
        }
    }

    /// Iterate over all cluster shapes.
    pub fn cluster_shapes(&self) -> impl Iterator<Item = ClusterShape> + '_ {
        (0..self.clusters).map(|j| self.cluster(j))
    }

    /// The register-file port count that limits cycle time.
    ///
    /// Matches how the paper's Table 7 treats clustered machines: the
    /// per-cluster ALU slice plus the *total* memory-access requirement,
    /// `3·(a/c) + 2·(1 + p2)`.
    #[must_use]
    pub fn cycle_ports(&self) -> u32 {
        3 * (self.alus / self.clusters) + 2 * self.total_mem_ports()
    }

    /// Parse the paper's tuple syntax, e.g. `"(8 4 256 1 4 4)"`. A `p`
    /// suffix on the `l2` field (`"(8 4 256 1 4p 4)"`) marks pipelined
    /// Level-2 ports, and an optional trailing extension token
    /// (`"(8 4 256 1 4 4 +madd)"`) names the fused-operation set,
    /// matching [`ArchSpec`]'s `Display`.
    ///
    /// # Errors
    /// Returns `None`-like `Err` with a message when the string is not a
    /// 6-tuple of positive integers (plus an optional well-formed
    /// extension token) or the tuple fails validation.
    pub fn parse(s: &str) -> Result<Self, String> {
        let inner = s
            .trim()
            .strip_prefix('(')
            .and_then(|t| t.strip_suffix(')'))
            .ok_or_else(|| format!("expected (a m r p2 l2 c), got `{s}`"))?;
        let mut tokens: Vec<&str> = inner.split_whitespace().collect();
        let exts = if tokens.len() == 7 && tokens[6].starts_with('+') {
            let token = tokens.pop().unwrap_or_default();
            ExtSet::parse(token)?
        } else {
            ExtSet::EMPTY
        };
        if tokens.len() != 6 {
            return Err(format!("expected 6 fields, got {}", tokens.len()));
        }
        let l2_pipelined = tokens[4].ends_with('p');
        let num = |t: &str| {
            t.parse::<u32>()
                .map_err(|e| format!("bad number `{t}`: {e}"))
        };
        let l2_tok = if l2_pipelined {
            &tokens[4][..tokens[4].len() - 1]
        } else {
            tokens[4]
        };
        let mut spec = ArchSpec::new(
            num(tokens[0])?,
            num(tokens[1])?,
            num(tokens[2])?,
            num(tokens[3])?,
            num(l2_tok)?,
            num(tokens[5])?,
        )
        .map_err(|e| e.to_string())?;
        spec.exts = exts;
        Ok(if l2_pipelined {
            spec.with_pipelined_l2()
        } else {
            spec
        })
    }
}

impl fmt::Display for ArchSpec {
    /// Formats in the paper's order: `(a m r p2 l2 c)`, with a `p`
    /// suffix on `l2` when the Level-2 ports pipeline and a trailing
    /// `+`-token when fused extensions are enabled. Non-extended specs
    /// render exactly as before either axis existed — checkpoint
    /// fingerprints hash these strings.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({} {} {} {} {}{} {}",
            self.alus,
            self.muls,
            self.regs,
            self.l2_ports,
            self.l2_latency,
            if self.l2_pipelined { "p" } else { "" },
            self.clusters
        )?;
        if !self.exts.is_empty() {
            write!(f, " {}", self.exts)?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid() {
        assert_eq!(ArchSpec::baseline().validate(), Ok(()));
    }

    #[test]
    fn rejects_degenerate_specs() {
        assert_eq!(
            ArchSpec::new(0, 1, 64, 1, 8, 1),
            Err(ArchError::ZeroResource("alus"))
        );
        assert_eq!(
            ArchSpec::new(2, 3, 64, 1, 8, 1),
            Err(ArchError::MulsExceedAlus)
        );
        assert_eq!(
            ArchSpec::new(2, 1, 64, 1, 8, 4),
            Err(ArchError::TooManyClusters)
        );
        assert_eq!(
            ArchSpec::new(6, 1, 64, 1, 8, 4),
            Err(ArchError::AlusNotDivisible)
        );
        assert_eq!(
            ArchSpec::new(8, 1, 100, 1, 8, 8),
            Err(ArchError::RegsNotDivisible)
        );
    }

    #[test]
    fn cluster_dealing_round_robin() {
        let a = ArchSpec::new(8, 2, 256, 2, 4, 4).unwrap();
        // mem ports: L1 + 2×L2 = 3 total → clusters 0,1,2 get one each.
        let c0 = a.cluster(0);
        let c1 = a.cluster(1);
        let c2 = a.cluster(2);
        let c3 = a.cluster(3);
        assert_eq!((c0.l1_ports, c0.l2_ports), (1, 0));
        assert_eq!((c1.l1_ports, c1.l2_ports), (0, 1));
        assert_eq!((c2.l1_ports, c2.l2_ports), (0, 1));
        assert_eq!((c3.l1_ports, c3.l2_ports), (0, 0));
        // muls: 2 over 4 clusters → clusters 0,1.
        assert_eq!((c0.muls, c1.muls, c2.muls, c3.muls), (1, 1, 0, 0));
        assert!(c0.has_branch && !c1.has_branch);
        assert_eq!(c0.alus, 2);
        assert_eq!(c0.regs, 64);
    }

    #[test]
    fn totals_are_conserved() {
        for spec in [
            ArchSpec::baseline(),
            ArchSpec::new(16, 8, 512, 4, 2, 8).unwrap(),
            ArchSpec::new(8, 3, 256, 3, 4, 4).unwrap(),
        ] {
            let shapes: Vec<_> = spec.cluster_shapes().collect();
            assert_eq!(shapes.iter().map(|s| s.alus).sum::<u32>(), spec.alus);
            assert_eq!(shapes.iter().map(|s| s.muls).sum::<u32>(), spec.muls);
            assert_eq!(shapes.iter().map(|s| s.regs).sum::<u32>(), spec.regs);
            assert_eq!(
                shapes.iter().map(|s| s.l1_ports + s.l2_ports).sum::<u32>(),
                spec.total_mem_ports()
            );
            assert_eq!(shapes.iter().filter(|s| s.has_branch).count(), 1);
        }
    }

    #[test]
    fn regfile_ports_formula() {
        // Baseline: 3·1 + 2·(1 L1 + 1 L2) = 7 (the paper's p for the
        // baseline in Table 7's fit).
        let b = ArchSpec::baseline();
        assert_eq!(b.cluster(0).regfile_ports(), 7);
        assert_eq!(b.cycle_ports(), 7);
        // 16 ALUs, 1 cluster: 3·16 + 2·2 = 52.
        let big = ArchSpec::new(16, 8, 512, 1, 8, 1).unwrap();
        assert_eq!(big.cycle_ports(), 52);
    }

    #[test]
    fn display_and_parse_round_trip() {
        let a = ArchSpec::new(8, 4, 256, 1, 4, 4).unwrap();
        assert_eq!(a.to_string(), "(8 4 256 1 4 4)");
        assert_eq!(ArchSpec::parse("(8 4 256 1 4 4)").unwrap(), a);
        assert!(ArchSpec::parse("8 4 256").is_err());
        assert!(ArchSpec::parse("(8 4 256 1 4)").is_err());
        assert!(ArchSpec::parse("(0 4 256 1 4 4)").is_err());
        assert!(ArchSpec::parse("(8 x 256 1 4 4)").is_err());
    }

    #[test]
    fn extensions_round_trip_with_trailing_token() {
        let a = ArchSpec::new(8, 4, 256, 1, 4, 2)
            .unwrap()
            .with_extensions(ExtSet::MULADD.with(1));
        assert_eq!(a.to_string(), "(8 4 256 1 4 2 +madd+minmax)");
        assert_eq!(ArchSpec::parse("(8 4 256 1 4 2 +madd+minmax)").unwrap(), a);
        assert_ne!(a, ArchSpec::new(8, 4, 256, 1, 4, 2).unwrap());
        // Both axis suffixes compose.
        let b = a.with_pipelined_l2();
        assert_eq!(b.to_string(), "(8 4 256 1 4p 2 +madd+minmax)");
        assert_eq!(ArchSpec::parse(&b.to_string()).unwrap(), b);
        // Malformed extension tokens are rejected, not ignored.
        assert!(ArchSpec::parse("(8 4 256 1 4 2 +mac)").is_err());
        assert!(ArchSpec::parse("(8 4 256 1 4 2 madd)").is_err());
        assert!(ArchSpec::parse("(8 4 256 1 4 2 +madd+madd)").is_err());
        // The empty set keeps the exact historical spelling.
        let plain = ArchSpec::new(8, 4, 256, 1, 4, 2).unwrap();
        assert_eq!(plain.to_string(), "(8 4 256 1 4 2)");
    }

    #[test]
    fn pipelined_l2_round_trips_with_suffix() {
        let a = ArchSpec::new(8, 4, 256, 1, 4, 4)
            .unwrap()
            .with_pipelined_l2();
        assert_eq!(a.to_string(), "(8 4 256 1 4p 4)");
        assert_eq!(ArchSpec::parse("(8 4 256 1 4p 4)").unwrap(), a);
        assert_ne!(a, ArchSpec::new(8, 4, 256, 1, 4, 4).unwrap());
        assert!(ArchSpec::parse("(8 4 256 1 p 4)").is_err());
    }
}
