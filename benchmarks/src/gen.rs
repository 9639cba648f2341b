//! Seeded workload generation. Everything the program under test
//! receives — architecture lists, machine draws, job lines — is made
//! here from `--seed`, and nothing else is: the same seed yields
//! byte-identical inputs, a different seed different ones.
//!
//! Samples are *systematic*: the population is shuffled, sorted (stably)
//! into the classes that decide most of a member's cost, and members are
//! taken at equal spacing from a seeded start. The seed still decides
//! every member, but every sample holds every cost class in proportion, so
//! two seeds draw work of nearly the same size and a timing compares
//! across seeds: sixteen sibling groups drawn this way sweep in a time
//! that varies by 5 % from draw to draw, machine noise included, against
//! 8 % for one free draw from each of sixteen slices of a fully sorted
//! list. (Equal spacing through a fully sorted list would vary less
//! still, but the paper space is a product of small axes, and a fixed
//! stride through it picks the same port count and latency every time;
//! the shuffle inside a class is what prevents that.)

use cfp_testkit::Rng;
use custom_fit::kernels::Benchmark;
use custom_fit::machine::{ArchSpec, DesignSpace, ExtSet};
use std::collections::BTreeMap;

/// An independent generator per purpose, so adding a draw to one input
/// never shifts another.
#[must_use]
pub fn stream(seed: u64, label: &str) -> Rng {
    let mut d = crate::Digest::default();
    d.eat(seed);
    d.eat_bytes(label.as_bytes());
    Rng::new(d.0)
}

/// The generator of pass number `pass` of a run seeded `seed`: every pass
/// draws its own inputs, and pass 0's are what the traced run uses.
#[must_use]
pub fn pass_stream(seed: u64, pass: u64, label: &str) -> Rng {
    stream(seed ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15), label)
}

/// All register sizes of one `(a m p2 l2 c)` datapath, ascending. The
/// compile cache shares one schedule across a group, so sampling whole
/// groups keeps the sweep's sharing structure; sampling one arrangement
/// in N would destroy it.
pub type Group = Vec<ArchSpec>;

/// Partition `archs` into r-sibling groups.
#[must_use]
pub fn sibling_groups(archs: &[ArchSpec]) -> Vec<Group> {
    let mut by_datapath: BTreeMap<ArchSpec, Group> = BTreeMap::new();
    for s in archs {
        by_datapath
            .entry(ArchSpec { regs: 0, ..*s })
            .or_default()
            .push(*s);
    }
    let mut groups: Vec<Group> = by_datapath.into_values().collect();
    for g in &mut groups {
        g.sort_by_key(|s| s.regs);
    }
    groups
}

/// The r-sibling groups of the paper's 600 arrangements.
#[must_use]
pub fn paper_groups() -> Vec<Group> {
    sibling_groups(&DesignSpace::paper().all_arrangements())
}

/// What decides most of a machine's scheduling cost, coarsest first:
/// width, clustering, memory ports. The classes [`sample`] keeps in
/// proportion, for machines and (by their shared datapath) sibling groups.
#[must_use]
pub fn cost_class(s: &ArchSpec) -> (u32, u32, u32) {
    (s.alus, s.clusters, s.l2_ports)
}

/// `k` members of `population` at equal spacing from a seeded start,
/// through a seeded order sorted by `class`; returned in that order.
///
/// # Panics
/// Panics if `k` is 0 or exceeds the population.
#[must_use]
pub fn sample<T: Clone, K: Ord>(
    rng: &mut Rng,
    population: &[T],
    k: usize,
    class: impl Fn(&T) -> K,
) -> Vec<T> {
    let n = population.len();
    assert!(k >= 1 && k <= n, "sample size out of range");
    let mut order: Vec<&T> = population.iter().collect();
    shuffle(rng, &mut order);
    order.sort_by_key(|t| class(t));
    let start = rng.index(n);
    let mut picks: Vec<usize> = (0..k).map(|i| (start + i * n / k) % n).collect();
    picks.sort_unstable();
    picks.into_iter().map(|i| order[i].clone()).collect()
}

/// `n` machines for `compile_verify`: a draw over the paper
/// arrangements; every third machine is given a seeded fused-extension
/// set so the fuse pass and the fused operations are compiled, encoded
/// and simulated too.
#[must_use]
pub fn machines(rng: &mut Rng, n: usize) -> Vec<ArchSpec> {
    let all = DesignSpace::paper().all_arrangements();
    let mut out = sample(rng, &all, n, cost_class);
    for s in out.iter_mut().skip(2).step_by(3) {
        *s = s.with_extensions(*rng.pick(&ExtSet::AXIS[1..]));
    }
    out
}

/// The wire spelling of an extensionless, non-pipelined architecture.
fn arch_text(s: &ArchSpec) -> String {
    debug_assert!(s.exts.is_empty() && !s.l2_pipelined);
    format!(
        "({} {} {} {} {} {})",
        s.alus, s.muls, s.regs, s.l2_ports, s.l2_latency, s.clusters
    )
}

/// One explore job of the `serve_mixed` traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreJob {
    /// Candidate architectures.
    pub archs: Vec<ArchSpec>,
    /// Benchmarks evaluated.
    pub benches: Vec<Benchmark>,
}

impl ExploreJob {
    /// The submit request line.
    #[must_use]
    pub fn line(&self) -> String {
        let benches: Vec<String> = self.benches.iter().map(|b| format!("\"{b}\"")).collect();
        let archs: Vec<String> = self
            .archs
            .iter()
            .map(|a| format!("\"{}\"", arch_text(a)))
            .collect();
        format!(
            r#"{{"op":"submit","job":{{"benches":[{}],"archs":[{}],"threads":1}}}}"#,
            benches.join(","),
            archs.join(",")
        )
    }
}

/// The submit request line of one guided-search job over the paper
/// axes: a short bracket, so a warm search is service overhead plus a
/// few hundred cache lookups.
#[must_use]
pub fn search_line(bench: Benchmark, seed: u64) -> String {
    format!(
        r#"{{"op":"submit","job":{{"benches":["{bench}"],"kind":"search","space":"paper","cost_bound":10,"seed":{seed},"rounds":3,"round_size":16,"threads":1}}}}"#
    )
}

/// Benchmarks cheap enough that a warm job is dominated by the service,
/// not the back end.
pub const CHEAP: [Benchmark; 4] = [Benchmark::A, Benchmark::D, Benchmark::G, Benchmark::H];

/// Groups in the hot set the templates draw from.
pub const HOT_GROUPS: usize = 24;
/// Groups per explore job.
pub const GROUPS_PER_JOB: usize = 3;
/// Explore templates.
pub const EXPLORE_TEMPLATES: usize = 48;
/// Search templates.
pub const SEARCH_TEMPLATES: usize = 8;

/// What a timed job is, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// A verbatim explore template: everything it needs is cached.
    Explore,
    /// A verbatim search template.
    Search,
    /// An explore job with one group from outside the hot set: a
    /// deterministic miss in the shared compile cache.
    Miss,
}

/// One job of a timed pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// The submit request line.
    pub line: String,
    /// Its class.
    pub class: JobClass,
}

/// The `serve_mixed` traffic: a template set submitted once untimed, and
/// timed passes mixing 70 % explore templates, 20 % search templates and
/// 10 % explore jobs that miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeMix {
    seed: u64,
    /// The explore templates.
    pub explore: Vec<ExploreJob>,
    /// The search template lines.
    pub search: Vec<String>,
    cold: Vec<Group>,
}

impl ServeMix {
    /// Build the template set for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = stream(seed, "serve.templates");
        let groups = paper_groups();
        // The hot set holds every cost class in proportion, so its warm
        // working set is the same size for every seed.
        let hot = sample(&mut rng, &groups, HOT_GROUPS, |g| cost_class(&g[0]));
        let cold: Vec<Group> = groups.into_iter().filter(|g| !hot.contains(g)).collect();
        let explore = (0..EXPLORE_TEMPLATES)
            .map(|_| ExploreJob {
                // One group from each slice of the hot set (which is in
                // cost order), so every template is about the same size.
                archs: (0..GROUPS_PER_JOB)
                    .flat_map(|j| {
                        let slice = HOT_GROUPS / GROUPS_PER_JOB;
                        hot[j * slice + rng.index(slice)].clone()
                    })
                    .collect(),
                benches: CHEAP.to_vec(),
            })
            .collect();
        let search = (0..SEARCH_TEMPLATES)
            .map(|i| search_line(CHEAP[i % CHEAP.len()], rng.next_u64() >> 12))
            .collect();
        ServeMix {
            seed,
            explore,
            search,
            cold,
        }
    }

    /// Every template line, explore first — submitted once before timing.
    #[must_use]
    pub fn template_lines(&self) -> Vec<String> {
        self.explore
            .iter()
            .map(ExploreJob::line)
            .chain(self.search.iter().cloned())
            .collect()
    }

    /// The `n` jobs of timed pass number `pass`, in a seeded order:
    /// exactly 70 % explore templates and 20 % search templates (each
    /// template as often as any other) and 10 % missing jobs — a template
    /// with its last group swapped for a cold one, every missing job of
    /// a pass a different cold group.
    ///
    /// # Panics
    /// Panics if a tenth of `n` exceeds the cold groups available.
    #[must_use]
    pub fn pass(&self, pass: u64, n: usize) -> Vec<Job> {
        let mut rng = pass_stream(self.seed, pass, "serve.pass");
        let (misses, searches) = (n / 10, n / 5);
        let mut cold: Vec<&Group> = self.cold.iter().collect();
        assert!(misses <= cold.len(), "more missing jobs than cold groups");
        shuffle(&mut rng, &mut cold);
        let mut jobs: Vec<Job> = Vec::with_capacity(n);
        for (i, cold) in cold.iter().take(misses).enumerate() {
            let mut job = self.explore[i % self.explore.len()].clone();
            let keep = job.archs.len().saturating_sub(cold.len());
            job.archs.truncate(keep);
            job.archs.extend(cold.iter().copied());
            jobs.push(Job {
                line: job.line(),
                class: JobClass::Miss,
            });
        }
        for i in 0..searches {
            let t = i % self.search.len();
            jobs.push(Job {
                line: self.search[t].clone(),
                class: JobClass::Search,
            });
        }
        for i in 0..n - misses - searches {
            let t = i % self.explore.len();
            jobs.push(Job {
                line: self.explore[t].line(),
                class: JobClass::Explore,
            });
        }
        shuffle(&mut rng, &mut jobs);
        jobs
    }
}

/// Fisher–Yates.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every generated input of one seed, as bytes.
    fn all_inputs(seed: u64) -> Vec<u8> {
        let groups = sample(&mut stream(seed, "sweep"), &paper_groups(), 16, |g| {
            cost_class(&g[0])
        });
        let machines = machines(&mut stream(seed, "machines"), 10);
        let mix = ServeMix::new(seed);
        let mut text = format!("{groups:?}\n{machines:?}\n");
        for line in mix.template_lines() {
            text.push_str(&line);
            text.push('\n');
        }
        for job in mix.pass(0, 200).iter().chain(&mix.pass(1, 200)) {
            text.push_str(&job.line);
            text.push('\n');
        }
        text.into_bytes()
    }

    #[test]
    fn the_same_seed_yields_byte_identical_inputs_and_another_seed_does_not() {
        assert_eq!(all_inputs(7), all_inputs(7));
        assert_ne!(all_inputs(7), all_inputs(8));
    }

    #[test]
    fn the_paper_space_splits_into_whole_sibling_groups() {
        let groups = paper_groups();
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 600);
        for g in &groups {
            assert!(g.windows(2).all(|w| w[0].regs < w[1].regs));
            let mut one = g[0];
            for s in g {
                one.regs = s.regs;
                assert_eq!(one, *s, "siblings differ only in registers");
            }
        }
    }

    #[test]
    fn a_sample_holds_every_class_in_proportion() {
        let population: Vec<u32> = (0..100).collect();
        // Ten classes of ten, ten picks: one from each class, whichever
        // the seed.
        for seed in 0..20 {
            let s = sample(&mut Rng::new(seed), &population, 10, |v| v / 10);
            let classes: Vec<u32> = s.iter().map(|v| v / 10).collect();
            assert_eq!(classes, (0..10).collect::<Vec<u32>>(), "{s:?}");
        }
        // Uneven division: seven picks never leave a class twice empty
        // in a row.
        let s = sample(&mut Rng::new(1), &population, 7, |v| v / 10);
        assert_eq!(s.len(), 7);
        assert!(
            s.windows(2)
                .all(|w| w[0] < w[1] && w[1] / 10 - w[0] / 10 <= 2),
            "{s:?}"
        );
        // The seed decides the members.
        let picks = |seed| sample(&mut Rng::new(seed), &population, 10, |v| v / 10);
        assert_ne!(picks(1), picks(2));
    }

    #[test]
    fn the_mix_has_the_advertised_shares_and_parses() {
        let mix = ServeMix::new(3);
        assert_eq!(
            mix.template_lines().len(),
            EXPLORE_TEMPLATES + SEARCH_TEMPLATES
        );
        let jobs = mix.pass(0, 1200);
        let count = |class| jobs.iter().filter(|j| j.class == class).count();
        assert_eq!(count(JobClass::Explore), 840);
        assert_eq!(count(JobClass::Search), 240);
        assert_eq!(count(JobClass::Miss), 120);
        for line in mix
            .template_lines()
            .iter()
            .chain(jobs.iter().map(|j| &j.line))
        {
            assert!(
                matches!(
                    custom_fit::serve::parse_request(line),
                    Ok(custom_fit::serve::Request::Submit(_))
                ),
                "{line}"
            );
        }
        // A missing job is a template with one group from outside the
        // hot set, so its line differs from every template's.
        let templates = mix.template_lines();
        let missing: Vec<&String> = jobs
            .iter()
            .filter(|j| j.class == JobClass::Miss)
            .map(|j| &j.line)
            .collect();
        assert!(missing.iter().all(|line| !templates.contains(line)));
        // ... and every one a different cold group.
        let distinct: std::collections::BTreeSet<&&String> = missing.iter().collect();
        assert_eq!(distinct.len(), missing.len());
    }

    #[test]
    fn machine_draws_are_valid_and_some_carry_extensions() {
        let ms = machines(&mut Rng::new(5), 10);
        assert_eq!(ms.len(), 10);
        assert!(ms.iter().all(|m| m.validate().is_ok()));
        assert!(ms.windows(2).all(|w| w[0].alus <= w[1].alus), "width order");
        assert_eq!(ms.iter().filter(|m| !m.exts.is_empty()).count(), 3);
    }
}
