//! The `integrate` workload: the paper's §6.3 run of the optimized
//! `schema_integration` over mirrored class trees.
//!
//! Every round integrates [`PAIRS`] generated pairs of each of two kinds.
//! In an all-≡ pair every class has exactly one equivalent counterpart,
//! the paper's analytic setting, where pruning is total and
//! `pairs_checked == n`. A mixed pair draws ≡ / ⊆ / ∩ / ∅ / nothing per
//! class, the setting where pruning is weak.

use crate::rng::Rng;
use crate::stats;
use fedoo::core::naive::{naive_schema_integration, IntegrationRun};
use fedoo::core::optimized::schema_integration_with_trace;
use fedoo::core::IntegratedSchema;
use fedoo::prelude::*;
use std::collections::BTreeSet;
use std::time::Instant;

/// Classes per tree in the all-≡ pair.
pub const EQUIV_N: usize = 128;
/// Classes per tree in the mixed pair.
pub const MIXED_N: usize = 64;
/// Size at which the naive algorithm is cheap enough to be the oracle.
pub const ORACLE_N: usize = 48;
/// Average tree degree (the §6.3 model).
const DEGREE: usize = 3;

/// Per-class assertion weights; the remainder is "no assertion".
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub equiv: f64,
    pub incl: f64,
    pub intersect: f64,
    pub disjoint: f64,
}

pub const ALL_EQUIV: Mix = Mix {
    equiv: 1.0,
    incl: 0.0,
    intersect: 0.0,
    disjoint: 0.0,
};

pub const MIXED: Mix = Mix {
    equiv: 0.4,
    incl: 0.2,
    intersect: 0.1,
    disjoint: 0.1,
};

pub struct Pair {
    pub n: usize,
    pub s1: Schema,
    pub s2: Schema,
    pub assertions: AssertionSet,
}

fn tree_schema(name: &str, prefix: &str, parents: &[usize]) -> Schema {
    let mut b = SchemaBuilder::new(name);
    for i in 0..=parents.len() {
        b = b.class(format!("{prefix}{i}"), |c| c.attr("v", AttrType::Str));
    }
    for (i, p) in parents.iter().enumerate() {
        b = b.isa(format!("{prefix}{}", i + 1), format!("{prefix}{p}"));
    }
    b.build().expect("generated trees are valid")
}

/// Two structurally identical random trees of `n` classes and an
/// assertion per mirrored class pair drawn from `mix`. Inclusions go from
/// a class to its mirrored parent, so the labelled paths exist.
pub fn mirrored(n: usize, mix: Mix, rng: &mut Rng) -> Pair {
    // Node i attaches to a node in the window before it, so the degree
    // averages about DEGREE.
    let parents: Vec<usize> = (1..n)
        .map(|i| {
            let lo = i.saturating_sub((i / DEGREE).max(1) * DEGREE).min(i - 1);
            lo + rng.below(i - lo)
        })
        .collect();
    let s1 = tree_schema("S1", "a", &parents);
    let s2 = tree_schema("S2", "b", &parents);
    let mut list = Vec::new();
    for i in 0..n {
        let roll = rng.unit();
        let (a, b) = (format!("a{i}"), format!("b{i}"));
        let op = if roll < mix.equiv {
            Some((ClassOp::Equiv, b))
        } else if roll < mix.equiv + mix.incl {
            let p = if i == 0 { 0 } else { parents[i - 1] };
            (p != i).then(|| (ClassOp::Incl, format!("b{p}")))
        } else if roll < mix.equiv + mix.incl + mix.intersect {
            Some((ClassOp::Intersect, b))
        } else if roll < mix.equiv + mix.incl + mix.intersect + mix.disjoint {
            Some((ClassOp::Disjoint, b))
        } else {
            None
        };
        if let Some((op, target)) = op {
            list.push(ClassAssertion::simple("S1", &a, op, "S2", target));
        }
    }
    let assertions = AssertionSet::build(list).expect("generated assertions are consistent");
    Pair {
        n,
        s1,
        s2,
        assertions,
    }
}

/// The workload's inputs for `seed`: `PAIRS` generated pairs of each kind,
/// so one run's figure averages over tree shapes and assertion draws.
pub struct Inputs {
    pub equiv: Vec<Pair>,
    pub mixed: Vec<Pair>,
}

/// Pairs of each kind per run.
pub const PAIRS: usize = 16;

pub fn generate(seed: u64) -> Inputs {
    let kind = |n, mix, stream: u64| {
        (0..PAIRS as u64)
            .map(|k| mirrored(n, mix, &mut Rng::derive(seed, stream + k)))
            .collect()
    };
    Inputs {
        equiv: kind(EQUIV_N, ALL_EQUIV, 0xe900),
        mixed: kind(MIXED_N, MIXED, 0x3100),
    }
}

pub fn integrate(pair: &Pair) -> IntegrationRun {
    schema_integration_with_trace(&pair.s1, &pair.s2, &pair.assertions, false)
        .expect("generated pairs integrate")
}

/// What the timed rounds produced.
#[derive(Debug, Default)]
pub struct RoundResult {
    /// Per round, over all workers: µs spent on each pair, the all-≡
    /// pairs first (as [`round`] returns them).
    pub rounds: Vec<Vec<f64>>,
    pub error: Option<String>,
}

impl RoundResult {
    /// Median over rounds of the mean time of one all-≡ integration.
    pub fn equiv_ms(&self) -> f64 {
        stats::median(
            self.rounds
                .iter()
                .map(|r| r[..PAIRS].iter().sum::<f64>() / 1e3 / PAIRS as f64)
                .collect(),
        )
    }

    /// Median over rounds of the mean time of one mixed integration.
    pub fn mixed_ms(&self) -> f64 {
        stats::median(
            self.rounds
                .iter()
                .map(|r| r[PAIRS..].iter().sum::<f64>() / 1e3 / PAIRS as f64)
                .collect(),
        )
    }

    /// Each pair's best time over all rounds, µs. A pair is integrated
    /// once per round by each worker, so its best is the fastest of well
    /// over a hundred integrations, and it leaves out the stretches in
    /// which the host runs every thread slower.
    pub fn best_micros(&self) -> Vec<f64> {
        let mut best = vec![f64::INFINITY; 2 * PAIRS];
        for round in &self.rounds {
            for (b, t) in best.iter_mut().zip(round) {
                *b = b.min(*t);
            }
        }
        best
    }
}

/// One round: integrate every pair once. Returns the µs spent on each
/// pair, the all-≡ pairs first, and the first failed check.
pub fn round(inputs: &Inputs) -> (Vec<f64>, Option<String>) {
    let mut times = Vec::with_capacity(2 * PAIRS);
    let mut error = None;
    for (slot, pairs) in [&inputs.equiv, &inputs.mixed].into_iter().enumerate() {
        for pair in pairs {
            let t = Instant::now();
            let run = integrate(pair);
            times.push(t.elapsed().as_secs_f64() * 1e6);
            if slot == 0 && error.is_none() {
                error = check_all_equiv(pair, &run).err();
            }
        }
    }
    (times, error)
}

/// One worker's rounds and its first failed check.
type WorkerRounds = (Vec<Vec<f64>>, Option<String>);

/// Untimed warm-up, the last step of set-up: each of `workers` threads
/// runs one round, as each will in the timed lane. The set-up then lasts
/// as long as the slower core takes for a round, whichever core a thread
/// lands on.
pub fn warm_up(inputs: &Inputs, workers: usize) -> Option<String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| round(inputs).1))
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("integrate worker panicked"))
            .next()
    })
}

/// `workers` closed-loop threads each run whole rounds until `seconds` of
/// wall time have passed. Two workers keep both cores busy, as the serve
/// clients do, so a run's figure does not hang on which core a single
/// thread happened to run on.
pub fn run_rounds(inputs: &Inputs, seconds: f64, workers: usize) -> RoundResult {
    let start = Instant::now();
    let per_worker: Vec<WorkerRounds> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let (mut rounds, mut error) = (Vec::new(), None);
                    while start.elapsed().as_secs_f64() < seconds {
                        let (times, err) = round(inputs);
                        rounds.push(times);
                        error = error.or(err);
                    }
                    (rounds, error)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("integrate worker panicked"))
            .collect()
    });
    let mut out = RoundResult::default();
    for (rounds, error) in per_worker {
        out.rounds.extend(rounds);
        out.error = out.error.or(error);
    }
    out
}

/// In the all-≡ pair the optimized algorithm checks exactly the `n`
/// mirrored pairs and merges them into `n` integrated classes.
pub fn check_all_equiv(pair: &Pair, run: &IntegrationRun) -> Result<(), String> {
    if run.stats.pairs_checked != pair.n as u64 || run.output.len() != pair.n {
        return Err(format!(
            "all-≡ pair of n={}: {} pairs checked, {} integrated classes",
            pair.n,
            run.stats.pairs_checked,
            run.output.len()
        ));
    }
    Ok(())
}

/// Class names and is-a links of an integrated schema, sorted.
fn shape(run: &IntegrationRun) -> (Vec<String>, BTreeSet<(String, String)>) {
    let mut classes: Vec<String> = run.output.classes().map(|c| c.name.clone()).collect();
    classes.sort();
    (classes, run.output.isa_links().cloned().collect())
}

/// The is-a links of the declared inclusions `S1.a ⊆ S2.b`, as the
/// integrated classes of `a` and `b` in `output`.
fn inclusion_links(pair: &Pair, output: &IntegratedSchema) -> BTreeSet<(String, String)> {
    pair.assertions
        .with_op(ClassOp::Incl)
        .filter_map(|a| {
            let sub = output.is(&a.left_schema, a.left_classes.first()?)?;
            let sup = output.is(&a.right_schema, &a.right_class)?;
            Some((sub.to_string(), sup.to_string()))
        })
        .collect()
}

/// The optimized output must have the naive algorithm's class names and
/// is-a links. One difference is let through: a missing link of a
/// declared inclusion, which the optimized algorithm can drop when it
/// prunes the inclusion's pair (about one mixed pair in eight at the
/// oracle size; see the FOUND line on `schema_integration` in CHANGES.md).
/// Any other missing link, and any link naive does not have, fails.
pub fn check_against_naive(pair: &Pair, optimized: &IntegrationRun) -> Result<(), String> {
    let naive = naive_schema_integration(&pair.s1, &pair.s2, &pair.assertions)
        .map_err(|e| format!("naive integration failed: {e}"))?;
    let (want, got) = (shape(&naive), shape(optimized));
    if want.0 != got.0 {
        return Err(format!(
            "n={}: optimized classes differ from naive ({} vs {})",
            pair.n,
            got.0.len(),
            want.0.len()
        ));
    }
    if let Some(extra) = got.1.difference(&want.1).next() {
        return Err(format!(
            "n={}: optimized has the is-a link {extra:?}, naive does not",
            pair.n
        ));
    }
    let tolerated = inclusion_links(pair, &naive.output);
    if let Some(missing) = want.1.difference(&got.1).find(|l| !tolerated.contains(*l)) {
        return Err(format!(
            "n={}: optimized lacks the is-a link {missing:?}",
            pair.n
        ));
    }
    Ok(())
}

/// The checks run once per process, outside the timed rounds: both
/// generated pair kinds at the oracle size against the naive algorithm.
pub fn oracle_checks(seed: u64) -> Result<(), String> {
    for (mix, stream) in [(ALL_EQUIV, 0xe9), (MIXED, 0x31)] {
        let pair = mirrored(ORACLE_N, mix, &mut Rng::derive(seed, stream));
        let run = integrate(&pair);
        check_against_naive(&pair, &run)?;
    }
    let pair = mirrored(ORACLE_N, ALL_EQUIV, &mut Rng::derive(seed, 0xe9));
    check_all_equiv(&pair, &integrate(&pair))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_checks_pass() {
        oracle_checks(7).unwrap();
    }

    /// `output` with its is-a links replaced by `links`.
    fn relinked(output: &IntegratedSchema, links: &BTreeSet<(String, String)>) -> IntegratedSchema {
        let mut out = IntegratedSchema::new();
        for c in output.classes() {
            out.insert_class(c.clone());
        }
        for (a, b) in links {
            out.add_isa(a.clone(), b.clone());
        }
        out
    }

    /// A mixed pair whose optimized output equals naive's, with at least
    /// one declared inclusion among its links.
    fn mixed_pair_with_inclusion() -> (Pair, IntegrationRun) {
        (0..64)
            .map(|s| {
                let pair = mirrored(ORACLE_N, MIXED, &mut Rng::derive(s, 0x31));
                let naive = naive_schema_integration(&pair.s1, &pair.s2, &pair.assertions).unwrap();
                (pair, naive)
            })
            .find(|(pair, naive)| {
                let opt = integrate(pair);
                shape(&opt) == shape(naive)
                    && inclusion_links(pair, &naive.output)
                        .iter()
                        .any(|l| shape(naive).1.contains(l))
            })
            .expect("some seed draws a kept inclusion")
    }

    #[test]
    fn a_wrong_integration_output_fails_the_checks() {
        let (pair, mut run) = mixed_pair_with_inclusion();
        check_against_naive(&pair, &run).unwrap();
        let links = shape(&run).1;
        let inclusions = inclusion_links(&pair, &run.output);
        let original = run.output.clone();
        // A dropped is-a link that no inclusion declares…
        let plain = links
            .iter()
            .find(|l| !inclusions.contains(*l))
            .expect("trees have plain links")
            .clone();
        let mut fewer = links.clone();
        fewer.remove(&plain);
        run.output = relinked(&original, &fewer);
        assert!(check_against_naive(&pair, &run).is_err());
        // …an extra is-a link…
        let mut more = links.clone();
        more.insert(("a0".into(), "a0".into()));
        run.output = relinked(&original, &more);
        assert!(check_against_naive(&pair, &run).is_err());
        // …or an extra class.
        run.output = original.clone();
        run.output
            .insert_class(fedoo::core::ISClass::new("phantom"));
        assert!(check_against_naive(&pair, &run).is_err());
        // The one tolerated difference: a declared inclusion's link missing.
        let mut without = links.clone();
        let kept = links.iter().find(|l| inclusions.contains(*l)).unwrap();
        without.remove(kept);
        run.output = relinked(&original, &without);
        check_against_naive(&pair, &run).unwrap();
    }

    #[test]
    fn best_micros_is_each_pairs_fastest_round() {
        let round = |t: f64| (0..2 * PAIRS).map(|k| t + k as f64).collect();
        let mut r = RoundResult {
            rounds: vec![round(50.0), round(20.0), round(40.0)],
            error: None,
        };
        r.rounds[2][PAIRS] = 1.0;
        let best = r.best_micros();
        assert_eq!(best[0], 20.0);
        assert_eq!(best[PAIRS], 1.0);
        assert_eq!(best[2 * PAIRS - 1], 20.0 + (2 * PAIRS - 1) as f64);
    }

    #[test]
    fn all_equiv_counts_are_exact() {
        let pair = mirrored(ORACLE_N, ALL_EQUIV, &mut Rng::derive(3, 0xe9));
        let mut run = integrate(&pair);
        check_all_equiv(&pair, &run).unwrap();
        run.stats.pairs_checked += 1;
        assert!(check_all_equiv(&pair, &run).is_err());
    }
}

/// The E8 comparison behind README.md: naive vs optimized pair checks and
/// wall time on all-≡ pairs. Run with
/// `cargo test --release -- --ignored --nocapture e8_table`.
#[cfg(test)]
mod e8 {
    use super::*;

    fn best_of(reps: usize, f: impl Fn() -> IntegrationRun) -> (f64, IntegrationRun) {
        let mut best = f64::MAX;
        let mut run = f();
        for _ in 0..reps {
            let t = Instant::now();
            run = f();
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        (best, run)
    }

    #[test]
    #[ignore = "prints a table; run explicitly"]
    fn e8_table() {
        println!("| n | naive checks | optimized checks | naive ms | optimized ms | optimized core.pair_checks ms |");
        println!("|---|---|---|---|---|---|");
        for n in [16usize, 32, 64, 128, 256, 512] {
            let pair = mirrored(n, ALL_EQUIV, &mut Rng::derive(1, 0xe900));
            let (naive_ms, naive) = if n <= 128 {
                let (ms, run) = best_of(3, || {
                    naive_schema_integration(&pair.s1, &pair.s2, &pair.assertions).unwrap()
                });
                (format!("{ms:.2}"), Some(run))
            } else {
                ("–".to_string(), None)
            };
            let (opt_ms, opt) = best_of(3, || integrate(&pair));
            obs::install(obs::TimeSource::monotonic());
            integrate(&pair);
            let mut fold = crate::layers::Folded::default();
            fold.drain();
            println!(
                "| {n} | {} | {} | {naive_ms} | {opt_ms:.2} | {:.2} |",
                naive.map_or("–".to_string(), |r| r.stats.pairs_checked.to_string()),
                opt.stats.pairs_checked,
                fold.self_of("core.pair_checks") / 1e3
            );
        }
    }
}
