//! The fuzzing driver: budgets, case derivation, reproducer files, and
//! the byte-deterministic run summary.
//!
//! Case `i` of oracle `o` under seed `s` is generated from
//! `Rng::stream(s ^ fnv1a(o.name), i)` — independent of every other case
//! and of how many cases run, so a failure found at `--cases 10000` can
//! be re-derived with `--cases 1` worth of work once its index is known.
//! Summaries contain no wall-clock material: two runs with the same
//! configuration serialize byte-identically.

use std::fs;
use std::path::PathBuf;

use vfpga_sim::{Json, Rng};

use crate::input::FuzzInput;
use crate::oracle::{registry, Oracle};
use crate::shrink::shrink;

/// Schema version of fuzz reproducers and summaries (shared with the
/// repro artifact schema).
pub const FUZZ_SCHEMA_VERSION: u64 = 9;

/// Default shrink budget: oracle evaluations spent minimizing the first
/// failure of each oracle.
pub const DEFAULT_SHRINK_BUDGET: usize = 2_000;

/// A fuzzing run configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed; every case derives from it and nothing else.
    pub seed: u64,
    /// Cases per oracle.
    pub cases: usize,
    /// Run only the oracle with this name (all when `None`).
    pub oracle: Option<String>,
    /// Where shrunk reproducers are written (skipped when `None`).
    pub failure_dir: Option<PathBuf>,
    /// Oracle evaluations the shrinker may spend per failure.
    pub shrink_budget: usize,
}

impl FuzzConfig {
    /// A configuration with the default shrink budget and no failure dir.
    pub fn new(seed: u64, cases: usize) -> Self {
        FuzzConfig {
            seed,
            cases,
            oracle: None,
            failure_dir: None,
            shrink_budget: DEFAULT_SHRINK_BUDGET,
        }
    }
}

/// Outcome of replaying one input through one oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The invariant held.
    Pass,
    /// The invariant was violated, with the oracle's description.
    Fail(String),
}

/// The first failure of an oracle, after shrinking.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// Index of the failing case in the oracle's stream.
    pub case_index: usize,
    /// Error reported on the originally generated input.
    pub error: String,
    /// Error reported on the shrunk input (the same invariant, usually a
    /// tighter message).
    pub shrunk_error: String,
    /// Size metric of the generated input.
    pub original_size: u64,
    /// Size metric after shrinking.
    pub shrunk_size: u64,
    /// Oracle evaluations the shrinker spent.
    pub shrink_checks: usize,
    /// The shrunk input itself.
    pub input: FuzzInput,
    /// Reproducer filename inside the failure dir (`None` when no dir was
    /// configured or the write failed).
    pub reproducer: Option<String>,
}

/// Per-oracle results of a run.
#[derive(Clone, Debug)]
pub struct OracleReport {
    /// Oracle name.
    pub name: &'static str,
    /// Cases executed.
    pub cases: usize,
    /// Cases that violated the invariant.
    pub failures: usize,
    /// The first failure, shrunk; later failures are only counted.
    pub first_failure: Option<FailureReport>,
}

/// A whole run: one [`OracleReport`] per oracle, in registry order.
#[derive(Clone, Debug)]
pub struct FuzzSummary {
    /// Master seed of the run.
    pub seed: u64,
    /// Case budget per oracle.
    pub cases_per_oracle: usize,
    /// Per-oracle outcomes, in registry order.
    pub oracles: Vec<OracleReport>,
}

impl FuzzSummary {
    /// True when no oracle observed a violation.
    pub fn passed(&self) -> bool {
        self.oracles.iter().all(|o| o.failures == 0)
    }

    /// Total cases executed across oracles.
    pub fn total_cases(&self) -> usize {
        self.oracles.iter().map(|o| o.cases).sum()
    }

    /// Total violations across oracles.
    pub fn total_failures(&self) -> usize {
        self.oracles.iter().map(|o| o.failures).sum()
    }

    /// Deterministic JSON form: depends only on the configuration and the
    /// oracles' verdicts, never on wall-clock or paths outside the
    /// failure dir.
    pub fn to_json(&self) -> Json {
        let oracles: Vec<Json> = self
            .oracles
            .iter()
            .map(|o| {
                let mut doc = Json::obj()
                    .with("name", o.name)
                    .with("cases", o.cases as u64)
                    .with("failures", o.failures as u64);
                if let Some(f) = &o.first_failure {
                    doc = doc.with(
                        "first_failure",
                        Json::obj()
                            .with("case", f.case_index as u64)
                            .with("error", f.error.as_str())
                            .with("shrunk_error", f.shrunk_error.as_str())
                            .with("original_size", f.original_size)
                            .with("shrunk_size", f.shrunk_size)
                            .with("shrink_checks", f.shrink_checks as u64)
                            .with(
                                "reproducer",
                                match &f.reproducer {
                                    Some(name) => Json::Str(name.clone()),
                                    None => Json::Null,
                                },
                            )
                            .with("input", f.input.to_json()),
                    );
                }
                doc
            })
            .collect();
        Json::obj()
            .with("schema_version", FUZZ_SCHEMA_VERSION)
            .with("kind", "fuzz_summary")
            .with("seed", self.seed)
            .with("cases_per_oracle", self.cases_per_oracle as u64)
            .with("total_cases", self.total_cases() as u64)
            .with("total_failures", self.total_failures() as u64)
            .with("passed", self.passed())
            .with("oracles", oracles)
    }
}

/// FNV-1a over the oracle name; salts the master seed so each oracle gets
/// an independent case stream.
pub fn fnv1a(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Derives the generator stream for case `index` of `oracle_name`.
pub fn case_rng(seed: u64, oracle_name: &str, index: usize) -> Rng {
    Rng::stream(seed ^ fnv1a(oracle_name), index as u64)
}

/// Runs the configured case budget through every (selected) oracle.
///
/// Errors only on configuration mistakes (an unknown `--oracle` filter);
/// invariant violations are reported in the summary, with the first
/// failure per oracle shrunk and (when a failure dir is configured)
/// written as a standalone JSON reproducer named
/// `<oracle>-<seed>.json`.
pub fn run_fuzz(config: &FuzzConfig) -> Result<FuzzSummary, String> {
    let oracles: Vec<Oracle> = registry()
        .into_iter()
        .filter(|o| config.oracle.as_deref().is_none_or(|f| f == o.name))
        .collect();
    if oracles.is_empty() {
        return Err(format!(
            "no oracle named `{}`; known: {}",
            config.oracle.as_deref().unwrap_or(""),
            crate::oracle::oracle_names().join(", ")
        ));
    }
    let mut reports = Vec::new();
    for oracle in &oracles {
        let mut failures = 0usize;
        let mut first_failure: Option<FailureReport> = None;
        for i in 0..config.cases {
            let mut rng = case_rng(config.seed, oracle.name, i);
            let input = (oracle.generate)(&mut rng);
            let Err(error) = (oracle.check)(&input) else {
                continue;
            };
            failures += 1;
            if first_failure.is_some() {
                continue;
            }
            let original_size = input.size();
            let shrunk = shrink(input, error.clone(), oracle.check, config.shrink_budget);
            let reproducer = config.failure_dir.as_ref().and_then(|dir| {
                let name = format!("{}-{}.json", oracle.name, config.seed);
                let doc =
                    reproducer_json(oracle.name, config.seed, i, &shrunk.error, &shrunk.input);
                fs::create_dir_all(dir).ok()?;
                fs::write(dir.join(&name), doc.pretty() + "\n").ok()?;
                Some(name)
            });
            first_failure = Some(FailureReport {
                case_index: i,
                error,
                shrunk_error: shrunk.error,
                original_size,
                shrunk_size: shrunk.input.size(),
                shrink_checks: shrunk.checks,
                input: shrunk.input,
                reproducer,
            });
        }
        reports.push(OracleReport {
            name: oracle.name,
            cases: config.cases,
            failures,
            first_failure,
        });
    }
    Ok(FuzzSummary {
        seed: config.seed,
        cases_per_oracle: config.cases,
        oracles: reports,
    })
}

/// The standalone reproducer document for a shrunk failure.
pub fn reproducer_json(
    oracle: &str,
    seed: u64,
    case_index: usize,
    error: &str,
    input: &FuzzInput,
) -> Json {
    Json::obj()
        .with("schema_version", FUZZ_SCHEMA_VERSION)
        .with("kind", "fuzz_reproducer")
        .with("oracle", oracle)
        .with("seed", seed)
        .with("case", case_index as u64)
        .with("error", error)
        .with("input", input.to_json())
}

/// Re-runs a serialized reproducer through its named oracle. Returns the
/// oracle name and the fresh verdict.
pub fn replay(doc: &Json) -> Result<(String, Verdict), String> {
    let oracle_name = doc
        .field("oracle")
        .and_then(Json::as_str)
        .ok_or("reproducer has no `oracle` field")?
        .to_string();
    let input = FuzzInput::from_json(
        doc.field("input")
            .ok_or("reproducer has no `input` field")?,
    )
    .map_err(|e| format!("reproducer input does not deserialize: {e}"))?;
    let oracle = registry()
        .into_iter()
        .find(|o| o.name == oracle_name)
        .ok_or_else(|| format!("reproducer names unknown oracle `{oracle_name}`"))?;
    let verdict = match (oracle.check)(&input) {
        Ok(()) => Verdict::Pass,
        Err(e) => Verdict::Fail(e),
    };
    Ok((oracle_name, verdict))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_streams_are_oracle_independent() {
        let mut a = case_rng(42, "json-roundtrip", 0);
        let mut b = case_rng(42, "fault-plan", 0);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn unknown_oracle_filter_is_a_config_error() {
        let mut config = FuzzConfig::new(1, 1);
        config.oracle = Some("no-such-oracle".into());
        let err = run_fuzz(&config).unwrap_err();
        assert!(err.contains("no-such-oracle"), "{err}");
        assert!(err.contains("json-roundtrip"), "{err}");
    }

    #[test]
    fn replay_rejects_malformed_documents() {
        let doc = Json::obj().with("oracle", "json-roundtrip");
        assert!(replay(&doc).unwrap_err().contains("input"));
        let doc = Json::obj().with("input", Json::Null);
        assert!(replay(&doc).unwrap_err().contains("oracle"));
    }
}
