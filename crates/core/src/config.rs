//! Typed run configuration — the single parse point for every `HORSE_*`
//! environment variable.
//!
//! [`RunConfig::from_env`] parses everything once, and callers thread the
//! struct (or read a field) instead of touching `std::env` themselves.
//! None of the keys is a performance gate: wall time is asserted only by
//! `benchmark/` (DESIGN.md "Where performance is asserted").
//!
//! | Variable | Field | Meaning |
//! |---|---|---|
//! | `HORSE_THREADS` | [`RunConfig::threads`] | Sweep worker count (1 = serial path) |
//! | `HORSE_RUN_THREADS` | [`RunConfig::run_threads`] | Intra-run pump worker count (default 1 = serial pump) |
//! | `HORSE_RESULTS_DIR` | [`RunConfig::results_dir`] | Bench output directory |
//! | `HORSE_TRACE` | [`RunConfig::trace`]`.enabled` | Enable structured tracing |
//! | `HORSE_TRACE_CAPACITY` | [`RunConfig::trace`]`.capacity` | Per-component ring capacity |
//! | `HORSE_CHECKPOINT_DIR` | [`RunConfig::checkpoint_dir`] | Sweep checkpoint directory (unset = results dir) |
//! | `HORSE_SWEEP_MAX_RUNS` | [`RunConfig::sweep_max_runs`] | Cap runs per invocation (resume smoke / staged campaigns) |
//! | `HORSE_RETRY_FAILED` | [`RunConfig::retry_failed`] | Re-run checkpointed `failed` records (`1`/`true`) |

use horse_trace::TraceOptions;
use std::fmt;
use std::path::PathBuf;

/// Typed configuration for experiment execution, replacing scattered
/// `HORSE_*` env reads. Construct with [`RunConfig::from_env`] (the env
/// vars keep working) or build a value directly in tests.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Sweep worker count; `None` means "use available parallelism".
    /// `Some(1)` forces the pool's inline serial path.
    pub threads: Option<usize>,
    /// Intra-run pump worker count; `None` means 1 (serial pump). Unlike
    /// sweep [`RunConfig::threads`], parallelism inside a single run is
    /// opt-in: the default must not oversubscribe cores when runs already
    /// execute in parallel under a sweep, and the serial pump is the
    /// baseline every parallel result is byte-compared against.
    pub run_threads: Option<usize>,
    /// Where bench harnesses drop machine-readable outputs.
    pub results_dir: PathBuf,
    /// Structured-tracing options for traced runs.
    pub trace: TraceOptions,
    /// Directory for sweep checkpoint files (`sweep-<plan_hash>.jsonl`);
    /// `None` means "use [`RunConfig::results_dir`]". Checkpointing
    /// itself is chosen by the caller (`execute_checkpointed` vs
    /// `execute`), not by this knob.
    pub checkpoint_dir: Option<PathBuf>,
    /// Execute at most this many sweep runs per invocation, leaving the
    /// rest pending in the checkpoint — the in-process stand-in for
    /// "killed partway" (CI resume smoke) and a lever for staging very
    /// long campaigns.
    pub sweep_max_runs: Option<usize>,
    /// Re-execute checkpointed runs whose record says `failed` instead
    /// of carrying the failure into the merged report.
    pub retry_failed: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: None,
            run_threads: None,
            results_dir: PathBuf::from("bench_results"),
            trace: TraceOptions::default(),
            checkpoint_dir: None,
            sweep_max_runs: None,
            retry_failed: false,
        }
    }
}

/// A `HORSE_*` variable whose value does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The variable, e.g. `HORSE_THREADS`.
    pub key: &'static str,
    /// The offending value, verbatim.
    pub value: String,
    /// What the key accepts, e.g. `a positive integer`.
    pub expected: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} must be {}, got {:?}",
            self.key, self.expected, self.value
        )
    }
}

impl std::error::Error for ConfigError {}

impl RunConfig {
    /// Parses the process environment. This is the only place in the
    /// workspace that reads `HORSE_*` variables, and the only place a
    /// [`ConfigError`] becomes a message: a bad value prints
    /// `error: HORSE_X must be …, got "…"` and exits with status 2 (the
    /// bench bins' bad-argv convention) — a typo'd override silently
    /// falling back to a default would be worse.
    pub fn from_env() -> RunConfig {
        Self::from_lookup(|k| std::env::var(k).ok()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parses from an arbitrary key→value lookup (tests pass closures so
    /// they never touch the process-global environment). The first
    /// unparsable value is returned as a [`ConfigError`].
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<RunConfig, ConfigError> {
        let integer = |key: &'static str, min: usize, expected: &'static str| {
            get(key)
                .map(|s| match s.trim().parse::<usize>() {
                    Ok(n) if n >= min => Ok(n),
                    _ => Err(ConfigError {
                        key,
                        value: s,
                        expected,
                    }),
                })
                .transpose()
        };
        let flag = |key: &'static str| match get(key) {
            None => Ok(false),
            Some(s) => match s.trim() {
                "" | "0" | "false" => Ok(false),
                "1" | "true" => Ok(true),
                _ => Err(ConfigError {
                    key,
                    value: s,
                    expected: "0/1/true/false",
                }),
            },
        };
        let mut trace = if flag("HORSE_TRACE")? {
            TraceOptions::enabled()
        } else {
            TraceOptions::default()
        };
        if let Some(n) = integer("HORSE_TRACE_CAPACITY", 1, "a positive integer")? {
            trace.capacity = n;
        }
        Ok(RunConfig {
            threads: integer("HORSE_THREADS", 1, "a positive integer")?,
            run_threads: integer("HORSE_RUN_THREADS", 1, "a positive integer")?,
            results_dir: get("HORSE_RESULTS_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("bench_results")),
            trace,
            checkpoint_dir: get("HORSE_CHECKPOINT_DIR").map(PathBuf::from),
            sweep_max_runs: integer("HORSE_SWEEP_MAX_RUNS", 0, "a non-negative integer")?,
            retry_failed: flag("HORSE_RETRY_FAILED")?,
        })
    }

    /// The worker count to actually use: the configured override, else
    /// the machine's available parallelism (1 when unknown).
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// The intra-run pump worker count: the configured override, else 1
    /// (serial pump — see [`RunConfig::run_threads`] for why the default
    /// differs from sweep [`RunConfig::threads`]).
    pub fn run_threads(&self) -> usize {
        self.run_threads.unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| {
            pairs
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn empty_env_gives_defaults() {
        let cfg = RunConfig::from_lookup(|_| None).unwrap();
        assert_eq!(cfg, RunConfig::default());
        assert!(cfg.threads() >= 1);
        assert!(!cfg.trace.enabled);
    }

    #[test]
    fn all_keys_parse() {
        let cfg = RunConfig::from_lookup(lookup(&[
            ("HORSE_THREADS", "4"),
            ("HORSE_RUN_THREADS", "2"),
            ("HORSE_RESULTS_DIR", "/tmp/out"),
            ("HORSE_TRACE", "1"),
            ("HORSE_TRACE_CAPACITY", "1024"),
            ("HORSE_CHECKPOINT_DIR", "/tmp/ckpt"),
            ("HORSE_SWEEP_MAX_RUNS", "12"),
            ("HORSE_RETRY_FAILED", "true"),
        ]))
        .unwrap();
        assert_eq!(cfg.threads, Some(4));
        assert_eq!(cfg.threads(), 4);
        assert_eq!(cfg.run_threads, Some(2));
        assert_eq!(cfg.run_threads(), 2);
        assert_eq!(cfg.results_dir, PathBuf::from("/tmp/out"));
        assert!(cfg.trace.enabled);
        assert_eq!(cfg.trace.capacity, 1024);
        assert_eq!(cfg.checkpoint_dir, Some(PathBuf::from("/tmp/ckpt")));
        assert_eq!(cfg.sweep_max_runs, Some(12));
        assert!(cfg.retry_failed);
    }

    #[test]
    fn checkpoint_knobs_default_off() {
        let cfg = RunConfig::from_lookup(|_| None).unwrap();
        assert_eq!(cfg.checkpoint_dir, None);
        assert_eq!(cfg.sweep_max_runs, None);
        assert!(!cfg.retry_failed);
    }

    #[test]
    fn trace_capacity_applies_without_enabling() {
        let cfg = RunConfig::from_lookup(lookup(&[("HORSE_TRACE_CAPACITY", "64")])).unwrap();
        assert!(!cfg.trace.enabled);
        assert_eq!(cfg.trace.capacity, 64);
    }

    #[test]
    fn run_threads_defaults_to_serial_pump() {
        let cfg = RunConfig::from_lookup(|_| None).unwrap();
        assert_eq!(cfg.run_threads, None);
        assert_eq!(cfg.run_threads(), 1, "intra-run parallelism is opt-in");
    }

    /// Every key that parses (the two directory keys take any string)
    /// rejects a bad value with an error naming the key, the value as
    /// given and what was expected — never a panic.
    #[test]
    fn bad_values_are_typed_errors() {
        let cases = [
            ("HORSE_THREADS", "zero", "a positive integer"),
            ("HORSE_THREADS", "0", "a positive integer"),
            ("HORSE_RUN_THREADS", "many", "a positive integer"),
            ("HORSE_RUN_THREADS", "0", "a positive integer"),
            ("HORSE_TRACE", "loud", "0/1/true/false"),
            ("HORSE_TRACE_CAPACITY", "x", "a positive integer"),
            ("HORSE_TRACE_CAPACITY", "0", "a positive integer"),
            ("HORSE_SWEEP_MAX_RUNS", "few", "a non-negative integer"),
            ("HORSE_SWEEP_MAX_RUNS", "-1", "a non-negative integer"),
            ("HORSE_RETRY_FAILED", "maybe", "0/1/true/false"),
        ];
        for (key, value, expected) in cases {
            let err = RunConfig::from_lookup(lookup(&[(key, value)])).unwrap_err();
            assert_eq!(
                err,
                ConfigError {
                    key,
                    value: value.to_string(),
                    expected
                }
            );
            assert_eq!(
                err.to_string(),
                format!("{key} must be {expected}, got {value:?}")
            );
        }
    }
}
