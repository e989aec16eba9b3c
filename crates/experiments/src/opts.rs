//! Minimal command-line option parsing shared by the experiment binaries.

use attack::ExecPolicy;
use std::path::PathBuf;

/// Options common to every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpOpts {
    /// Number of random network configurations.
    pub configs: usize,
    /// Trials per configuration.
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Output directory for CSV files.
    pub out: PathBuf,
    /// Smoke-run mode (tiny sizes).
    pub fast: bool,
    /// Trial execution policy (`--threads`, falling back to the
    /// `FLOW_RECON_THREADS` environment variable, then to auto).
    pub policy: ExecPolicy,
    /// Collect observability metrics (`--obs`). Results are
    /// byte-identical either way; this only controls whether the run's
    /// manifest carries metrics and per-cell progress is printed.
    pub obs: bool,
    /// Record a causal flight trace (`--trace`). Like `--obs`, results
    /// are byte-identical either way; tracing only adds
    /// `<experiment>.flightrec.jsonl` (and a Chrome/Perfetto
    /// `<experiment>.trace.json`) next to the CSVs.
    pub trace: bool,
    /// Resume from `<experiment>.ckpt.jsonl` when present (`--resume`).
    /// The programs that run no trials accept the flag too: a fresh run
    /// is trivially equivalent to resuming nothing.
    pub resume: bool,
    /// Flush a checkpoint every N completed work units
    /// (`--checkpoint-every N`; 0 disables periodic flushes). With
    /// checkpointing off, outputs are bit-identical to the
    /// pre-supervision engine.
    pub checkpoint_every: usize,
    /// Deterministic kill-point for the chaos gates
    /// (`--kill-after-checkpoints N`; N ≥ 1, and only with
    /// `--checkpoint-every`): after writing checkpoint N the run stops
    /// exactly as if interrupted.
    pub kill_after_checkpoints: Option<usize>,
}

impl Default for ExpOpts {
    /// The defaults before the command line and the environment apply:
    /// 40 configurations, 60 trials, seed 7, `results/`, one thread per
    /// core, nothing recorded.
    fn default() -> Self {
        ExpOpts {
            configs: 40,
            trials: 60,
            seed: 7,
            out: PathBuf::from("results"),
            fast: false,
            policy: ExecPolicy::auto(),
            obs: false,
            trace: false,
            resume: false,
            checkpoint_every: 0,
            kill_after_checkpoints: None,
        }
    }
}

/// A malformed command line or environment setting. Its message names
/// the flag or variable and what it expects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptsError(pub String);

impl std::fmt::Display for OptsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for OptsError {}

/// The flags [`ExpOpts::parse`] accepts, for the usage line.
const USAGE: &str = "[--configs N] [--trials N] [--seed N] [--out DIR] [--fast] \
[--threads N|auto] [--obs] [--trace] [--resume] [--checkpoint-every N] [--kill-after-checkpoints N]";

/// `value` parsed as the integer `flag` expects.
fn integer<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, OptsError> {
    value
        .parse()
        .map_err(|_| OptsError(format!("{flag} expects an integer, got `{value}`")))
}

/// A kill-point: checkpoint 0 is never written, so it must be positive.
fn kill_point(flag: &str, value: &str) -> Result<usize, OptsError> {
    match value.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(OptsError(format!(
            "{flag} expects a positive integer, got `{value}`"
        ))),
    }
}

impl ExpOpts {
    /// Parses `--configs N --trials N --seed N --out DIR --fast
    /// --threads N|auto --obs --trace --resume --checkpoint-every N
    /// --kill-after-checkpoints N` from an iterator of arguments
    /// (without the program name). A flag absent from the command line
    /// falls back to [`ExpOpts::default`], except that `--threads` falls
    /// back to `FLOW_RECON_THREADS` first ([`ExecPolicy::from_env`]),
    /// which is not read when the flag is given.
    ///
    /// # Errors
    ///
    /// [`OptsError`] on an unknown flag, a flag without its value, a
    /// malformed value, a malformed `FLOW_RECON_THREADS`, or a kill-point
    /// without `--checkpoint-every` (it would never fire): failing loudly
    /// beats silently ignoring a typo.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, OptsError> {
        let mut opts = ExpOpts::default();
        let mut threads = None;
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| OptsError(format!("flag {a} expects a value")))
            };
            match a.as_str() {
                "--configs" => opts.configs = integer(&a, &value()?)?,
                "--trials" => opts.trials = integer(&a, &value()?)?,
                "--seed" => opts.seed = integer(&a, &value()?)?,
                "--out" => opts.out = PathBuf::from(value()?),
                "--fast" => opts.fast = true,
                "--obs" => opts.obs = true,
                "--trace" => opts.trace = true,
                "--resume" => opts.resume = true,
                "--checkpoint-every" => opts.checkpoint_every = integer(&a, &value()?)?,
                "--kill-after-checkpoints" => {
                    opts.kill_after_checkpoints = Some(kill_point(&a, &value()?)?);
                }
                "--threads" => {
                    let v = value()?;
                    threads = Some(ExecPolicy::parse(&v).ok_or_else(|| {
                        OptsError(format!(
                            "--threads expects a thread count or `auto`, got `{v}`"
                        ))
                    })?);
                }
                other => return Err(OptsError(format!(
                    "unknown flag {other}; supported: --configs --trials --seed --out --fast --threads --obs --trace --resume --checkpoint-every --kill-after-checkpoints"
                ))),
            }
        }
        opts.policy = match threads {
            Some(policy) => policy,
            None => ExecPolicy::from_env().map_err(|e| OptsError(e.to_string()))?,
        };
        if opts.kill_after_checkpoints.is_some() && opts.checkpoint_every == 0 {
            return Err(OptsError(
                "--kill-after-checkpoints needs --checkpoint-every N".to_string(),
            ));
        }
        if opts.fast {
            opts.configs = opts.configs.min(6);
            opts.trials = opts.trials.min(20);
        }
        Ok(opts)
    }

    /// [`ExpOpts::parse`] for the programs that run no trials, and so
    /// no supervised grid (`ablation_evaluators`, `latency_table`,
    /// `render_figures`): `--resume` is harmless there
    /// (a fresh run is equivalent to resuming nothing), but a checkpoint
    /// interval or kill-point would silently do nothing.
    ///
    /// # Errors
    ///
    /// As [`ExpOpts::parse`], and [`OptsError`] when a checkpoint
    /// interval or kill-point is set.
    pub fn parse_without_trials<I: IntoIterator<Item = String>>(
        args: I,
    ) -> Result<Self, OptsError> {
        let opts = Self::parse(args)?;
        if opts.checkpoint_every > 0 || opts.kill_after_checkpoints.is_some() {
            return Err(OptsError(
                "--checkpoint-every and --kill-after-checkpoints act only on the \
                 programs that run trials"
                    .to_string(),
            ));
        }
        Ok(opts)
    }

    /// Parses the process's actual arguments with `parse`. On an
    /// [`OptsError`] it prints the message and the usage to stderr and
    /// exits with status 2.
    fn from_args(parse: fn(std::env::Args) -> Result<Self, OptsError>) -> Self {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        parse(args).unwrap_or_else(|e| {
            eprintln!("{e}\nusage: {program} {USAGE}");
            std::process::exit(2)
        })
    }

    /// [`ExpOpts::parse`] of the process's actual arguments; a malformed
    /// option exits with status 2 and the usage.
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_args(Self::parse)
    }

    /// [`ExpOpts::parse_without_trials`] of the process's actual
    /// arguments; a malformed option exits with status 2 and the usage.
    #[must_use]
    pub fn from_env_without_trials() -> Self {
        Self::from_args(Self::parse_without_trials)
    }

    /// Ensures the output directory exists and returns the path of a file
    /// within it.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    #[must_use]
    pub fn out_file(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out).expect("create output directory");
        self.out.join(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parse(s: &str) -> ExpOpts {
        ExpOpts::parse(args(s)).expect("valid flags")
    }

    fn error(s: &str) -> String {
        ExpOpts::parse(args(s)).expect_err("malformed flags").0
    }

    #[test]
    fn defaults() {
        let o = parse("");
        // Only the settings without an environment fallback: the suite
        // may run with FLOW_RECON_THREADS set.
        let d = ExpOpts::default();
        assert_eq!((o.configs, o.trials, o.seed), (d.configs, d.trials, d.seed));
        assert_eq!((&o.out, o.fast, o.resume), (&d.out, d.fast, d.resume));
        assert_eq!(o.checkpoint_every, d.checkpoint_every);
    }

    #[test]
    fn parses_all_flags() {
        let o = parse("--configs 5 --trials 9 --seed 3 --out /tmp/x");
        assert_eq!(o.configs, 5);
        assert_eq!(o.trials, 9);
        assert_eq!(o.seed, 3);
        assert_eq!(o.out, PathBuf::from("/tmp/x"));
        assert!(!o.fast);
    }

    #[test]
    fn fast_caps_sizes() {
        let o = parse("--configs 100 --trials 500 --fast");
        assert_eq!(o.configs, 6);
        assert_eq!(o.trials, 20);
        assert!(o.fast);
    }

    #[test]
    fn threads_flag_sets_policy() {
        assert_eq!(
            parse("--threads 4").policy,
            ExecPolicy::Parallel { threads: 4 }
        );
        assert_eq!(parse("--threads 1").policy, ExecPolicy::Serial);
        assert_eq!(parse("--threads auto").policy, ExecPolicy::auto());
    }

    #[test]
    fn obs_and_trace_flags_parse() {
        let o = parse("--obs --trace");
        assert!(o.obs && o.trace);
    }

    #[test]
    fn checkpoint_flags_parse() {
        let o = parse("--resume --checkpoint-every 3 --kill-after-checkpoints 2");
        assert!(o.resume);
        assert_eq!(o.checkpoint_every, 3);
        assert_eq!(o.kill_after_checkpoints, Some(2));
        let d = parse("");
        assert!(!d.resume);
        assert_eq!(d.checkpoint_every, 0);
    }

    #[test]
    fn programs_without_trials_accept_resume_only() {
        assert!(ExpOpts::parse_without_trials(args("--resume")).is_ok());
        let e = ExpOpts::parse_without_trials(args("--checkpoint-every 1")).expect_err("refused");
        assert!(e
            .0
            .starts_with("--checkpoint-every and --kill-after-checkpoints act only"));
    }

    #[test]
    fn kill_point_needs_a_positive_value_and_an_interval() {
        assert_eq!(
            error("--checkpoint-every 1 --kill-after-checkpoints 0"),
            "--kill-after-checkpoints expects a positive integer, got `0`"
        );
        assert!(error("--kill-after-checkpoints 1").ends_with("needs --checkpoint-every N"));
    }

    #[test]
    fn bad_threads_value_is_an_error() {
        assert_eq!(
            error("--threads lots"),
            "--threads expects a thread count or `auto`, got `lots`"
        );
    }

    #[test]
    fn malformed_integer_is_an_error() {
        assert_eq!(
            error("--configs many"),
            "--configs expects an integer, got `many`"
        );
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(error("--bogus").starts_with("unknown flag --bogus; supported: --configs"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(error("--seed"), "flag --seed expects a value");
    }
}
