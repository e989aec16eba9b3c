//! Minimal command-line option parsing shared by the experiment binaries.

use attack::{ExecPolicy, THREADS_ENV_VAR};
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
    /// Collect observability metrics (`--obs`, or the `FLOW_RECON_OBS`
    /// environment variable). Results are byte-identical either way;
    /// this only controls whether the run's manifest carries metrics
    /// and per-cell progress is printed.
    pub obs: bool,
    /// Record a causal flight trace (`--trace`, or the
    /// `FLOW_RECON_TRACE` environment variable). Like `--obs`, results
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
    /// (`--kill-after-checkpoints N`, or the `FLOW_RECON_KILL_AFTER_CKPT`
    /// environment variable): after writing checkpoint N the run stops
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

/// Whether the environment variable `name` is set to anything but
/// empty or `0` (`FLOW_RECON_OBS`, `FLOW_RECON_TRACE`).
fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The `FLOW_RECON_KILL_AFTER_CKPT` kill-point, if set to a positive
/// integer — the env form lets the chaos CI gate cut a run without
/// changing the command line under test.
fn kill_from_env() -> Option<usize> {
    std::env::var("FLOW_RECON_KILL_AFTER_CKPT")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
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

impl ExpOpts {
    /// Parses `--configs N --trials N --seed N --out DIR --fast
    /// --threads N|auto --obs --trace --resume --checkpoint-every N
    /// --kill-after-checkpoints N` from an iterator of arguments
    /// (without the program name). A flag absent from the command line
    /// falls back to its environment variable where it has one
    /// (`FLOW_RECON_THREADS`, `FLOW_RECON_OBS`, `FLOW_RECON_TRACE`,
    /// `FLOW_RECON_KILL_AFTER_CKPT`), then to [`ExpOpts::default`];
    /// `FLOW_RECON_THREADS` is not read when `--threads` is given.
    ///
    /// # Errors
    ///
    /// [`OptsError`] on an unknown flag, a flag without its value, a
    /// malformed value, or a malformed `FLOW_RECON_THREADS`: failing
    /// loudly beats silently ignoring a typo.
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
                    opts.kill_after_checkpoints = Some(integer(&a, &value()?)?);
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
            None => match std::env::var(THREADS_ENV_VAR) {
                Ok(raw) => ExecPolicy::parse(&raw).ok_or_else(|| {
                    OptsError(format!(
                        "invalid {THREADS_ENV_VAR}=`{raw}`: expected a thread count or `auto`"
                    ))
                })?,
                Err(_) => ExecPolicy::auto(),
            },
        };
        opts.obs |= env_flag("FLOW_RECON_OBS");
        opts.trace |= env_flag("FLOW_RECON_TRACE");
        opts.kill_after_checkpoints = opts.kill_after_checkpoints.or_else(kill_from_env);
        if opts.fast {
            opts.configs = opts.configs.min(6);
            opts.trials = opts.trials.min(20);
        }
        Ok(opts)
    }

    /// Parses from the process's actual arguments. On an [`OptsError`]
    /// it prints the message and the usage to stderr and exits with
    /// status 2.
    #[must_use]
    pub fn from_env() -> Self {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        Self::parse(args).unwrap_or_else(|e| {
            eprintln!("{e}\nusage: {program} {USAGE}");
            std::process::exit(2)
        })
    }

    /// Guard for the programs that run no trials, and so no supervised
    /// grid (`ablation_evaluators`, `calibrate`, `diagnose`,
    /// `latency_table`, `render_figures`): `--resume` is harmless there
    /// (a fresh run is equivalent to resuming nothing), but a checkpoint
    /// interval or kill-point would silently do nothing — fail loudly
    /// instead of pretending.
    ///
    /// # Panics
    ///
    /// Panics when `--checkpoint-every` or `--kill-after-checkpoints`
    /// was requested.
    pub fn forbid_checkpointing(&self, bin: &str) {
        assert!(
            self.checkpoint_every == 0 && self.kill_after_checkpoints.is_none(),
            "{bin} has no checkpoint-aware job loop; --checkpoint-every and \
             --kill-after-checkpoints are only supported by the programs that run trials"
        );
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
        // may run with FLOW_RECON_* set.
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
    fn forbid_checkpointing_accepts_resume_only() {
        parse("--resume").forbid_checkpointing("latency_table"); // must not panic
    }

    #[test]
    #[should_panic(expected = "no checkpoint-aware job loop")]
    fn forbid_checkpointing_rejects_interval() {
        parse("--checkpoint-every 1").forbid_checkpointing("latency_table");
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
