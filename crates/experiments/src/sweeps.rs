//! Types of the grid sweeps shared beyond their programs.

use ftcache::PolicyKind;

/// The attacker's model assumption for one `defense_tournament` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assumed {
    /// The paper's default: the attacker models SRT regardless of the
    /// switch's actual policy.
    Srt,
    /// The attacker knows the actual policy and models it.
    Matched,
}

impl Assumed {
    /// Short label for CSV/console output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Assumed::Srt => "srt",
            Assumed::Matched => "matched",
        }
    }

    /// The policy the attacker actually models against `actual`.
    #[must_use]
    pub fn policy(self, actual: PolicyKind) -> PolicyKind {
        match self {
            Assumed::Srt => PolicyKind::Srt,
            Assumed::Matched => actual,
        }
    }
}
