//! Centralized process exit codes for every sweep binary and `sweepd`.
//!
//! The classification lives in one typed enum so the CLIs and the daemon
//! can never drift.

use noclat::SimError;

/// Typed process exit codes, so CI and scripts can tell failure classes
/// apart without parsing stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitCode {
    /// Clean exit.
    Success,
    /// Catch-all failure (IO errors, wedged drains without a watchdog…).
    Generic,
    /// Invalid arguments or configuration (also journal-resume mismatches
    /// and a busy result cache).
    Config,
    /// At least one sweep job panicked after exhausting its retries.
    JobPanic,
    /// At least one sweep job exceeded `--job-timeout` after exhausting its
    /// retries (and none panicked — panics take precedence).
    JobTimeout,
    /// The liveness watchdog reported violations (deadlock/starvation).
    Watchdog,
    /// `--prune` eliminated every cell of a non-empty grid: nothing was
    /// simulated, so a report of "zero cells, success" would be a lie.
    PrunedEmpty,
}

impl ExitCode {
    /// The numeric process exit code.
    #[must_use]
    pub const fn code(self) -> i32 {
        match self {
            ExitCode::Success => 0,
            ExitCode::Generic => 1,
            ExitCode::Config => 2,
            ExitCode::JobPanic => 3,
            ExitCode::JobTimeout => 4,
            ExitCode::Watchdog => 5,
            ExitCode::PrunedEmpty => 6,
        }
    }

    /// The enum variant of a numeric exit code, if it is one of ours.
    #[must_use]
    pub const fn from_code(code: i32) -> Option<ExitCode> {
        match code {
            0 => Some(ExitCode::Success),
            1 => Some(ExitCode::Generic),
            2 => Some(ExitCode::Config),
            3 => Some(ExitCode::JobPanic),
            4 => Some(ExitCode::JobTimeout),
            5 => Some(ExitCode::Watchdog),
            6 => Some(ExitCode::PrunedEmpty),
            _ => None,
        }
    }

    /// Classifies a list of quarantined cell errors the way every sweep
    /// binary reports them: panics beat timeouts beat the generic failure
    /// code (and an empty list is a success).
    pub fn from_quarantined<'a, I>(errors: I) -> ExitCode
    where
        I: IntoIterator<Item = &'a SimError>,
    {
        let mut worst = ExitCode::Success;
        for e in errors {
            let this = ExitCode::from(e);
            // Severity order for quarantine reporting only: panic > timeout
            // > everything else. (Config/journal problems abort the sweep
            // before any cell is quarantined, so they never compete here.)
            let rank = |c: ExitCode| match c {
                ExitCode::JobPanic => 3,
                ExitCode::JobTimeout => 2,
                ExitCode::Success => 0,
                _ => 1,
            };
            if rank(this) > rank(worst) {
                worst = this;
            }
        }
        worst
    }

    /// Terminates the process with this code.
    pub fn exit(self) -> ! {
        std::process::exit(self.code())
    }
}

impl From<ExitCode> for i32 {
    fn from(c: ExitCode) -> i32 {
        c.code()
    }
}

impl From<&SimError> for ExitCode {
    fn from(e: &SimError) -> ExitCode {
        match e {
            SimError::JobPanicked { .. } => ExitCode::JobPanic,
            SimError::JobTimeout { .. } => ExitCode::JobTimeout,
            SimError::Config(_) | SimError::Journal(_) => ExitCode::Config,
            _ => ExitCode::Generic,
        }
    }
}

impl std::fmt::Display for ExitCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} ({})", self, self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for c in [
            ExitCode::Success,
            ExitCode::Generic,
            ExitCode::Config,
            ExitCode::JobPanic,
            ExitCode::JobTimeout,
            ExitCode::Watchdog,
            ExitCode::PrunedEmpty,
        ] {
            assert_eq!(ExitCode::from_code(c.code()), Some(c));
            assert_eq!(i32::from(c), c.code());
        }
        assert_eq!(ExitCode::from_code(99), None);
        // The numbers are CI's contract (README "Exit codes").
        assert_eq!(ExitCode::Success.code(), 0);
        assert_eq!(ExitCode::Generic.code(), 1);
        assert_eq!(ExitCode::Config.code(), 2);
        assert_eq!(ExitCode::JobPanic.code(), 3);
        assert_eq!(ExitCode::JobTimeout.code(), 4);
        assert_eq!(ExitCode::Watchdog.code(), 5);
        assert_eq!(ExitCode::PrunedEmpty.code(), 6);
    }

    #[test]
    fn quarantine_classification_ranks_panics_over_timeouts() {
        let panic = SimError::JobPanicked {
            job: "a".into(),
            index: 0,
            message: "boom".into(),
            config_hash: None,
            attempts: 1,
        };
        let timeout = SimError::JobTimeout {
            job: "b".into(),
            index: 1,
            config_hash: None,
            timeout_ms: 10,
            attempts: 1,
        };
        let other = SimError::ZeroFlitPacket;
        assert_eq!(ExitCode::from_quarantined([]), ExitCode::Success);
        assert_eq!(ExitCode::from_quarantined([&other]), ExitCode::Generic);
        assert_eq!(
            ExitCode::from_quarantined([&other, &timeout]),
            ExitCode::JobTimeout
        );
        assert_eq!(
            ExitCode::from_quarantined([&timeout, &panic, &other]),
            ExitCode::JobPanic
        );
    }

    #[test]
    fn sim_errors_map_to_codes() {
        assert_eq!(ExitCode::from(&SimError::ZeroFlitPacket), ExitCode::Generic);
        let timeout = SimError::JobTimeout {
            job: "b".into(),
            index: 1,
            config_hash: None,
            timeout_ms: 10,
            attempts: 1,
        };
        assert_eq!(ExitCode::from(&timeout), ExitCode::JobTimeout);
    }
}
