//! Cooperative per-job deadlines for the candidate sweeps.
//!
//! A [`Deadline`] is a plain wall-clock cut-off checked *cooperatively*
//! at sweep and iteration boundaries — no OS timers, no signals, no
//! thread cancellation. Each selector polls the deadline at its natural
//! work-item granularity (one front level, one cone walk), so an
//! expired deadline surfaces within one bounded unit of work and
//! every worker unwinds cleanly through the normal return path. The
//! [`Optimizer`](crate::Optimizer) threads one deadline through every
//! selector call of a run and reports
//! [`StopReason::DeadlineExpired`](crate::StopReason::DeadlineExpired)
//! with the trajectory committed so far intact — graceful degradation,
//! never a torn state.

use std::fmt;
use std::time::{Duration, Instant};

/// A cooperative wall-clock deadline: either unlimited (the default) or
/// an absolute cut-off instant.
///
/// `Deadline` is a tiny `Copy` value designed to be threaded by value
/// through selector builders and checked on hot-ish loops — a check is
/// one `Instant::now()` comparison, and the unlimited deadline
/// short-circuits without reading the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Default for Deadline {
    fn default() -> Self {
        Self::none()
    }
}

impl Deadline {
    /// The unlimited deadline: never expires, checks are free.
    pub fn none() -> Self {
        Self { at: None }
    }

    /// A deadline expiring `budget` from now. A budget so large that the
    /// cut-off overflows the clock is treated as unlimited.
    pub fn after(budget: Duration) -> Self {
        Self {
            at: Instant::now().checked_add(budget),
        }
    }

    /// Whether this is the unlimited deadline.
    pub fn is_unlimited(&self) -> bool {
        self.at.is_none()
    }

    /// Whether the cut-off has passed. Always `false` for the unlimited
    /// deadline (without reading the clock).
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// [`expired`](Self::expired) as a `Result`, for `?`-style
    /// propagation out of sweep loops.
    pub fn check(&self) -> Result<(), DeadlineExceeded> {
        if self.expired() {
            Err(DeadlineExceeded)
        } else {
            Ok(())
        }
    }
}

/// The error returned by the selectors' fallible (`try_*`) entry points
/// when their cooperative [`Deadline`] expires mid-sweep. Carries no
/// payload: the caller set the deadline, so the only news is that it
/// passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("cooperative deadline exceeded")
    }
}

impl std::error::Error for DeadlineExceeded {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_deadline_never_expires() {
        let d = Deadline::none();
        assert!(d.is_unlimited());
        assert!(!d.expired());
        assert_eq!(d.check(), Ok(()));
        assert_eq!(Deadline::default(), Deadline::none());
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let d = Deadline::after(Duration::ZERO);
        assert!(!d.is_unlimited());
        assert!(d.expired());
        assert_eq!(d.check(), Err(DeadlineExceeded));
    }

    #[test]
    fn distant_deadline_does_not_expire_yet() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.is_unlimited());
        assert!(!d.expired());
    }

    #[test]
    fn overflowing_budget_degrades_to_unlimited() {
        let d = Deadline::after(Duration::MAX);
        assert!(d.is_unlimited());
        assert!(!d.expired());
    }

    #[test]
    fn exceeded_error_displays() {
        assert_eq!(
            DeadlineExceeded.to_string(),
            "cooperative deadline exceeded"
        );
    }
}
