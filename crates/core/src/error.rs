//! The unified error taxonomy of the general-reductions pipeline.
//!
//! Every failure mode a driver serving untrusted programs must survive —
//! solver budget exhaustion, outline refusals, interpreter traps, runtime
//! worker panics, speculative-schedule aborts, corrupted persistent-cache
//! artifacts, malformed serving requests — is represented by one
//! [`GrError`] variant with a **stable error code** (`GR001`–`GR007`).
//! Codes are the contract: log scrapers, the `greduce stats` failure
//! ledger and the `BENCH_detection.json` error counters all key on them,
//! so a variant may grow fields but its code never changes.
//!
//! [`GrError::emit`] records the failure on the active gr-trace session
//! as an `error.raised` instant event (code, phase, function, detail)
//! plus an `error{<code>}` counter, giving every sink — Chrome traces,
//! `greduce stats`, the bench baseline gate — a uniform failure ledger.
//! Emission is free when tracing is off, and failure paths are cold, so
//! callers emit unconditionally at the point the failure is *handled*
//! (not where it is raised) — one ledger entry per user-visible
//! degradation, never one per retry.
//!
//! The taxonomy deliberately lives in `gr-core`: `gr-parallel` (outline
//! refusals, worker panics) and the harnesses already depend on this
//! crate, while the interpreter's `Trap` is wrapped at the runtime
//! boundary rather than imported here, keeping `gr-interp` dependency
//! free.

use std::fmt;

/// Pipeline phase a failure was handled in, attached to every emitted
/// `error.raised` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorPhase {
    /// Constraint solving / detection driver.
    Detect,
    /// Loop outlining (exploitation planning).
    Outline,
    /// Parallel runtime execution.
    Execute,
    /// Detection serving (batch driver, persistent cache).
    Serve,
}

impl ErrorPhase {
    /// Stable lower-case phase tag.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorPhase::Detect => "detect",
            ErrorPhase::Outline => "outline",
            ErrorPhase::Execute => "execute",
            ErrorPhase::Serve => "serve",
        }
    }
}

/// A classified pipeline failure with a stable error code.
///
/// Construction is cheap (owned strings only on failure paths); the
/// variant fields carry what a human needs to reproduce the failure, and
/// [`GrError::emit`] publishes the code/phase/function triple to the
/// trace ledger.
#[derive(Debug, Clone, PartialEq)]
pub enum GrError {
    /// `GR001` — a solver run hit its step/solution budget and detection
    /// degraded to a partial report for this function.
    SolverBudget {
        /// Function being detected.
        function: String,
        /// Idiom (or prefix) whose solve truncated.
        idiom: String,
        /// The step budget in force.
        budget: usize,
        /// Steps actually spent before truncation.
        steps_used: usize,
    },
    /// `GR002` — the outliner refused to exploit a detected reduction.
    OutlineRefusal {
        /// Function whose loop was refused.
        function: String,
        /// Stable refusal kind (`OutlineError::kind`).
        kind: &'static str,
        /// Human-readable refusal message.
        detail: String,
    },
    /// `GR003` — an interpreter trap was handled by the runtime (a
    /// speculative chunk trapped and execution degraded to the
    /// sequential fallback, or a real trap is about to propagate).
    InterpTrap {
        /// Function (chunk) that trapped.
        function: String,
        /// The trap, rendered.
        detail: String,
    },
    /// `GR004` — a runtime worker panicked mid-chunk; the panic was
    /// contained and execution degraded to the sequential fallback.
    WorkerPanic {
        /// Function (chunk) the worker was executing.
        function: String,
        /// Chunk index the panic occurred in.
        chunk: i64,
        /// Panic payload, rendered.
        detail: String,
    },
    /// `GR005` — the speculative schedule's cancellation token was
    /// aborted (poisoned) before completion and execution degraded to
    /// the sequential fallback.
    TokenAborted {
        /// Function (chunk) being executed.
        function: String,
    },
    /// `GR006` — a persistent detection-cache file (`gr-cache/v2`) had a
    /// bad header or a complete record that failed to parse and was
    /// discarded; every affected function degraded to a full re-solve.
    /// Served results are never derived from a corrupted artifact. A
    /// torn last record (a kill mid-append) is dropped without this code.
    CacheCorrupt {
        /// Path of the discarded cache file, rendered.
        path: String,
        /// What failed (unreadable, malformed JSON, wrong schema tag).
        detail: String,
    },
    /// `GR007` — a serving request could not be turned into a module
    /// (empty request line, unreadable path, or a source file that does
    /// not compile); the request is answered with this error line and
    /// the server keeps serving the session.
    BadRequest {
        /// The request path as submitted (may be empty).
        path: String,
        /// Why the request was refused.
        detail: String,
    },
}

impl GrError {
    /// The stable error code. **Never** repurposed: ledgers, baselines
    /// and log scrapers key on these strings.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            GrError::SolverBudget { .. } => "GR001",
            GrError::OutlineRefusal { .. } => "GR002",
            GrError::InterpTrap { .. } => "GR003",
            GrError::WorkerPanic { .. } => "GR004",
            GrError::TokenAborted { .. } => "GR005",
            GrError::CacheCorrupt { .. } => "GR006",
            GrError::BadRequest { .. } => "GR007",
        }
    }

    /// Pipeline phase the failure belongs to.
    #[must_use]
    pub fn phase(&self) -> ErrorPhase {
        match self {
            GrError::SolverBudget { .. } => ErrorPhase::Detect,
            GrError::OutlineRefusal { .. } => ErrorPhase::Outline,
            GrError::InterpTrap { .. }
            | GrError::WorkerPanic { .. }
            | GrError::TokenAborted { .. } => ErrorPhase::Execute,
            GrError::CacheCorrupt { .. } | GrError::BadRequest { .. } => ErrorPhase::Serve,
        }
    }

    /// Function (or, for cache corruption, the cache file path) the
    /// failure is attributed to.
    #[must_use]
    pub fn function(&self) -> &str {
        match self {
            GrError::SolverBudget { function, .. }
            | GrError::OutlineRefusal { function, .. }
            | GrError::InterpTrap { function, .. }
            | GrError::WorkerPanic { function, .. }
            | GrError::TokenAborted { function } => function,
            GrError::CacheCorrupt { path, .. } | GrError::BadRequest { path, .. } => path,
        }
    }

    /// Records the failure on the active trace session: an
    /// `error.raised` instant (code, phase, function, detail) plus an
    /// `error{<code>}` ledger counter. A no-op without a session.
    pub fn emit(&self) {
        if !gr_trace::enabled() {
            return;
        }
        gr_trace::counter_keyed("error", self.code(), 1);
        gr_trace::instant(
            "error.raised",
            vec![
                ("code", self.code().into()),
                ("phase", self.phase().as_str().into()),
                ("function", self.function().to_string().into()),
                ("detail", self.to_string().into()),
            ],
        );
    }
}

impl fmt::Display for GrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrError::SolverBudget { function, idiom, budget, steps_used } => write!(
                f,
                "[GR001] solver budget exhausted in `{function}` ({idiom}): \
                 {steps_used} steps spent of {budget} budgeted; detection degraded"
            ),
            GrError::OutlineRefusal { function, kind, detail } => {
                write!(f, "[GR002] outline refused in `{function}` ({kind}): {detail}")
            }
            GrError::InterpTrap { function, detail } => {
                write!(f, "[GR003] interpreter trap in `{function}`: {detail}")
            }
            GrError::WorkerPanic { function, chunk, detail } => {
                write!(f, "[GR004] worker panic in `{function}` chunk {chunk}: {detail}")
            }
            GrError::TokenAborted { function } => {
                write!(f, "[GR005] speculative token aborted in `{function}`")
            }
            GrError::CacheCorrupt { path, detail } => {
                write!(f, "[GR006] persistent cache discarded at `{path}`: {detail}")
            }
            GrError::BadRequest { path, detail } => {
                write!(f, "[GR007] bad serve request `{path}`: {detail}")
            }
        }
    }
}

impl std::error::Error for GrError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<GrError> {
        vec![
            GrError::SolverBudget {
                function: "f".into(),
                idiom: "scalar-reduction".into(),
                budget: 10,
                steps_used: 10,
            },
            GrError::OutlineRefusal {
                function: "g".into(),
                kind: "NoReductions",
                detail: "nothing detected".into(),
            },
            GrError::InterpTrap { function: "k_chunk".into(), detail: "out-of-bounds".into() },
            GrError::WorkerPanic { function: "k_chunk".into(), chunk: 3, detail: "boom".into() },
            GrError::TokenAborted { function: "k_chunk".into() },
            GrError::CacheCorrupt {
                path: "cache/gr-cache.json".into(),
                detail: "malformed JSON".into(),
            },
            GrError::BadRequest { path: "missing.c".into(), detail: "cannot read".into() },
        ]
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let codes: Vec<&str> = samples().iter().map(GrError::code).collect();
        assert_eq!(codes, ["GR001", "GR002", "GR003", "GR004", "GR005", "GR006", "GR007"]);
    }

    #[test]
    fn display_leads_with_the_code() {
        for e in samples() {
            let s = e.to_string();
            assert!(s.starts_with(&format!("[{}]", e.code())), "{s}");
            assert!(s.contains(e.function()), "{s}");
        }
    }

    #[test]
    fn phases_partition_the_pipeline() {
        let phases: Vec<&str> = samples().iter().map(|e| e.phase().as_str()).collect();
        assert_eq!(
            phases,
            ["detect", "outline", "execute", "execute", "execute", "serve", "serve"]
        );
    }

    #[test]
    fn emit_without_session_is_a_noop() {
        // Must not panic or require a session.
        samples()[0].emit();
    }
}
